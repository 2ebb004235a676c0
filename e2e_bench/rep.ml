(* One measured repetition of a workload, and what main.exe needs to
   know about a workload to set it up, repeat it and check it. *)

type t = {
  wall_ns : int;  (** the measured loop *)
  timed_ns : int;  (** inside top-level calls into the system *)
  ops : int;
  failed : int;  (** ops whose result a client sees as wrong or missing *)
  steps : int;  (** TAS steps (probes) spent obtaining names *)
  named : int;  (** names those steps obtained *)
  attempts : int;  (** name requests made *)
  granted : int;  (** requests that got a name *)
  counts : (string * float) list;  (** the repetition's counters *)
  errors : string list;  (** correctness-gate failures *)
}

type workload = {
  name : string;
  layers : string list;  (** span layers a trace of this workload must contain *)
  kinds : string array;  (** meter call kinds; kind 0 is the call whose latency end-to-end reports *)
  full : int;  (** pinned repetition size (the unit is the workload's) *)
  smoke : int;
  setup_batch : int;  (** set-ups timed together per set-up sample *)
  domains : int;  (** domains a repetition keeps busy *)
  deterministic : bool;  (** counts are a pure function of the seed *)
  prepare : size:int -> seed:int64 -> Meter.t -> unit -> t;
      (** [prepare ~size ~seed m] is the set-up: it builds inputs and
          system state and returns the repetition to measure. *)
}

let seeds ~seed ~name n =
  let rng = Renaming_rng.Stream.fork_named (Renaming_rng.Stream.create seed) ~name in
  Array.init n (fun _ -> Renaming_rng.Xoshiro.next rng)

let count r key = match List.assoc_opt key r.counts with Some v -> v | None -> nan

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let fdiv a b = if b = 0. then 0. else a /. b
