(* The shared metrics registry: named counters, fixed-bucket
   histograms, read-through gauges and externally-owned counter
   vectors.  Handles are resolved once (get-or-create) so hot paths
   increment a plain mutable field; the registry is only walked at
   snapshot time, in sorted name order for deterministic output. *)

type counter = { mutable c : int }

type source =
  | Counter of counter
  | Histogram of Hist.t
  | Gauge of (unit -> float)
  | Vector of int array

type t = { tbl : (string, source) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }

let kind_name = function
  | Counter _ -> "counter"
  | Histogram _ -> "histogram"
  | Gauge _ -> "gauge"
  | Vector _ -> "vector"

let clash name existing wanted =
  Format.kasprintf invalid_arg "Metrics: %S is already registered as a %s, not a %s" name
    (kind_name existing) wanted

let counter t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Counter c) -> c
  | Some other -> clash name other "counter"
  | None ->
    let c = { c = 0 } in
    Hashtbl.replace t.tbl name (Counter c);
    c

let incr c = c.c <- c.c + 1
let add c v = c.c <- c.c + v

let histogram ?bounds t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Histogram h) -> h
  | Some other -> clash name other "histogram"
  | None ->
    let h = Hist.create ?bounds () in
    Hashtbl.replace t.tbl name (Histogram h);
    h

(* Gauges and vectors are read-through views over state owned by the
   instrumented code (Tight.instrumentation's arrays, Mc_run's wall
   clock): registering the same name again rebinds the view, which is
   what a fresh run over a shared registry wants. *)
let gauge t name f = Hashtbl.replace t.tbl name (Gauge f)
let vector t name arr = Hashtbl.replace t.tbl name (Vector arr)

type value =
  | V_counter of int
  | V_histogram of Hist.t
  | V_gauge of float
  | V_vector of int array

let snapshot t =
  Hashtbl.fold
    (fun name source acc ->
      let v =
        match source with
        | Counter c -> V_counter c.c
        | Histogram h -> V_histogram h
        | Gauge f -> V_gauge (f ())
        | Vector arr -> V_vector (Array.copy arr)
      in
      (name, v) :: acc)
    t.tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let find_counter t name =
  match Hashtbl.find_opt t.tbl name with Some (Counter c) -> Some c.c | _ -> None

let find_histogram t name =
  match Hashtbl.find_opt t.tbl name with Some (Histogram h) -> Some h | _ -> None
