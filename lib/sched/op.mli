(** Shared-memory operations and their responses.

    One executed operation = one *step* in the paper's complexity
    measure.  Local computation (including coin flips) is free and runs
    eagerly inside the program continuations, so a parked process always
    exposes its next shared-memory operation — which is how the adaptive
    adversary gets to see the results of coin flips before scheduling. *)

type t =
  | Tas_name of int  (** test-and-set the namespace register; responds [Bool won] *)
  | Tas_aux of int  (** test-and-set an auxiliary TAS bit; responds [Bool won] *)
  | Read_name of int  (** read whether a namespace register is set; responds [Bool] *)
  | Read_aux of int
  | Owned_name of int
      (** does the calling process own namespace register [i]?  Responds
          [Bool owned].  The recovery primitive of the crash-recovery
          extension (docs/fault_model.md): a resurrected process uses it
          to re-discover a name it won before crashing.  Never faulted. *)
  | Tau_submit of { reg : int; bit : int }
      (** queue a request for TAS bit [bit] of τ-register [reg]; responds [Unit] *)
  | Tau_poll of int
      (** poll τ-register [reg] for the verdict on the calling process's
          latest request; responds [Tau answer].  The answer is
          [Pending] until that request's cycle has run, and [Pending]
          whenever the latest request went to another register (or there
          was none): a register the process has since left does not
          answer for its old request. *)
  | Read_word of int
      (** read an atomic read/write register (the splitter substrate);
          responds [Value v] *)
  | Write_word of { idx : int; value : int }  (** write it; responds [Unit] *)
  | Release_name of int
      (** free a namespace register the process owns (long-lived
          renaming only); responds [Bool released] *)
  | Yield
      (** a deliberate no-op step: burns one scheduling step without
          touching memory.  The backoff primitive of the transient-fault
          retry helpers ({!Retry}); responds [Unit]. *)

type response =
  | Bool of bool
  | Unit
  | Value of int
  | Tau of Renaming_device.Tau_register.answer
  | Faulted
      (** the operation was hit by an injected transient fault: it did
          not take effect and conveyed no information.  Produced by the
          executor's fault injector, never by {!Memory.apply}. *)

val pp : Format.formatter -> t -> unit

val pp_response : Format.formatter -> response -> unit

val target_name : t -> int option
(** The namespace register this operation touches, if any — used by
    adaptive adversaries to detect contention. *)

val faultable : t -> bool
(** Whether a transient fault may hit this operation: true exactly for
    the TAS and read operations on the namespace and auxiliary arrays.
    τ-register, word, release, recovery and yield operations are exempt
    (docs/fault_model.md discusses why). *)

val tag : t -> int
(** A dense constructor index in [0, n_tags).  Implemented as an
    exhaustive match so adding a constructor is a compile error here —
    which is how the static-analysis audit ({!Renaming_analysis})
    guarantees its pairwise commutation check covers every operation. *)

val n_tags : int
(** Number of constructors of {!t}. *)

val representatives : idx:int -> value:int -> t list
(** One operation per constructor, all targeting index/register [idx]
    ([value] seeds the [Write_word] payload).  The audit checks that the
    tags of this list cover [0, n_tags) exactly. *)
