(** Unbiased sampling helpers on top of {!Xoshiro}. *)

(** [uniform_int rng bound] is uniform on [0, bound).  Uses rejection
    sampling, so there is no modulo bias.  A power-of-two [bound] takes
    the low bits of one draw ([next_int63 land (bound - 1)]), which is
    the value rejection sampling returns for it, without its three
    integer divisions.  Raises [Invalid_argument] when [bound <= 0]. *)
val uniform_int : Xoshiro.t -> int -> int

(** [uniform_in_range rng ~lo ~hi] is uniform on [lo, hi] inclusive. *)
val uniform_in_range : Xoshiro.t -> lo:int -> hi:int -> int

(** [bernoulli rng p] is [true] with probability [p]. *)
val bernoulli : Xoshiro.t -> float -> bool

(** [float_unit rng] is uniform on [0, 1). *)
val float_unit : Xoshiro.t -> float

(** [permutation rng n] is a uniform random permutation of [0 .. n-1]. *)
val permutation : Xoshiro.t -> int -> int array
