(** The one float max of the fast kernels.

    A fast kernel's max fold and ReLU must equal the oracle's [Float.max]
    bit for bit, but [Float.max] calls C for its sign-bit test whenever
    the new value is not larger. {!max} compares first and sends only
    equal or NaN operands to [Float.max]. Kernels in other modules reach
    it through the row-wide {!fold} and {!relu}, one call per row or
    block, so no element pays a cross-module call. *)

(** [max a b] is [Float.max a b], bit for bit, for every pair of floats
    (signed zeros and NaNs of either sign included). *)
val max : float -> float -> float

(** [fold init a ~off ~len] folds {!max} over [a.(off) .. a.(off+len-1)]
    in ascending order, starting from [init]. *)
val fold : float -> float array -> off:int -> len:int -> float

(** [relu a ~off ~len] replaces each [a.(i)] in the range by
    [max 0.0 a.(i)]. *)
val relu : float array -> off:int -> len:int -> unit
