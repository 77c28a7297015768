(** Branch prediction: a gshare-style two-level predictor of two-bit
    counters, with unconditional transfers (calls, returns, gotos)
    predicted perfectly (Itanium 2's return stack and static hints). *)

type t = {
  counters : int array;
  mutable history : int;
  history_bits : int;
  mutable predictions : int;
  mutable mispredictions : int;
}

val create : ?bits:int -> ?history_bits:int -> unit -> t

(** Predict, update with the actual outcome, and report correctness. *)
val predict_and_update : t -> int -> bool -> bool

val record_unconditional : t -> unit

(** Correct-prediction rate (Figure 7's right axis). *)
val rate : t -> float

(** Deep copy (private counter array), for checkpointing. *)
val copy : t -> t
