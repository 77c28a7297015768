(* Branch prediction: a gshare-style two-level predictor of two-bit
   saturating counters keyed by (site, global history), plus trivially
   correct prediction of unconditional branches, calls and returns (Itanium
   2's return stack and static branch hints make these near-perfect). *)

type t = {
  counters : int array;
  mutable history : int;
  history_bits : int;
  mutable predictions : int;
  mutable mispredictions : int;
}

let create ?(bits = 12) ?(history_bits = 8) () =
  {
    counters = Array.make (1 lsl bits) 2 (* weakly taken *);
    history = 0;
    history_bits;
    predictions = 0;
    mispredictions = 0;
  }

let index t (site : int) =
  let n = Array.length t.counters in
  (site lxor (t.history * 31)) land (n - 1)

(* Predict and immediately update with the actual [taken] outcome; returns
   whether the prediction was correct. *)
let predict_and_update t (site : int) (taken : bool) =
  t.predictions <- t.predictions + 1;
  let idx = index t site in
  let c = t.counters.(idx) in
  let predicted_taken = c >= 2 in
  let correct = predicted_taken = taken in
  if not correct then t.mispredictions <- t.mispredictions + 1;
  t.counters.(idx) <- (if taken then if c < 3 then c + 1 else 3 else if c > 0 then c - 1 else 0);
  t.history <-
    ((t.history lsl 1) lor (if taken then 1 else 0))
    land ((1 lsl t.history_bits) - 1);
  correct

(* Unconditional transfers: counted as predictions, never mispredicted. *)
let record_unconditional t = t.predictions <- t.predictions + 1

let rate t =
  if t.predictions = 0 then 1.0
  else 1.0 -. (float_of_int t.mispredictions /. float_of_int t.predictions)

(* Deep copy for checkpointing. *)
let copy t = { t with counters = Array.copy t.counters }
