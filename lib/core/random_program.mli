(** Random mini-C program generation and whole-pipeline differential
    checking, shared by the test suite's qcheck property and by the
    standalone fuzzer (bin/fuzz.exe).  Generated programs always
    terminate. *)

module Gen : sig
  (** A random, terminating mini-C program as source text. *)
  val program : string QCheck.Gen.t
end

type outcome =
  | Agree
  | Skipped  (** the reference ran out of fuel; vacuous *)
  | Mismatch of { config : string; ir_ok : bool; machine_ok : bool }
  | Crash of { config : string; exn : string }

(** Unoptimized reference behaviour: (exit code, output). *)
val reference : ?fuel:int -> string -> int64 array -> int * string

(** Compile at every configuration; compare interpreter and machine
    behaviour against the reference.  Where both agree, more legs run: the
    interpreter on the compiled IR must finish under exactly the
    instruction count of its run as fuel and run out under one less; the
    machine's clock must equal its accounted cycles; a sampled machine run
    at a tiny plan ([i64:d8:w8], so phases flip mid-block and inside
    callees) must keep the exit code and output, and its clock must equal
    the cycles measured in its detail phases; and a checkpoint at half the
    groups, resumed, must reproduce the full run's cycles and category
    totals bit for bit.  A failing leg is reported as a
    [Mismatch] whose [config] names the configuration and the leg. *)
val check : ?fuel:int -> string -> int64 array -> outcome

(** [Agree] or [Skipped]. *)
val agrees : ?fuel:int -> string -> int64 array -> bool
