(** The reference interpreter: executes (virtual- or physical-register) IR
    directly, at any point of the pipeline, with the IA-64 semantics the
    structural transforms rely on — predication, compare types, NaT
    deferral for control-speculative loads, sentinel checks with in-place
    recovery, and an ALAT for data-speculative loads.  The rules it shares
    with the machine simulator come from {!Isa} and {!Intrinsics}; its
    ALU and compare ops are {!Isa}'s own closures, its frames
    {!Isa.bank}s.

    It is the semantic oracle for differential testing and, with
    [~profile:true], the engine behind control-flow profiling.  Each run
    decodes the program once (DESIGN.md §10): each function's registers
    are renumbered densely, so a call frame holds only the registers its
    function mentions; branch targets, calls and symbols are resolved up
    front; and every instruction becomes a closure specialized on its
    operand shape, opcode, compare relation and type, and guard.  A block
    is an array of segments, each ending at a [br], [br.call] or [br.ret];
    a segment the remaining fuel covers is charged once, otherwise it runs
    instruction by instruction, so [Out_of_fuel] and [executed] are exact.
    A profiled run counts block entries, branch executions and
    indirect-call targets in dense int arrays, read back with the [iter_*]
    functions below. *)

(** An architectural fault: the program is wrong.  The same exception as
    {!Isa.Fault} and the machine simulator's [Machine_fault]. *)
exception Fault of string

(** The dynamic instruction budget was exhausted: the same exception as
    {!Isa.Out_of_fuel} and the machine simulator's [Out_of_fuel]. *)
exception Out_of_fuel

type code
(** The predecoded program of one run. *)

(** Interpreter state; exposed so callers can read the event counters. *)
type state = {
  program : Program.t;
  mem : Memimage.t;
  rt : Intrinsics.runtime;  (** heap pointer, output and input *)
  mutable fuel : int;
  mutable executed : int;  (** dynamic instructions executed *)
  mutable nat_faults : int;  (** NaT consumed by a non-speculative op *)
  mutable wild_loads : int;  (** wild loads ({!Isa.wild_load}) *)
  mutable alat_recoveries : int;  (** chk.a entries found invalidated *)
  profiling : bool;  (** the run counts profile events *)
  code : code;
}

(** Run [program] with the given input vector (read by the [input]
    intrinsic); returns (exit code, printed output, final state).
    [fuel] bounds the dynamic instruction count (default 4·10⁸).
    [profile] (default false) turns on the profile counters. *)
val run :
  ?profile:bool ->
  ?fuel:int ->
  Program.t ->
  int64 array ->
  int * string * state

(** {2 Profile counts of a [~profile:true] run}

    Each iterator visits functions in program order and reports only
    non-zero counts.  Instructions sharing an id (copies made by
    [Instr.clone]) are reported separately; callers merge them. *)

(** Entries into each block. *)
val iter_block_counts : state -> (Func.t -> Block.t -> int -> unit) -> unit

(** Executions of each direct branch (squashed ones included) and how many
    were taken. *)
val iter_branch_counts :
  state -> (Instr.t -> exec:int -> taken:int -> unit) -> unit

(** Calls from each indirect call site, per resolved callee name. *)
val iter_indirect_counts : state -> (Instr.t -> string -> int -> unit) -> unit
