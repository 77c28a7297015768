(** The Itanium-2-class machine simulator: executes scheduled,
    register-allocated code laid out in bundles, and accounts every cycle
    to one of the paper's nine categories (see {!Accounting}).

    Architectural semantics match the reference interpreter (predication,
    NaT deferral, sentinel and ALAT recovery); timing comes from the
    in-order six-issue pipeline, the scaled memory hierarchy, the branch
    predictor, the register stack engine and the OS page-walk model.

    One engine runs every mode (DESIGN.md §10): each function is decoded
    once per machine into arrays of closure ops with registers, constants,
    branch targets and call targets resolved; detailed and warm sampling
    phases run the same ops, the timing model being a layer of primitives
    inside them (stalls, ready marks, cache probes, charges) that reads the
    phase itself and does nothing in a warm phase, so no op reads it; and
    simulated frames live on an explicit stack, which is what a checkpoint
    copies and {!resume} re-enters.  With the
    reference interpreter ([Epic_ir.Interp]) it shares the architectural
    rules of [Epic_ir.Isa] and the intrinsics: a frame's registers are an
    [Isa.bank], and its ALU and compare ops are [Isa]'s, run after the
    op's stalls. *)

(** An architectural fault: the same exception as [Epic_ir.Isa.Fault] and
    [Epic_ir.Interp.Fault]. *)
exception Machine_fault of string

(** The fuel ran out: the same exception as [Epic_ir.Isa.Out_of_fuel] and
    [Epic_ir.Interp.Out_of_fuel]. *)
exception Out_of_fuel

(** Retired-operation and event counters (the Pfmon counter set). *)
type counters = {
  mutable useful_ops : int;
      (** retired with a true qualifying predicate, non-nop *)
  mutable squashed_ops : int;  (** retired with a false qualifying predicate *)
  mutable nop_ops : int;  (** template nops fetched and retired *)
  mutable kernel_ops : int;  (** work executed in "kernel" mode *)
  mutable branches : int;
  mutable groups : int;  (** issue groups executed *)
  mutable wild_loads : int;
  mutable spec_loads : int;
  mutable chk_recoveries : int;
  mutable nat_consumed : int;
  mutable calls : int;
}

type reason = Rload | Rfload | Rlong

(** One simulated invocation: its register file (integer bank unboxed),
    scoreboard and position (block, group, next op). *)
type frame

type dfunc
(** A function decoded against the layout and the machine description:
    blocks in an array, issue groups as arrays of closure ops (DESIGN.md
    §10).  Built on a function's first call; purely a host-speed
    structure. *)

type callee
(** A call target resolved by name: a function slot or an intrinsic. *)

type checkpoint
(** A positional, fully deep-copied snapshot of the machine between two
    issue groups: the frame stack, memory image, cache/TLB/predictor/RSE
    state, accounting and counters, each frame's position given as
    (function name, block index, group index, op index).  It holds no
    pointers into the program, layout or decoded tables, so it can be
    resumed against any structurally identical compile of the same
    source, any number of times (DESIGN.md §13). *)

val checkpoint_groups : checkpoint -> int
(** The groups counter at capture — the checkpoint's position. *)

val checkpoint_cycle : checkpoint -> int

type t = {
  program : Epic_ir.Program.t;
  layout : Epic_sched.Layout.t;
  mem : Epic_ir.Memimage.t;
  rt : Epic_ir.Intrinsics.runtime;  (** heap pointer, output and input *)
  l1i : Cache.t;
  l1d : Cache.t;
  l2 : Cache.t;
  l3 : Cache.t;
  dtlb : Tlb.t;
  bp : Branch_pred.t;
  rse : Rse.t;
  desc : Epic_mach.Machine_desc.t;  (** the machine description being simulated *)
  acc : Accounting.t;  (** the nine-way cycle accounting *)
  c : counters;
  mutable cycle : int;  (** the global clock *)
  mutable sb_work : int;
  mutable sb_last_cycle : int;
  mutable fuel : int;
  mutable fuel_mark : int;
  mutable squashed_mark : int;
      (** ops count squashes only; [c.useful_ops] is settled from the fuel
          spent since [fuel_mark] (every op retires useful or squashed) at
          a checkpoint and at the end of a run *)
  mutable cur_func : string;
  mutable in_intrinsic : bool;
      (** an intrinsic is running (its cycles and samples go to its
          pseudo-function) *)
  trace : Epic_obs.Trace.t option;
      (** event-trace sink; [None] (the default) records nothing and
          changes no counter or cycle *)
  prof : Epic_obs.Profile.t option;  (** PC-sampling profiler, opt-in *)
  mutable onat : bool;  (** scratch: NaT bit of the last operand read *)
  mutable cur_bins : float array;
      (** scratch: cached accounting bins of [cur_bins_for] *)
  mutable cur_bins_for : string;
      (** the name (physically) that [cur_bins] was fetched for *)
  mutable issue_pending : int;
      (** issue cycles of the groups started since they were last charged,
          owed to the Unstalled total and to [cur_func]'s bins; charged
          before [cur_func] changes, before a sampled detail phase is
          recorded, at a checkpoint and at the end of a run, so [acc] is
          exact whenever it is read *)
  experiments : Accounting.experiment list;
      (** the [?experiments] of {!run}, read off [acc] by
          {!fused_accounts}; the simulation never sees them *)
  syms : (string, int64) Hashtbl.t;  (** memoized symbol addresses *)
  funcs : Epic_ir.Func.t array;  (** the program's functions, by slot *)
  decoded : dfunc option array;  (** per slot, decoded on first call *)
  by_addr : callee array;  (** function-pointer targets, by code slot *)
  mutable stack : frame array;
      (** the simulated call stack; [stack.(depth - 1)] runs, frames past
          [depth] are kept for reuse *)
  mutable depth : int;
  mutable nframes : int;
  mutable ctl : int;  (** the last op's control request *)
  mutable callee : int;
  mutable vals : Epic_ir.Isa.opnd array;
      (** the last call's arguments or return's values, bound from the
          caller's or the returning frame's registers ({!Epic_ir.Isa.bind}) *)
  xv : Bytes.t;  (** an intrinsic's integer arguments, and its result *)
  xn : bool array;
  scratch : Bytes.t;
      (** a loaded or stored value in transit (bytes 0-7) and its address
          (bytes 8-15) *)
  mutable warm : bool;
      (** interval sampling (DESIGN.md §13): in a warm phase the timing
          model is bypassed — no charges, no clock, no stalls — while the
          functional state and the cache/TLB/predictor warming evolve *)
  sampling : Sampling.state option;
  mutable sample_summary : Sampling.summary option;
      (** filled by {!run} when [sampling] was requested *)
  warm_tlb_pages : int array;
      (** direct-mapped warm-phase probe filters (recently warmed
          pages/lines, keyed by low page/line bits) *)
  warm_l1d_lines : int array;
  warm_l2_lines : int array;
  warm_l1i_lines : int array;
  mutable warm_ttl : int;
      (** warm groups left before the probe filters are flushed (bounds
          the LRU-recency staleness a filter hit introduces) *)
  mutable ck_at : int;  (** groups count to capture at; [max_int] = none *)
  mutable ck_saved : checkpoint option;
  mutable countdown : int;
      (** groups that may still start before the sampling phase switch or
          the checkpoint capture must be checked for; the check happens at
          the start of the group that finds it at 0 *)
  mutable ev_span : int;
      (** the countdown when last set: [ev_span - countdown] groups have
          started since, which [sampling]'s [left] has yet to count *)
}

(** {2 The inlined hit paths}

    The dev build compiles with [-opaque], so a call from the machine into
    {!Cache} or {!Tlb} is an unknown call.  The machine decides the common
    case of each access itself, inlined, and makes exactly the state update
    the model's own function would; the three helpers are exported so that
    tests can drive them beside the models (DESIGN.md §10). *)

val cache_line : Cache.t -> int -> bool
(** [cache_line c line] is [Cache.access_line c line]: a line held by
    the way its [c.hint] names is a hit made here (accesses, clock and
    that way's age advance); anything else calls [Cache.access_line].  Every L1I, L1D, L2 and L3 access of the machine
    goes through it. *)

val tlb_page : Tlb.t -> int -> bool
(** [tlb_page t page] is [Tlb.lookup_page t page]: a page found in the
    entry its hint names is a hit made here (accesses, clock and the
    entry's age advance), anything else calls [Tlb.lookup_page]. *)

val hit_slot : int array -> int64 -> int -> int
(** [hit_slot hidx addr size], with [hidx] an image's [Memimage.t.hidx],
    is the slot of its page-handle cache that holds all [size] bytes at
    [addr], or -1: page 0, a page not in the cache (an address with bit 63
    set names a page of its own), or an access over the page's edge.  An
    integer load that translated reads its bytes there inline. *)

(** Run a laid-out program on the given input; returns (exit code, printed
    output, final machine state).  Output must equal the reference
    interpreter's on the same program and input.

    [trace] enables architectural event tracing (see {!Epic_obs.Trace});
    [profile] enables PC sampling (see {!Epic_obs.Profile}).  Both are off
    by default and, when off, leave every counter and cycle identical to a
    plain run.

    [experiments] names N causal-profiling virtual speedups (see
    {!Accounting.experiment}) to read off the finished run with
    {!fused_accounts}.  Nothing in the simulation reads the accounting,
    so an experiment is evaluated when it is read (DESIGN.md §14): the
    run itself, its accounting included, is the plain run's.  A
    factor-1.0 category experiment is how a "perfect" component is
    modelled: its category is charged zero while everything else matches
    the baseline.

    [desc] selects the machine description to simulate; the default is
    {!Epic_mach.Machine_desc.itanium2}.  For a run to be meaningful the
    program must have been scheduled under the same description (the
    driver guarantees this by scheduling under the description it records
    in its result and passing it along).

    [sampling] runs under interval sampling (see {!Sampling}): detailed
    phases alternate with warm functional phases and the final accounting
    is extrapolated; exit code, output and all retired-op counters are
    exact, cache/TLB access and miss counts approximate.

    [checkpoint_at] arms one-shot checkpoint capture: the snapshot fires
    just before the [n]-th issue group executes and is retrievable with
    {!checkpoint}.  Exclusive with [sampling] ([Invalid_argument]). *)
val run :
  ?fuel:int ->
  ?trace:Epic_obs.Trace.t ->
  ?profile:Epic_obs.Profile.t ->
  ?experiments:Accounting.experiment list ->
  ?desc:Epic_mach.Machine_desc.t ->
  ?sampling:Sampling.plan ->
  ?checkpoint_at:int ->
  Epic_ir.Program.t ->
  Epic_sched.Layout.t ->
  int64 array ->
  int * string * t

val checkpoint : t -> checkpoint option
(** The checkpoint captured by a [?checkpoint_at] run, if the run lived
    long enough to reach it. *)

val sample_summary : t -> Sampling.summary option
(** The extrapolation summary of a [?sampling] run. *)

val read : t -> Accounting.experiment -> Accounting.t
(** [read st e] is experiment [e] read off the finished run [st]:
    {!Sampling.read} for a sampled run, {!Accounting.apply} otherwise.
    Bitwise equal to a run that scaled every charge [e] admits as it was
    made, for a dyadic [1 - speedup].
    @raise Invalid_argument if the speedup is outside [0, 1]. *)

val fused_accounts : t -> Accounting.t array
(** The [?experiments] of the run read with {!read}, in the order the list
    was given; [[||]] when the run named none. *)

(** Resume a checkpoint against a structurally identical (program, layout)
    pair; returns (exit code, output, state) like {!run}, with the output
    including the checkpointed prefix.  The run is bit-identical — cycles,
    accounting, counters, output — to the uninterrupted one.

    [desc] must digest-match the description at capture
    ([Invalid_argument] otherwise).  [fuel] defaults to the fuel remaining
    at capture, so a resumed run exhausts at the same point as the
    uninterrupted one. *)
val resume :
  ?fuel:int ->
  ?trace:Epic_obs.Trace.t ->
  ?profile:Epic_obs.Profile.t ->
  ?desc:Epic_mach.Machine_desc.t ->
  Epic_ir.Program.t ->
  Epic_sched.Layout.t ->
  checkpoint ->
  int * string * t
