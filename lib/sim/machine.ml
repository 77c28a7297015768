(* The Itanium-2-class machine simulator: executes scheduled, register-
   allocated code (issue groups laid out in bundles) and accounts every
   cycle to one of the paper's nine categories.  Architectural semantics
   match the high-level interpreter (predication, NaT deferral, speculation
   models); timing comes from the in-order six-issue pipeline, the scaled
   memory hierarchy, the branch predictor, the register stack engine and the
   OS page-walk model.

   One engine (DESIGN.md §10): each function is decoded once per machine
   into arrays of closure ops, with registers, immediates, symbol
   addresses, branch targets (block indices) and call targets (function
   slots or intrinsics) resolved at decode.  The ALU, compare and move ops
   are {!Isa}'s, run on the frame's {!Isa.bank} after the op's stalls,
   and a call binds its arguments and results by {!Isa.bind}, so the two
   engines compute with the same code.  Detailed and warm sampling
   phases run the same op bodies; the timing model — stalls, ready times,
   cache/TLB penalties, the store buffer, mispredict, call/return and RSE
   charges — is a layer of primitives inside them that reads the phase
   itself and does nothing in a warm one, so no op knows it.  Simulated
   frames live on an explicit stack owned by the block loop, so a
   checkpoint copies that stack and resume simply re-enters the loop.

   Simplifications (documented in DESIGN.md): each frame has a private
   register file (parameters/returns carried by the call), wrong-path fetch
   is not modelled, and the fetch-decoupling buffer is ignored. *)

open Epic_ir
open Epic_mach
open Epic_sched

exception Machine_fault = Isa.Fault
exception Out_of_fuel = Isa.Out_of_fuel

type counters = {
  mutable useful_ops : int; (* retired, qualifying predicate true, non-nop *)
  mutable squashed_ops : int; (* retired with false qualifying predicate *)
  mutable nop_ops : int; (* template nops fetched and retired *)
  mutable kernel_ops : int; (* dynamic work executed in "kernel" mode *)
  mutable branches : int; (* retired branch instructions *)
  mutable groups : int; (* issue groups executed *)
  mutable wild_loads : int;
  mutable spec_loads : int; (* speculative load executions *)
  mutable chk_recoveries : int;
  mutable nat_consumed : int;
  mutable calls : int;
}

let fresh_counters () =
  {
    useful_ops = 0;
    squashed_ops = 0;
    nop_ops = 0;
    kernel_ops = 0;
    branches = 0;
    groups = 0;
    wild_loads = 0;
    spec_loads = 0;
    chk_recoveries = 0;
    nat_consumed = 0;
    calls = 0;
  }

(* Stall reason attached to a not-yet-ready register. *)
type reason = Rload | Rfload | Rlong

(* Registers live in an {!Isa.bank} by register id, integers unboxed,
   eight bytes each, so an integer write is a store rather than an [Int64]
   allocation.  Every id an op touches is checked against the bank sizes
   at decode, which is what makes the unchecked accessors safe. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let warm_filter_size = 256

(* One simulated invocation.  The position (block, group, next op) is the
   frame's own, held as integers so moving it needs no write barrier: the
   block loop runs the frame on top of the stack, and a caller's position
   is where it continues when its callee returns.  [k = 0] means group
   [gi] has not started (fetch and issue not yet charged); a continuation
   after a call always has [k >= 1]. *)
type frame = {
  mutable df : dfunc;
  regs : Isa.bank; (* its ALAT is keyed by (bank, register id) and flushed at calls *)
  iready : int array; (* global cycle at which the register's value is ready *)
  ireason : reason array;
  fready : int array;
  freason : reason array;
  mutable bi : int; (* block index in [df.df_blocks] *)
  mutable gi : int;
  mutable k : int;
}

(* A function decoded against the layout and the machine description. *)
and dfunc = {
  df_func : Func.t;
  df_name : string;
  df_blocks : dblock array; (* layout order; index 0 = entry *)
  df_params : Isa.dst array;
  df_params_fit : bool; (* false: some parameter's id is out of range *)
  df_stacked : int; (* RSE frame size pushed by a call *)
  (* register spans: 1 + the highest register id the function can touch,
     per bank (stall/ready state for Int, Brr and Prd classes lives in the
     integer bank, so [df_ispan] covers all three); a reused frame only
     needs clearing up to these *)
  df_ispan : int;
  df_fspan : int;
  df_pspan : int;
}

and dblock = {
  db_label : string;
  db_laid : bool; (* false: no layout, entering the block faults *)
  db_fall : int; (* next block in layout order; -1 = none *)
  db_groups : dgroup array;
}

and dgroup = {
  (* fetch: [g_chunks] chunks of [bundles_per_cycle] bundles (one I-side
     access and issue cycle each) from code address [g_addr], the group's
     first bundle; immediate fields, so starting a group reads no array
     but its ops *)
  g_addr : int;
  g_chunks : int;
  g_nops : int;
  g_ops : op array;
  g_pure : int; (* leading ops that cannot transfer control *)
  g_binds : Isa.dst array array; (* per op: a call's result registers *)
}

(* An op is one instruction's closure over its machine (one argument, so
   a call is a direct jump through the closure).  Control transfers are
   requested through [t.ctl], which the block loop reads after every op
   past [g_pure]. *)
and op = frame -> unit

(* --- checkpoints ----------------------------------------------------------
   A checkpoint is a positional, fully deep-copied snapshot of the machine
   between two issue groups: the frame stack, memory image, cache/TLB/
   predictor/RSE arrays, accounting and counters.  Each frame carries its
   position as (function name, block index, group index, op index): the
   innermost frame is about to start its group (op 0); every other frame
   continues at the op after its call.  It holds no pointers into the
   program, layout or decoded tables, so it can be resumed against any
   structurally identical compile of the same source (the session cache
   keys guarantee exactly that), and one checkpoint can seed any number of
   resumed runs. *)
and ck_frame = {
  kf_func : string;
  kf_blk : int;
  kf_gi : int;
  kf_op : int;
  kf_regs : Isa.bank;
  kf_iready : int array;
  kf_ireason : reason array;
  kf_fready : int array;
  kf_freason : reason array;
}

and checkpoint = {
  ck_desc_digest : string; (* guards resume against a mismatched machine *)
  ck_groups : int; (* the groups counter at capture = the position *)
  ck_cycle : int;
  ck_sb_work : int;
  ck_sb_last_cycle : int;
  ck_fuel : int; (* remaining fuel, so resumed runs exhaust identically *)
  ck_heap : int64;
  ck_output : string;
  ck_input : int64 array;
  ck_counters : counters; (* a private copy *)
  ck_mem : Memimage.t; (* private deep copies, never mutated after capture *)
  ck_l1i : Cache.t;
  ck_l1d : Cache.t;
  ck_l2 : Cache.t;
  ck_l3 : Cache.t;
  ck_dtlb : Tlb.t;
  ck_bp : Branch_pred.t;
  ck_rse : Rse.t;
  ck_acc : Accounting.t;
  ck_frames : ck_frame array; (* outermost first *)
}

(* What a call targets, resolved by name (the first function bearing it;
   intrinsic names take precedence) at decode. *)
and callee =
  | Fn of int (* function slot *)
  | Intrinsic of Intrinsics.kind * string (* and its name, the pseudo-function binned *)
  | Missing of string

and t = {
  program : Program.t;
  layout : Layout.t;
  mem : Memimage.t;
  rt : Intrinsics.runtime;
  l1i : Cache.t;
  l1d : Cache.t;
  l2 : Cache.t;
  l3 : Cache.t;
  dtlb : Tlb.t;
  bp : Branch_pred.t;
  rse : Rse.t;
  desc : Machine_desc.t; (* the machine being simulated *)
  acc : Accounting.t;
  c : counters;
  mutable cycle : int;
  mutable sb_work : int; (* pending store-buffer drain work, in cycles *)
  mutable sb_last_cycle : int;
  mutable fuel : int;
  (* Every executed op retires as useful or squashed and burns one unit
     of fuel, so ops count only squashes and [settle] derives the useful
     count from the fuel spent since the marks. *)
  mutable fuel_mark : int;
  mutable squashed_mark : int;
  mutable cur_func : string; (* for per-function attribution *)
  mutable in_intrinsic : bool;
      (* an intrinsic runs: samples go to its pseudo-function's block
         "<intrinsic>"; otherwise to the running frame's block *)
  trace : Epic_obs.Trace.t option; (* event tracing; None = disabled, free *)
  prof : Epic_obs.Profile.t option; (* PC-sampling profiler *)
  mutable onat : bool; (* scratch: NaT bit of the last operand read *)
  mutable cur_bins : float array; (* accounting bins of [cur_bins_for] *)
  mutable cur_bins_for : string; (* physically: the name [cur_bins] is for *)
  (* issue cycles of the groups started since the last [flush_issue], owed
     to the Unstalled total and to [cur_func]'s bins *)
  mutable issue_pending : int;
  (* the experiments the run was asked to carry, read off [acc] by
     [fused_accounts] (DESIGN.md §14); the simulation never sees them *)
  experiments : Accounting.experiment list;
  syms : (string, int64) Hashtbl.t; (* memoized symbol addresses *)
  (* the program's functions by slot (definition order), decoded on first
     call; [by_addr] gives a function pointer's callee *)
  funcs : Func.t array;
  decoded : dfunc option array;
  by_addr : callee array;
  (* the frame stack: [stack.(depth - 1)] runs; frames past [depth] (up to
     [nframes]) are kept for reuse *)
  mutable stack : frame array;
  mutable depth : int;
  mutable nframes : int;
  (* control request of the last op: [ctl_none], [ctl_call] (to slot
     [callee]), [ctl_ret], or [ctl_jump + block index] *)
  mutable ctl : int;
  mutable callee : int;
  (* the operands of the last call's arguments or return's values, bound
     from the caller's or the returning frame's registers *)
  mutable vals : Isa.opnd array;
  (* an intrinsic's arguments in integer context, eight bytes each, their
     NaT bits, and its result (word 0) *)
  xv : Bytes.t;
  xn : bool array;
  (* sixteen bytes: a loaded or stored value in transit (bytes 0-7) and
     its address (bytes 8-15) *)
  scratch : Bytes.t;
  (* Interval sampling (DESIGN.md §13): in a warm phase [warm] is true and
     the timing primitives do nothing — no charges, no clock, no stalls —
     while the functional state and the cache/TLB/predictor warming evolve;
     no op reads it.  The [warm_*] fields are direct-mapped filters that
     keep warm-phase memory-system probes cheap (same line/page as a recent
     probe = skip). *)
  mutable warm : bool;
  sampling : Sampling.state option;
  mutable sample_summary : Sampling.summary option;
  warm_tlb_pages : int array;
  warm_l1d_lines : int array;
  warm_l2_lines : int array;
  warm_l1i_lines : int array;
  (* groups left before the warm probe filters are flushed: a filter hit
     skips the model probe and therefore the line's LRU-recency update,
     so unbounded filter lifetime would let the model evict lines that
     are in fact hot; a periodic flush bounds that divergence *)
  mutable warm_ttl : int;
  mutable ck_at : int; (* groups count to capture at; max_int = disarmed *)
  mutable ck_saved : checkpoint option;
  (* The event countdown: groups that may still start before the next
     sampling phase switch or checkpoint capture ([group_event]).  It was
     [ev_span] when last set, so [ev_span - countdown] groups have started
     since, which [sampling.left] has yet to count. *)
  mutable countdown : int;
  mutable ev_span : int;
}

let ctl_none = 0
let ctl_call = 1
let ctl_ret = 2
let ctl_jump = 3

let checkpoint_groups ck = ck.ck_groups
let checkpoint_cycle ck = ck.ck_cycle

(* --- state ---------------------------------------------------------------- *)

let callee_of_name (funcs : Func.t array) name =
  match Intrinsics.of_name name with
  | Some k -> Intrinsic (k, name)
  | None -> (
      let rec find i =
        if i >= Array.length funcs then Missing name
        else if String.equal funcs.(i).Func.name name then Fn i
        else find (i + 1)
      in
      find 0)

(* Writes to r0 and p0 go to a slot past the architectural registers of
   their bank, which nothing reads; r0 therefore reads 0 with no NaT, and
   p0 reads true, set when the frame is made. *)
let r0_sink = Reg.num_int
let p0_sink = Reg.num_prd

let fresh_frame df =
  let regs = Isa.new_bank ~ints:(r0_sink + 1) ~flts:Reg.num_flt ~prds:(p0_sink + 1) in
  regs.Isa.prds.(0) <- true;
  {
    df;
    regs;
    iready = Array.make Reg.num_int 0;
    ireason = Array.make Reg.num_int Rload;
    fready = Array.make Reg.num_flt 0;
    freason = Array.make Reg.num_flt Rfload;
    bi = 0;
    gi = 0;
    k = 0;
  }

(* Build a machine: fresh architectural state, or private copies of a
   checkpoint's ([from]). *)
let create ?(fuel = 400_000_000) ?trace ?profile ?(experiments = [])
    ?(desc = Machine_desc.itanium2) ?sampling ?checkpoint_at ?from (program : Program.t)
    (layout : Layout.t) (input : int64 array) =
  Program.assign_addresses program;
  let restore f fresh = match from with Some ck -> f ck | None -> fresh () in
  let cache name (g : Machine_desc.cache_geom) () =
    (* lines are reached through word addresses (see [word_of]) *)
    if g.Machine_desc.line < 4 then invalid_arg "Machine: a cache line is at least 4 bytes";
    Cache.create ~name ~size:g.Machine_desc.size ~line:g.Machine_desc.line
      ~assoc:g.Machine_desc.assoc
  in
  let acc = restore (fun ck -> Accounting.copy ck.ck_acc) Accounting.create in
  let c = restore (fun ck -> { ck.ck_counters with useful_ops = ck.ck_counters.useful_ops }) fresh_counters in
  let sampling = Option.map Sampling.make sampling in
  let output = Buffer.create 256 in
  Option.iter (fun ck -> Buffer.add_string output ck.ck_output) from;
  let heap = restore (fun ck -> ck.ck_heap) (fun () -> Program.heap_base) in
  let funcs = Array.of_list program.Program.funcs in
  {
    program;
    layout;
    mem =
      restore
        (fun ck -> Memimage.copy ck.ck_mem)
        (fun () ->
          let mem = Memimage.create () in
          Memimage.load_program mem program;
          mem);
    rt = { Intrinsics.heap; output; input };
    l1i = restore (fun ck -> Cache.copy ck.ck_l1i) (cache "L1I" desc.Machine_desc.l1i);
    l1d = restore (fun ck -> Cache.copy ck.ck_l1d) (cache "L1D" desc.Machine_desc.l1d);
    l2 = restore (fun ck -> Cache.copy ck.ck_l2) (cache "L2" desc.Machine_desc.l2);
    l3 = restore (fun ck -> Cache.copy ck.ck_l3) (cache "L3" desc.Machine_desc.l3);
    dtlb =
      restore
        (fun ck -> Tlb.copy ck.ck_dtlb)
        (Tlb.create ~entries:desc.Machine_desc.dtlb_entries);
    bp =
      restore
        (fun ck -> Branch_pred.copy ck.ck_bp)
        (Branch_pred.create ~bits:desc.Machine_desc.bp_bits
           ~history_bits:desc.Machine_desc.bp_history_bits);
    rse =
      restore
        (fun ck -> Rse.copy ck.ck_rse)
        (Rse.create ~physical:desc.Machine_desc.rse_physical
           ~cost_per_reg:desc.Machine_desc.rse_spill_cost_per_reg);
    desc;
    acc;
    c;
    cycle = restore (fun ck -> ck.ck_cycle) (fun () -> 0);
    sb_work = restore (fun ck -> ck.ck_sb_work) (fun () -> 0);
    sb_last_cycle = restore (fun ck -> ck.ck_sb_last_cycle) (fun () -> 0);
    fuel;
    fuel_mark = fuel;
    squashed_mark = c.squashed_ops;
    cur_func = "main";
    in_intrinsic = false;
    trace;
    prof = profile;
    onat = false;
    cur_bins = [||];
    cur_bins_for = "\000"; (* sentinel: no function is named this *)
    issue_pending = 0;
    experiments;
    syms = Hashtbl.create 32;
    funcs;
    decoded = Array.make (Array.length funcs) None;
    by_addr = Array.map (fun (f : Func.t) -> callee_of_name funcs f.Func.name) funcs;
    stack = [||];
    depth = 0;
    nframes = 0;
    ctl = ctl_none;
    callee = 0;
    vals = [||];
    xv = Bytes.create 24;
    xn = Array.make 3 false;
    scratch = Bytes.create 16;
    warm = false;
    sampling;
    sample_summary = None;
    warm_tlb_pages = Array.make warm_filter_size (-1);
    warm_l1d_lines = Array.make warm_filter_size (-1);
    warm_l2_lines = Array.make warm_filter_size (-1);
    warm_l1i_lines = Array.make warm_filter_size (-1);
    warm_ttl = 0;
    ck_at = (match checkpoint_at with Some n -> max 0 n | None -> max_int);
    ck_saved = None;
    countdown = 0;
    ev_span = 0;
  }

(* --- timing primitives ---------------------------------------------------- *)

(* [Accounting.index], decided here rather than across a module boundary
   (the dev build compiles with -opaque, so such a call is never inlined);
   checked against it when the module loads. *)
let[@inline] cat_index (cat : Accounting.category) =
  match cat with
  | Unstalled -> 0
  | Float_scoreboard -> 1
  | Misc -> 2
  | Int_load_bubble -> 3
  | Micropipe -> 4
  | Front_end -> 5
  | Br_mispredict -> 6
  | Rse -> 7
  | Kernel -> 8

let () =
  List.iter (fun c -> assert (cat_index c = Accounting.index c)) Accounting.all_categories

(* Add [n] (> 0) cycles to category [k]'s total and to the running
   function's bins: the two additions [Accounting.charge] makes.  The
   bins are cached keyed by the physical [cur_func] string; a miss
   (function change, or the same name via a different string) is one hash
   lookup, a hit is free.  Bins are still created only on the first
   positive charge, exactly as when every charge went through
   [Accounting.charge]. *)
let[@inline] charge_bins st k n =
  if not (st.cur_bins_for == st.cur_func) then begin
    st.cur_bins <- Accounting.bins st.acc st.cur_func;
    st.cur_bins_for <- st.cur_func
  end;
  let c = float_of_int n in
  let totals = st.acc.Accounting.totals and bins = st.cur_bins in
  totals.(k) <- totals.(k) +. c;
  bins.(k) <- bins.(k) +. c

(* Charge [n] cycles to [cat] in a detailed phase.  The clock is advanced
   by the callers, never from here, and nothing reads the accounting back,
   so an experiment read off it afterwards cannot change the machine's
   evolution. *)
let charge st cat n = if n > 0 && not st.warm then charge_bins st (cat_index cat) n

(* Fold the pending issue cycles into the Unstalled total and the running
   function's bins.  A group's issue is the one charge every group makes,
   so [group_start] only counts it; the sum is charged here, before
   [cur_func] changes ([set_func]), before a detail phase is recorded,
   and when the run settles.  The charges are integers and every sum
   stays below 2^53, so each float addition is exact and any grouping of
   them gives the same bits. *)
let flush_issue st =
  if st.issue_pending > 0 then begin
    charge_bins st (cat_index Accounting.Unstalled) st.issue_pending;
    st.issue_pending <- 0
  end

(* Attribute what follows to function [name]. *)
let set_func st name =
  flush_issue st;
  st.cur_func <- name

(* Bring [c.useful_ops] and the accounting up to date (see [fuel_mark]
   and [issue_pending]). *)
let settle st =
  flush_issue st;
  st.c.useful_ops <-
    st.c.useful_ops + (st.fuel_mark - st.fuel) - (st.c.squashed_ops - st.squashed_mark);
  st.fuel_mark <- st.fuel;
  st.squashed_mark <- st.c.squashed_ops

(* Advance the clock — a no-op in a warm phase, where time is frozen and
   the (suppressed) charges would have accounted for it.  Every charge
   site pairs with an [advance], so warm phases contribute no cycles. *)
let advance st n = if not st.warm then st.cycle <- st.cycle + n

(* Emit a trace event (free when tracing is disabled, the default). *)
let emit st kind addr =
  match st.trace with
  | None -> ()
  | Some tr ->
      Epic_obs.Trace.record tr ~cycle:st.cycle ~kind ~func:st.cur_func ~addr

(* An event at the data address held in [scratch] (see [word_of]), boxed
   only when tracing is on. *)
let[@inline] emit_data st kind =
  match st.trace with None -> () | Some _ -> emit st kind (get64 st.scratch 8)

(* An event at code address [a], boxed only when tracing is on. *)
let[@inline] emit_code st kind a =
  match st.trace with None -> () | Some _ -> emit st kind (Int64.of_int a)

(* Attribute the sample points in the cycle interval since the last tick to
   the current function and block (the running frame's, "entry" before
   the first call and after the last return).  Inlined to its test, so a
   run without the profiler makes no call. *)
let sample_at st p =
  let block =
    if st.in_intrinsic then "<intrinsic>"
    else if st.depth = 0 then "entry"
    else
      let fr = st.stack.(st.depth - 1) in
      fr.df.df_blocks.(fr.bi).db_label
  in
  Epic_obs.Profile.tick p ~cycle:st.cycle ~func:st.cur_func ~block

let[@inline] sample_tick st = match st.prof with None -> () | Some p -> sample_at st p

(* Scoreboard: wait for a register whose value is not ready yet, charging
   the wait to its reason's category.  Integer, branch and predicate
   registers share the integer bank's ready slots.  Nothing waits in a warm
   phase, where the clock is frozen. *)
let stall_wait st (ready : int array) (reasons : reason array) id =
  let r = Array.unsafe_get ready id in
  let cat =
    match Array.unsafe_get reasons id with
    | Rload -> Accounting.Int_load_bubble
    | Rfload -> Accounting.Float_scoreboard
    | Rlong -> Accounting.Misc
  in
  charge st cat (r - st.cycle);
  st.cycle <- r

let[@inline] stall_i st fr id =
  if Array.unsafe_get fr.iready id > st.cycle && not st.warm then
    stall_wait st fr.iready fr.ireason id

let[@inline] stall_f st fr id =
  if Array.unsafe_get fr.fready id > st.cycle && not st.warm then
    stall_wait st fr.fready fr.freason id

(* Mark a destination not ready for [extra] cycles ([r] encodes the bank:
   [-1 - id] for a float register).  Detail only: a ready time computed
   against a frozen clock would be meaningless in the next phase. *)
let mark_ready st fr r extra reason =
  if st.warm then ()
  else if r < 0 then begin
    Array.unsafe_set fr.fready (-1 - r) (st.cycle + extra);
    Array.unsafe_set fr.freason (-1 - r) reason
  end
  else begin
    Array.unsafe_set fr.iready r (st.cycle + extra);
    Array.unsafe_set fr.ireason r reason
  end

(* --- memory hierarchy ---------------------------------------------------- *)

(* The hierarchy is reached with word addresses: an address shifted right
   logically by 2.  Every line and page is at least 4 bytes, so a word
   address carries every bit of a line or page number, is non-negative
   and fits an OCaml int exactly: a load or store computes it unboxed in
   its closure and no [Int64] box crosses into the hierarchy.  A data
   access keeps its full address in [scratch] at byte 8 for the rare paths
   that need it (a DTLB walk's classification, a traced event); a code
   address is a small native int. *)
let[@inline] word_of (addr : int64) = Int64.to_int (Int64.shift_right_logical addr 2)

(* A cache's line number and the TLB's page number of word address [w]
   (as in [Cache.line_of] and [Tlb.page_of] of the address). *)
let[@inline] line_of (c : Cache.t) w = w lsr (c.Cache.line_bits - 2)
let[@inline] page_of w = w lsr (Memimage.page_bits - 2)

(* The inlined hit paths (DESIGN.md §10).  The dev build compiles with
   -opaque, so a call into [Cache] or [Tlb] is an unknown call; the common
   case is decided here and makes exactly the update the model's own
   function would.  Every access of every cache, detailed and warm, goes
   through [cache_line]: a line that its hinted way holds is a hit there
   (a line sits in at most one way, and the last line accessed is always
   its slot's hint, so a repeat is such a hit); anything else is
   [Cache.access_line]'s.  A hint is always an index in [tags]. *)
let[@inline] cache_line (c : Cache.t) line =
  let way = Array.unsafe_get c.Cache.hint (line land (Array.length c.Cache.hint - 1)) in
  if Array.unsafe_get c.Cache.tags way = line then begin
    c.Cache.accesses <- c.Cache.accesses + 1;
    let clock = c.Cache.clock + 1 in
    c.Cache.clock <- clock;
    Array.unsafe_set c.Cache.age way clock;
    true
  end
  else Cache.access_line c line

(* The DTLB lookup of a page: [Tlb.lookup_page]'s first step, the page's
   hint verified against [pages], made here; a stale or missing hint is
   [Tlb.lookup_page]'s, whose scan also finds the LRU entry for a fill. *)
let[@inline] tlb_page (t : Tlb.t) page =
  let e = Array.unsafe_get t.Tlb.hint (page land (Array.length t.Tlb.hint - 1)) in
  if e < t.Tlb.entries && Array.unsafe_get t.Tlb.pages e = page then begin
    t.Tlb.accesses <- t.Tlb.accesses + 1;
    let clock = t.Tlb.clock + 1 in
    t.Tlb.clock <- clock;
    Array.unsafe_set t.Tlb.age e clock;
    true
  end
  else Tlb.lookup_page t page

(* An access of the L2 or the L3 at word address [w]: true on a hit. *)
let[@inline] l2_access st w = cache_line st.l2 (line_of st.l2 w)
let[@inline] l3_access st w = cache_line st.l3 (line_of st.l3 w)

(* Penalty cycles beyond the planned latency for the data access at word
   address [w] (its address in [scratch]): of a floating-point access,
   and of an integer access that missed the L1D, out of line. *)
let float_extra st w =
  (* Itanium 2 keeps no FP data in L1D; FP loads are served from L2, and
     the compiler plans [float_load_latency] already *)
  let d = st.desc in
  if l2_access st w then 0
  else begin
    emit_data st Epic_obs.Trace.L2_miss;
    if l3_access st w then
      let e = d.Machine_desc.l3_latency - d.Machine_desc.float_load_latency in
      if e > 0 then e else 0
    else d.Machine_desc.mem_latency - d.Machine_desc.float_load_latency
  end

let l1d_miss st w =
  emit_data st Epic_obs.Trace.L1d_miss;
  let d = st.desc in
  if l2_access st w then d.Machine_desc.l2_latency - 1
  else begin
    emit_data st Epic_obs.Trace.L2_miss;
    if l3_access st w then d.Machine_desc.l3_latency - 1
    else d.Machine_desc.mem_latency
  end

(* The penalty of an integer access: an L1D hit, decided inline, has
   none. *)
let[@inline] l1d_extra st w = if cache_line st.l1d (line_of st.l1d w) then 0 else l1d_miss st w

(* Warm-phase cache update: keeps the hierarchy's contents and LRU state
   current without timing, behind the direct-mapped line filters ([line]
   is [w]'s line in the first level probed). *)
let warm_fill_l2 st line w = if not (cache_line st.l2 line) then ignore (l3_access st w)
let warm_fill_l1d st line w = if not (cache_line st.l1d line) then warm_fill_l2 st (line_of st.l2 w) w

let[@inline] dcache_warm st w ~(is_float : bool) =
  if is_float then begin
    let line = line_of st.l2 w in
    let slot = line land (warm_filter_size - 1) in
    if Array.unsafe_get st.warm_l2_lines slot <> line then begin
      Array.unsafe_set st.warm_l2_lines slot line;
      warm_fill_l2 st line w
    end
  end
  else begin
    let line = line_of st.l1d w in
    let slot = line land (warm_filter_size - 1) in
    if Array.unsafe_get st.warm_l1d_lines slot <> line then begin
      Array.unsafe_set st.warm_l1d_lines slot line;
      warm_fill_l1d st line w
    end
  end

(* A data access's cache work: timed in detail (the penalty), a filtered
   warming probe (no penalty) in a warm phase. *)
let[@inline] dcache st w ~is_float =
  if st.warm then (dcache_warm st w ~is_float; 0)
  else if is_float then float_extra st w
  else l1d_extra st w

(* The fetch penalty of the chunk at code address [a], [line] its L1I
   line. *)
let[@inline] icache_penalty st (a : int) line =
  if cache_line st.l1i line then 0
  else begin
    emit_code st Epic_obs.Trace.L1i_miss a;
    let d = st.desc in
    if l2_access st (a lsr 2) then d.Machine_desc.l2_latency
    else begin
      emit_code st Epic_obs.Trace.L2_miss a;
      if l3_access st (a lsr 2) then d.Machine_desc.l3_latency
      else d.Machine_desc.mem_latency
    end
  end

(* A DTLB miss of [page] (the page of the address in [scratch]) under
   speculation policy [spec]: the address, read back, is classified, and
   the access walks and fills, defers or faults; [false] means it defers
   (the destination gets NaT).  A warm phase charges nothing. *)
let translate_walk st page (spec : Opcode.spec_kind) =
  let addr = get64 st.scratch 8 in
  match Memimage.classify st.mem addr with
  | Memimage.Ok -> (
      match spec with
      | Opcode.Spec_sentinel ->
          (* early deferral: a DTLB miss defers rather than walking; the
             chk's recovery will perform the real access *)
          emit st Epic_obs.Trace.Nat_deferral addr;
          false
      | Opcode.Nonspec | Opcode.Spec_general | Opcode.Spec_advanced ->
          (* the victim is the one the missed lookup's scan found *)
          Tlb.fill_page st.dtlb page;
          emit st Epic_obs.Trace.Dtlb_walk addr;
          charge st Accounting.Micropipe st.desc.Machine_desc.vhpt_walk_cycles;
          advance st st.desc.Machine_desc.vhpt_walk_cycles;
          true)
  | acc ->
      Option.iter (fun m -> raise (Machine_fault m)) (Isa.access_fault spec acc addr);
      if Isa.wild_load spec acc then begin
        (* failed walk + uncached page-table query (kernel) *)
        emit st Epic_obs.Trace.Wild_load addr;
        st.c.wild_loads <- st.c.wild_loads + 1;
        st.c.kernel_ops <- st.c.kernel_ops + (st.desc.Machine_desc.wild_walk_cycles / 4);
        charge st Accounting.Kernel st.desc.Machine_desc.wild_walk_cycles;
        advance st st.desc.Machine_desc.wild_walk_cycles
      end
      else begin
        emit st Epic_obs.Trace.Nat_deferral addr;
        if acc = Memimage.Null_page then begin
          (* architected NaT page: cheap *)
          charge st Accounting.Micropipe st.desc.Machine_desc.nat_page_cycles;
          advance st st.desc.Machine_desc.nat_page_cycles
        end
      end;
      false

(* Translate the data access at word address [w], its address in
   [scratch], under speculation policy [spec]; [false] means the access
   defers.  A DTLB hit is decided here; a warm phase probes through the
   page filter, and a filter hit means the page was warmed recently, which
   skips the lookup entirely. *)
let[@inline] translate st w spec =
  let page = page_of w in
  let slot = page land (warm_filter_size - 1) in
  if st.warm && Array.unsafe_get st.warm_tlb_pages slot = page then true
  else if tlb_page st.dtlb page then begin
    if st.warm then Array.unsafe_set st.warm_tlb_pages slot page;
    true
  end
  else translate_walk st page spec

(* A translated load of [bytes] into [dst] at byte offset [o], or a store
   of the value at [scratch] byte 0, of the address in [scratch] at byte
   8: one [Memimage] call each, probing the page-handle cache and
   performing the access.  A translated page is mapped, so they classify
   it [Ok]; anything else falls back to the image's accesses that map on
   demand.  [load_into] is an integer load's slow path, out of line. *)
let load_into st bytes dst o =
  match Memimage.load_at st.mem st.scratch 8 bytes dst o with
  | Memimage.Ok -> ()
  | Memimage.Unmapped | Memimage.Null_page ->
      Memimage.read_into st.mem (get64 st.scratch 8) bytes dst o

let[@inline] store_scratch st bytes =
  match Memimage.store_at st.mem st.scratch 8 bytes st.scratch 0 with
  | Memimage.Ok -> ()
  | Memimage.Unmapped | Memimage.Null_page ->
      Memimage.write st.mem (get64 st.scratch 8) bytes (get64 st.scratch 0)

(* A store's timing at word address [w]: it drains the store buffer and,
   on a cache miss, queues work there; past 24 cycles of backlog the
   pipeline stalls.  An L1D hit is decided inline, the miss out of line.
   A warm phase only probes the cache, behind the line filter. *)
let store_miss st w =
  if l1d_miss st w > 0 then begin
    st.sb_work <- st.sb_work + 3;
    if st.sb_work > 24 then begin
      let over = st.sb_work - 24 in
      charge st Accounting.Micropipe over;
      advance st over;
      st.sb_work <- 24
    end
  end

let[@inline] store_timing st w =
  if st.warm then dcache_warm st w ~is_float:false
  else begin
    let work = st.sb_work - (st.cycle - st.sb_last_cycle) in
    st.sb_work <- (if work > 0 then work else 0);
    st.sb_last_cycle <- st.cycle;
    if not (cache_line st.l1d (line_of st.l1d w)) then store_miss st w
  end

(* --- operands and registers ------------------------------------------------ *)

(* A decoded source operand of a load, a store, a check or an indirect
   call, read in integer context: [Ri] reads the integer bank (value and
   NaT), [Rf] converts a float register, [Rb] takes a float register's
   bits (store data), [Rp] a predicate as 0/1 ([Rp0] = p0, always 1), [K]
   a constant (immediates, resolved symbol addresses, labels).  [Kerr] is
   a symbol that did not resolve: reading it raises, as resolving it at
   run time would. *)
type src = Ri of int | Rf of int | Rb of int | Rp of int | Rp0 | K of int64 | Kerr of string

(* Read an integer-context operand, waiting on its register; the NaT bit
   lands in [st.onat].  Inlined, so the value stays unboxed. *)
let[@inline] rd_i st fr s =
  match s with
  | Ri id ->
      stall_i st fr id;
      st.onat <- Array.unsafe_get fr.regs.inat id;
      get64 fr.regs.ints (id lsl 3)
  | Rf id ->
      stall_f st fr id;
      st.onat <- Array.unsafe_get fr.regs.fnat id;
      Int64.of_float (Array.unsafe_get fr.regs.flts id)
  | Rb id ->
      stall_f st fr id;
      st.onat <- Array.unsafe_get fr.regs.fnat id;
      Int64.bits_of_float (Array.unsafe_get fr.regs.flts id)
  | Rp id ->
      stall_i st fr id;
      st.onat <- false;
      if Array.unsafe_get fr.regs.prds id then 1L else 0L
  | Rp0 ->
      stall_i st fr 0;
      st.onat <- false;
      1L
  | K v ->
      st.onat <- false;
      v
  | Kerr msg -> invalid_arg msg

(* A write to r0 is dropped (an {!Isa} op writes [r0_sink] instead). *)
let[@inline] wr_i fr id v n =
  if id <> 0 then begin
    set64 fr.regs.ints (id lsl 3) v;
    Array.unsafe_set fr.regs.inat id n
  end

(* A float register write and its NaT bit (checked: a float op's
   destination need not be a float register). *)
let[@inline] wr_f fr id v n =
  fr.regs.flts.(id) <- v;
  fr.regs.fnat.(id) <- n

(* --- intrinsics ---------------------------------------------------------- *)

(* Run an intrinsic ({!Intrinsics.call}) on arguments [args], read in
   integer context; its result (if any) is written to [binds] as a call's
   results are, the rest read 0.  The machine adds the timing: the base
   cost, and the cache traffic of memcpy and memset. *)
let do_intrinsic st fr (k : Intrinsics.kind) (pseudo : string) args (binds : Isa.dst array) =
  let n = min (Array.length args) (Intrinsics.arity k) in
  Isa.int_args fr.regs args st.xv st.xn n;
  let caller = st.cur_func in
  (* settle samples owed to the caller before entering the pseudo-function *)
  sample_tick st;
  set_func st pseudo;
  st.in_intrinsic <- true;
  let cost = Intrinsics.base_cost k in
  charge st Accounting.Unstalled cost;
  advance st cost;
  st.c.nat_consumed <- st.c.nat_consumed + Intrinsics.nat_args k st.xn n;
  Intrinsics.call st.rt st.mem k st.xv st.xn n;
  (match k with
  | Intrinsics.Memcpy | Intrinsics.Memset ->
      (* per 64-byte line: the source's access (memcpy), then the target's *)
      let arg j = Intrinsics.arg st.xv st.xn n j in
      for i = 0 to max 1 (Int64.to_int (arg 2) / 64) - 1 do
        let line a =
          let a = Int64.add a (Int64.of_int (i * 64)) in
          set64 st.scratch 8 a;
          l1d_extra st (word_of a)
        in
        let src = if k = Intrinsics.Memcpy then line (arg 1) else 0 in
        let e = (src + line (arg 0)) / 4 in
        charge st Accounting.Unstalled (1 + e);
        advance st (1 + e)
      done
  | _ -> ());
  (* attribute the intrinsic's cycles to the pseudo-function, matching the
     per-function accounting bins *)
  sample_tick st;
  set_func st caller;
  st.in_intrinsic <- false;
  for j = 0 to Array.length binds - 1 do
    Isa.write_int fr.regs binds.(j) (if j < Intrinsics.results k then get64 st.xv 0 else 0L)
  done

(* --- decode ---------------------------------------------------------------
   Every instruction becomes one op.  An op never reads the sampling phase:
   the timing primitives it calls (stalls, ready marks, cache probes,
   charges) follow the live phase themselves.  Malformed instructions
   decode to ops that fault when they execute, behind their qualifying
   predicate. *)

let fault msg : op = fun _ -> raise (Machine_fault msg)

(* Decode-time context of one function. *)
type dctx = {
  x_st : t;
  x_label : string -> int option; (* first block bearing a label *)
}

(* A symbol's address; [Invalid_argument] when it does not resolve. *)
let sym_address st (s : string) =
  match Hashtbl.find_opt st.syms s with
  | Some a -> a
  | None ->
      let a =
        match Program.find_global st.program s with
        | Some g -> g.Program.address
        | None -> Program.func_address st.program s
      in
      Hashtbl.add st.syms s a;
      a

(* Integer-context and value-context (bits) operands. *)
let src_i x (o : Operand.t) =
  match o with
  | Operand.Reg r -> (
      match r.Reg.cls with
      | Reg.Flt -> Rf r.Reg.id
      | Reg.Prd -> if r.Reg.id = 0 then Rp0 else Rp r.Reg.id
      | _ -> Ri r.Reg.id)
  | Operand.Imm i -> K i
  | Operand.Fimm f -> K (Int64.of_float f)
  | Operand.Label _ -> K 0L
  | Operand.Sym s -> ( try K (sym_address x.x_st s) with Invalid_argument msg -> Kerr msg)

let src_v x (o : Operand.t) =
  match o with
  | Operand.Reg r when r.Reg.cls = Reg.Flt -> Rb r.Reg.id
  | Operand.Fimm f -> K (Int64.bits_of_float f)
  | _ -> src_i x o

let reg_code (r : Reg.t) = if r.Reg.cls = Reg.Flt then -1 - r.Reg.id else r.Reg.id

(* The {!Isa} view of an operand: registers by id.  A symbol that does not
   resolve raises [Invalid_argument]. *)
let isa_opnd x (o : Operand.t) : Isa.opnd =
  match o with
  | Operand.Reg r -> (
      match r.Reg.cls with
      | Reg.Flt -> Isa.Flt r.Reg.id
      | Reg.Prd -> Isa.Prd r.Reg.id
      | _ -> Isa.Int r.Reg.id)
  | Operand.Imm i -> Isa.Imm i
  | Operand.Fimm f -> Isa.Fimm f
  | Operand.Label _ -> Isa.Imm 0L
  | Operand.Sym s -> Isa.Imm (sym_address x.x_st s)

let isa_dst (r : Reg.t) : Isa.dst =
  match r.Reg.cls with
  | Reg.Flt -> Isa.Dflt r.Reg.id
  | Reg.Prd -> Isa.Dprd (if r.Reg.id = 0 then p0_sink else r.Reg.id)
  | _ -> Isa.Dint (if r.Reg.id = 0 then r0_sink else r.Reg.id)

(* What a source waits for: its register as in [reg_code], or nothing. *)
let no_wait = min_int
let wait_code (o : Operand.t) = match o with Operand.Reg r -> reg_code r | _ -> no_wait

let[@inline] wait st fr w =
  if w >= 0 then stall_i st fr w else if w <> no_wait then stall_f st fr (-1 - w)

(* [body] on the frame's bank after waiting for [w1] then [w2]; when
   neither is a float register the wait needs no dispatch. *)
let timed st w1 w2 (body : Isa.op) : op =
  if w1 = no_wait && w2 = no_wait then fun fr -> body fr.regs
  else if w1 >= 0 && w2 >= 0 then fun fr ->
    stall_i st fr w1;
    stall_i st fr w2;
    body fr.regs
  else if w1 >= 0 && w2 = no_wait then fun fr ->
    stall_i st fr w1;
    body fr.regs
  else if w1 = no_wait && w2 >= 0 then fun fr ->
    stall_i st fr w2;
    body fr.regs
  else fun fr ->
    wait st fr w1;
    wait st fr w2;
    body fr.regs

(* A register id fits its bank (integer-bank state backs the predicate
   and branch registers too). *)
let reg_fits (r : Reg.t) =
  r.Reg.id >= 0
  &&
  match r.Reg.cls with
  | Reg.Flt -> r.Reg.id < Reg.num_flt
  | Reg.Prd -> r.Reg.id < Reg.num_prd && r.Reg.id < Reg.num_int
  | _ -> r.Reg.id < Reg.num_int

(* Every register id an instruction names fits its bank. *)
let regs_fit (i : Instr.t) =
  (match i.Instr.pred with Some p -> reg_fits p | None -> true)
  && List.for_all reg_fits i.Instr.dsts
  && List.for_all (function Operand.Reg r -> reg_fits r | _ -> true) i.Instr.srcs

(* A branch's squash: the predictor still sees it, and a misprediction
   still flushes. *)
let branch_squash st (bid : int) : op =
  let bid64 = Int64.of_int bid in
  fun _ ->
  st.c.squashed_ops <- st.c.squashed_ops + 1;
  st.c.branches <- st.c.branches + 1;
  if not (Branch_pred.predict_and_update st.bp bid false) then begin
    emit st Epic_obs.Trace.Br_mispredict bid64;
    charge st Accounting.Br_mispredict st.desc.Machine_desc.branch_mispredict_penalty;
    advance st st.desc.Machine_desc.branch_mispredict_penalty
  end

let plain_squash st : op = fun _ -> st.c.squashed_ops <- st.c.squashed_ops + 1

(* The guard value of predicate [p], stalling on it. *)
let[@inline] guard_value st fr pid =
  stall_i st fr pid;
  fr.regs.prds.(pid)

(* Wrap [body] with the instruction's qualifying predicate: a false guard
   squashes the op. *)
let guarded st (i : Instr.t) (body : op) : op =
  match i.Instr.pred with
  | None -> body
  | Some p ->
      let pid = p.Reg.id in
      let squash =
        match i.Instr.op with
        | Opcode.Br -> branch_squash st i.Instr.id
        | _ -> plain_squash st
      in
      fun fr -> if guard_value st fr pid then body fr else squash fr

(* A compare: {!Isa.cmp} behind its guard, which it applies itself (unc
   clears both targets under a false guard), so a compare never counts as
   squashed.  Under a true guard it waits for its sources, the second
   first. *)
let decode_cmp x (i : Instr.t) (pt : Reg.t) (pf : Reg.t) a b : op =
  let st = x.x_st in
  let slot (p : Reg.t) = if p.Reg.id = 0 then p0_sink else p.Reg.id in
  let gid = match i.Instr.pred with None -> -1 | Some p -> p.Reg.id in
  let g = if gid <= 0 then Isa.Always else Isa.If gid in
  let body = Isa.cmp i.Instr.op g (slot pt) (slot pf) (isa_opnd x a) (isa_opnd x b) in
  let run = timed st (wait_code b) (wait_code a) body in
  if gid < 0 then run else fun fr -> if guard_value st fr gid then run fr else body fr.regs

(* An {!Isa} ALU op [d := a op b], after waiting for [a] then [b].  A
   divide's result is ready 4 cycles late unless a source is NaT, an
   fdiv's 8 cycles late. *)
let decode_alu x (i : Instr.t) (d : Reg.t) a b : op =
  let st = x.x_st in
  let wa = wait_code a and wb = wait_code b and dcode = reg_code d in
  let a = isa_opnd x a and b = isa_opnd x b and d = isa_dst d in
  match i.Instr.op with
  | Opcode.Div | Opcode.Rem ->
      let body = Isa.alu i.Instr.op ~spec:i.Instr.attrs.Instr.speculated d a b in
      fun fr ->
        wait st fr wa;
        wait st fr wb;
        let clean = not (Isa.is_nat fr.regs a || Isa.is_nat fr.regs b) in
        body fr.regs;
        if clean then mark_ready st fr dcode 4 Rlong
  | Opcode.Fdiv ->
      let body = Isa.falu Opcode.Fdiv d a b in
      fun fr ->
        wait st fr wa;
        wait st fr wb;
        body fr.regs;
        mark_ready st fr dcode 8 Rfload
  | op -> timed st wa wb (if Opcode.is_float op then Isa.falu op d a b else Isa.alu op ~spec:false d a b)

(* The memory read of an integer load (DESIGN.md §10), decided inline on
   the image's page-handle cache as [Interp]'s loads decide theirs:
   [hit_slot] is the slot of the page holding all [size] bytes at [addr],
   or -1 — page 0 (the NaT page, which only the slow path classifies), a
   page not in the cache, or an access over the page's edge.  The index is
   a logical shift of the whole address: one taken from [Int64.to_int]
   would drop bit 63 and alias a low page. *)
let[@inline] hit_slot hidx addr size =
  let idx = Int64.to_int (Int64.shift_right_logical addr Memimage.page_bits) in
  let slot = idx land (Array.length hidx - 1) in
  if
    idx <> 0
    && Array.unsafe_get hidx slot = idx
    && (Int64.to_int addr land (Memimage.page_size - 1)) + size <= Memimage.page_size
  then slot
  else -1

(* [size] bytes at offset [off] of page [p], as [Memimage] reads them: 4
   bytes sign-extend, 1 byte zero-extends. *)
let[@inline] read_hit p off size =
  if size = 8 then Bytes.get_int64_le p off
  else if size = 4 then Int64.of_int32 (Bytes.get_int32_le p off)
  else Int64.of_int (Bytes.get_uint8 p off)

(* A load of [size] bytes into register [d] ([did] its slot in its bank,
   [dcode] as in [reg_code]), inlined into one closure per register class,
   and an integer load's into one per [adv], so [is_float] and [adv] are
   constants in it.  The address stays unboxed: the hierarchy takes its word address,
   the rare paths read it back from [scratch].  The DTLB hit, the L1D hit
   and an integer load's memory read are decided in the closure, the rest
   out of line.  An integer load goes straight into the register file; r0
   still performs the access, into [r0_sink]. *)
let[@inline] load st fr a ~nonspec ~adv spec key did dcode ~is_float size hidx hpage =
  if not nonspec then st.c.spec_loads <- st.c.spec_loads + 1;
  let addr = rd_i st fr a in
  let na = st.onat in
  let w = word_of addr in
  set64 st.scratch 8 addr;
  if not nonspec then emit_data st Epic_obs.Trace.Spec_load;
  if na || not (translate st w spec) then begin
    (* a NaT address propagates its deferral; a deferred access defers *)
    if na && nonspec then st.c.nat_consumed <- st.c.nat_consumed + 1;
    if is_float then wr_f fr did 0. true else wr_i fr did 0L true
  end
  else begin
    if adv then Isa.Alat.insert fr.regs.alat key (Int64.to_int addr) size;
    let extra = dcache st w ~is_float in
    if is_float then begin
      load_into st size st.scratch 0;
      wr_f fr did (Int64.float_of_bits (get64 st.scratch 0)) false;
      if extra > 0 then mark_ready st fr dcode extra Rfload
    end
    else begin
      let slot = hit_slot hidx addr size in
      if slot < 0 then load_into st size fr.regs.ints (did lsl 3)
      else
        set64 fr.regs.ints (did lsl 3)
          (read_hit (Array.unsafe_get hpage slot)
             (Int64.to_int addr land (Memimage.page_size - 1))
             size);
      Array.unsafe_set fr.regs.inat did false;
      if extra > 0 then mark_ready st fr dcode extra Rload
    end
  end

let decode_load x (sz : Opcode.size) (spec : Opcode.spec_kind) (d : Reg.t) a : op =
  let st = x.x_st in
  let a = src_i x a in
  let bytes = Opcode.size_bytes sz in
  let adv = spec = Opcode.Spec_advanced in
  let nonspec = spec = Opcode.Nonspec in
  let dcode = reg_code d and key = Isa.Alat.key d.Reg.cls d.Reg.id in
  let hidx = st.mem.Memimage.hidx and hpage = st.mem.Memimage.hpage in
  if d.Reg.cls = Reg.Flt then fun fr ->
    load st fr a ~nonspec ~adv spec key d.Reg.id dcode ~is_float:true bytes hidx hpage
  else
    let did = if d.Reg.id = 0 then r0_sink else d.Reg.id in
    if adv then fun fr ->
      load st fr a ~nonspec ~adv:true spec key did dcode ~is_float:false bytes hidx hpage
    else fun fr -> load st fr a ~nonspec ~adv:false spec key did dcode ~is_float:false bytes hidx hpage

let decode_store x (sz : Opcode.size) a v : op =
  let st = x.x_st in
  let a = src_i x a and v = src_v x v in
  let bytes = Opcode.size_bytes sz in
  fun fr ->
    let addr = rd_i st fr a in
    let na = st.onat in
    let data = rd_i st fr v in
    if na || st.onat then begin
      st.c.nat_consumed <- st.c.nat_consumed + 1;
      charge st Accounting.Misc 2;
      advance st 2
    end
    else begin
      let w = word_of addr in
      set64 st.scratch 8 addr;
      (* a non-speculative translation succeeds or faults *)
      ignore (translate st w Opcode.Nonspec);
      if fr.regs.alat.Isa.Alat.count > 0 then Isa.Alat.snoop fr.regs.alat (Int64.to_int addr) bytes;
      set64 st.scratch 0 data;
      store_scratch st bytes;
      store_timing st w
    end

(* chk.s / chk.a: when the checked register is deferred (a NaT, or no ALAT
   entry) redirect the pipeline and recover ({!Isa.recover}). *)
let decode_check x (sz : Opcode.size) (r : Reg.t) a ~(alat : bool) : op =
  let st = x.x_st in
  let a = src_i x a in
  let rid = r.Reg.id and rflt = r.Reg.cls = Reg.Flt and rcode = reg_code r in
  let key = Isa.Alat.key r.Reg.cls rid in
  let bytes = Opcode.size_bytes sz in
  fun fr ->
    if rflt then stall_f st fr rid else stall_i st fr rid;
    let deferred =
      if alat then not (Isa.Alat.mem fr.regs.alat key) else if rflt then fr.regs.fnat.(rid) else fr.regs.inat.(rid)
    in
    if deferred then begin
      st.c.chk_recoveries <- st.c.chk_recoveries + 1;
      charge st Accounting.Misc st.desc.Machine_desc.chk_recovery_penalty;
      advance st st.desc.Machine_desc.chk_recovery_penalty;
      let addr = Sys.opaque_identity (rd_i st fr a) in
      emit st Epic_obs.Trace.Chk_recovery addr;
      match Isa.recover st.mem ~nat:st.onat addr ~size:bytes st.scratch 0 with
      | Isa.Reloaded ->
          (* the timing of the non-speculative access, which cannot fault now *)
          let w = word_of addr in
          set64 st.scratch 8 addr;
          ignore (translate st w Opcode.Nonspec);
          let extra = dcache st w ~is_float:rflt in
          if rflt then wr_f fr rid (Int64.float_of_bits (get64 st.scratch 0)) false
          else wr_i fr rid (get64 st.scratch 0) false;
          if extra > 0 then mark_ready st fr rcode extra Rload
      | Isa.Nat_address ->
          st.c.nat_consumed <- st.c.nat_consumed + 1;
          if rflt then wr_f fr rid 0. true else wr_i fr rid 0L true
      | Isa.Recovery_fault m -> raise (Machine_fault m)
    end

let decode_branch x (i : Instr.t) (l : string) : op =
  let st = x.x_st in
  let bid = i.Instr.id in
  let bid64 = Int64.of_int bid in
  let target = match x.x_label l with Some bi -> ctl_jump + bi | None -> -1 in
  let conditional = i.Instr.pred <> None in
  fun _ ->
    st.c.branches <- st.c.branches + 1;
    if not conditional then Branch_pred.record_unconditional st.bp
    else if not (Branch_pred.predict_and_update st.bp bid true) then begin
      emit st Epic_obs.Trace.Br_mispredict bid64;
      charge st Accounting.Br_mispredict st.desc.Machine_desc.branch_mispredict_penalty;
      advance st st.desc.Machine_desc.branch_mispredict_penalty
    end;
    if target < 0 then raise (Machine_fault ("branch to unknown label " ^ l));
    st.ctl <- target

(* Wait for the registers of [ws] (as in [wait_code]), in order: a call's
   arguments or a return's values. *)
let[@inline] wait_all st fr (ws : int array) =
  for j = 0 to Array.length ws - 1 do
    wait st fr (Array.unsafe_get ws j)
  done

(* The operands a call or return binds ([vals]), and the registers they
   wait for. *)
let decode_vals x (os : Operand.t list) =
  (Array.of_list (List.map (isa_opnd x) os), Array.of_list (List.map wait_code os))

(* br.call: wait for the arguments, then the target — a direct function
   slot, bound by [push_call], an intrinsic run in place, or a function
   pointer looked up by code address. *)
let decode_call x (i : Instr.t) : op =
  let st = x.x_st in
  match i.Instr.srcs with
  | [] -> fault (Isa.malformed i)
  | target :: args ->
      let args, waits = decode_vals x args in
      let binds = Array.of_list (List.map isa_dst i.Instr.dsts) in
      let resolve : frame -> callee =
        match target with
        | Operand.Sym s ->
            let c = callee_of_name st.funcs s in
            fun _ -> c
        | Operand.Reg _ ->
            (* an integer-context read: a float register's value converts *)
            let s = src_i x target in
            fun fr ->
              let addr = rd_i st fr s in
              if st.onat then raise (Machine_fault "indirect call through NaT");
              let off = Int64.to_int (Int64.sub addr Program.code_base) in
              if off < 0 || off mod 64 <> 0 || off / 64 >= Array.length st.by_addr then
                raise (Machine_fault (Printf.sprintf "indirect call to 0x%Lx" addr))
              else st.by_addr.(off / 64)
        | _ -> fun _ -> raise (Machine_fault "bad call target")
      in
      fun fr ->
        st.c.branches <- st.c.branches + 1;
        st.c.calls <- st.c.calls + 1;
        Branch_pred.record_unconditional st.bp;
        wait_all st fr waits;
        let c = resolve fr in
        Isa.Alat.flush fr.regs.alat;
        match c with
        | Fn slot ->
            st.callee <- slot;
            st.vals <- args;
            st.ctl <- ctl_call
        | Intrinsic (k, pseudo) -> do_intrinsic st fr k pseudo args binds
        | Missing name -> ignore (Program.find_func_exn st.program name)

(* A return waits for its values; the caller's call binds them from the
   returning frame ([pop_return]). *)
let decode_ret x (i : Instr.t) : op =
  let st = x.x_st in
  let vals, waits = decode_vals x i.Instr.srcs in
  fun fr ->
    st.c.branches <- st.c.branches + 1;
    Branch_pred.record_unconditional st.bp;
    wait_all st fr waits;
    st.vals <- vals;
    st.ctl <- ctl_ret

(* An instruction's op before its qualifying predicate (compares, which
   apply their guard themselves, are decoded whole by [decode_instr]). *)
let decode_body x (i : Instr.t) : op =
  let st = x.x_st in
  match (i.Instr.op, i.Instr.dsts, i.Instr.srcs) with
  | ( ( Opcode.Add | Opcode.Sub | Opcode.Mul | Opcode.Div | Opcode.Rem | Opcode.And
      | Opcode.Or | Opcode.Xor | Opcode.Shl | Opcode.Shr | Opcode.Sra | Opcode.Lea | Opcode.Fadd
      | Opcode.Fsub | Opcode.Fmul | Opcode.Fdiv ),
      [ d ],
      [ a; b ] ) ->
      decode_alu x i d a b
  | (Opcode.Mov | Opcode.Sxt _ | Opcode.Cvt_fi | Opcode.Cvt_if | Opcode.Fneg), [ d ], [ a ] -> (
      match (i.Instr.op, isa_dst d, isa_opnd x a) with
      | Opcode.Mov, Isa.Dint d, Isa.Int a ->
          (* an integer register copy, the commonest op, inline: it
             converts nothing, and [Isa.move]'s copy behind [timed] ran
             the simulate deck ~3% slower *)
          fun fr ->
            stall_i st fr a;
            set64 fr.regs.ints (d lsl 3) (get64 fr.regs.ints (a lsl 3));
            Array.unsafe_set fr.regs.inat d (Array.unsafe_get fr.regs.inat a)
      | op, d, ia -> timed st (wait_code a) no_wait (Isa.move op d ia))
  | Opcode.Ld (sz, spec), [ d ], [ a ] -> decode_load x sz spec d a
  | Opcode.St sz, _, [ a; v ] -> decode_store x sz a v
  | Opcode.Chk sz, _, [ Operand.Reg r; a ] -> decode_check x sz r a ~alat:false
  | Opcode.Chka sz, _, [ Operand.Reg r; a ] -> decode_check x sz r a ~alat:true
  | Opcode.Br, _, [ Operand.Label l ] -> decode_branch x i l
  | Opcode.Br_call, _, _ -> decode_call x i
  | Opcode.Br_ret, _, _ -> decode_ret x i
  | (Opcode.Alloc | Opcode.Nop), _, _ -> fun _ -> ()
  | _ -> fault (Isa.malformed i)

(* A symbol that does not resolve raises when its instruction runs. *)
let decode_instr x (i : Instr.t) : op =
  if not (regs_fit i) then fun _ -> invalid_arg "index out of bounds"
  else
    try
      match (i.Instr.op, i.Instr.dsts, i.Instr.srcs) with
      | (Opcode.Cmp _ | Opcode.Fcmp _), [ pt; pf ], [ a; b ]
        when pt.Reg.cls = Reg.Prd && pf.Reg.cls = Reg.Prd ->
          decode_cmp x i pt pf a b
      | _ -> guarded x.x_st i (decode_body x i)
    with Invalid_argument msg -> guarded x.x_st i (fun _ -> invalid_arg msg)

(* Ops that may end their group's straight-line run. *)
let transfers (i : Instr.t) =
  match i.Instr.op with Opcode.Br | Opcode.Br_call | Opcode.Br_ret -> true | _ -> false

(* The span of registers [f] can touch (see [df_ispan]). *)
let span_scan (f : Func.t) =
  let ispan = ref (Reg.sp.Reg.id + 1) in
  let fspan = ref 0 in
  let pspan = ref 0 in
  let see (r : Reg.t) =
    match r.Reg.cls with
    | Reg.Flt -> if r.Reg.id >= !fspan then fspan := r.Reg.id + 1
    | Reg.Prd ->
        if r.Reg.id >= !pspan then pspan := r.Reg.id + 1;
        if r.Reg.id >= !ispan then ispan := r.Reg.id + 1
    | _ -> if r.Reg.id >= !ispan then ispan := r.Reg.id + 1
  in
  List.iter see f.Func.params;
  Func.iter_instrs f (fun (i : Instr.t) ->
      Option.iter see i.Instr.pred;
      List.iter see i.Instr.dsts;
      List.iter (function Operand.Reg r -> see r | _ -> ()) i.Instr.srcs);
  (min !ispan Reg.num_int, min !fspan Reg.num_flt, min !pspan Reg.num_prd)

let decode_func st (f : Func.t) =
  let blocks = Array.of_list f.Func.blocks in
  let n = Array.length blocks in
  let by_label = Hashtbl.create (max 8 (2 * n)) in
  Array.iteri
    (fun bi (b : Block.t) ->
      if not (Hashtbl.mem by_label b.Block.label) then Hashtbl.add by_label b.Block.label bi)
    blocks;
  let x = { x_st = st; x_label = Hashtbl.find_opt by_label } in
  let bpc = st.desc.Machine_desc.bundles_per_cycle in
  let decode_group (g : Layout.group) =
    let instrs = g.Layout.instrs in
    let rec pure n = function
      | i :: tl when not (transfers i) -> pure (n + 1) tl
      | _ -> n
    in
    (* fetch: one access per [bundles_per_cycle]-bundle chunk (32 bytes
       on itanium2) of the group's bundles; code addresses are small
       ([Program.code_base] on), so a native int holds them exactly *)
    {
      g_addr = Int64.to_int g.Layout.addr;
      g_chunks = max 1 ((g.Layout.n_bundles + bpc - 1) / bpc);
      g_nops = g.Layout.n_nops;
      g_ops = Array.of_list (List.map (decode_instr x) instrs);
      g_pure = pure 0 instrs;
      g_binds =
        Array.of_list
          (List.map
             (fun (i : Instr.t) ->
               match i.Instr.op with
               | Opcode.Br_call -> Array.of_list (List.map isa_dst i.Instr.dsts)
               | _ -> [||])
             instrs);
    }
  in
  let ispan, fspan, pspan = span_scan f in
  {
    df_func = f;
    df_name = f.Func.name;
    df_blocks =
      Array.mapi
        (fun bi (b : Block.t) ->
          let bl = Layout.block_layout st.layout f.Func.name b.Block.label in
          {
            db_label = b.Block.label;
            db_laid = bl <> None;
            db_fall = (if bi + 1 < n then bi + 1 else -1);
            db_groups =
              (match bl with
              | Some bl -> Array.map decode_group bl.Layout.groups
              | None -> [||]);
          })
        blocks;
    df_params = Array.of_list (List.map isa_dst f.Func.params);
    df_params_fit = List.for_all reg_fits f.Func.params;
    df_stacked = max 1 f.Func.n_stacked;
    df_ispan = ispan;
    df_fspan = fspan;
    df_pspan = pspan;
  }

let dfunc_of st slot =
  match st.decoded.(slot) with
  | Some df -> df
  | None ->
      let df = decode_func st st.funcs.(slot) in
      st.decoded.(slot) <- Some df;
      df

(* --- the frame stack -------------------------------------------------------- *)

(* Push a frame for [df].  A frame kept from an earlier call at this depth
   is cleared back to the all-zero state a fresh frame starts in — but only
   over the callee's register spans (every register it can read, write,
   stall on or mark ready lies inside them).  The reason arrays are only
   read under [ready > cycle], which a cleared ready time makes false. *)
let push_frame st df =
  let fr =
    if st.depth < st.nframes then begin
      let fr = st.stack.(st.depth) in
      fr.df <- df;
      (* plain loops: [Array.fill] is a runtime call that checks every slot
         for the write barrier *)
      Bytes.fill fr.regs.ints 0 (8 * df.df_ispan) '\000';
      for r = 0 to df.df_ispan - 1 do
        Array.unsafe_set fr.regs.inat r false;
        Array.unsafe_set fr.iready r 0
      done;
      for r = 0 to df.df_fspan - 1 do
        Array.unsafe_set fr.regs.flts r 0.;
        Array.unsafe_set fr.regs.fnat r false;
        Array.unsafe_set fr.fready r 0
      done;
      (* p0 is never written *)
      for r = 1 to df.df_pspan - 1 do
        Array.unsafe_set fr.regs.prds r false
      done;
      Isa.Alat.flush fr.regs.alat;
      fr
    end
    else begin
      let fr = fresh_frame df in
      if st.nframes = Array.length st.stack then
        st.stack <- Array.append st.stack (Array.make (max 16 st.nframes) fr);
      st.stack.(st.nframes) <- fr;
      st.nframes <- st.nframes + 1;
      fr
    end
  in
  st.depth <- st.depth + 1;
  fr

let enter_block fr bi =
  let db = fr.df.df_blocks.(bi) in
  if not db.db_laid then raise (Machine_fault ("no layout for block " ^ db.db_label));
  fr.bi <- bi;
  fr.gi <- 0;
  fr.k <- 0;
  db

(* Call [st.callee], binding its parameters to the arguments [st.vals]
   read in the caller's registers [caller]; the stack pointer is inherited
   from the caller. *)
let push_call st (caller : Isa.bank) =
  let df = dfunc_of st st.callee in
  charge st Accounting.Unstalled st.desc.Machine_desc.call_overhead;
  advance st st.desc.Machine_desc.call_overhead;
  (* RSE push *)
  let spill_cycles = Rse.on_call st.rse df.df_stacked in
  if spill_cycles > 0 then begin
    emit st Epic_obs.Trace.Rse_spill 0L;
    charge st Accounting.Rse spill_cycles;
    advance st spill_cycles
  end;
  (* settle samples owed to the caller before attribution switches *)
  sample_tick st;
  (* the unchecked register writes rely on in-range ids: a parameter that
     does not fit faults the call, as an instruction naming one does *)
  if not df.df_params_fit then invalid_arg "index out of bounds";
  let fr = push_frame st df in
  Isa.bind caller st.vals fr.regs df.df_params ~pad:false;
  let sp = Reg.sp.Reg.id lsl 3 in
  set64 fr.regs.ints sp (get64 caller.Isa.ints sp);
  set_func st df.df_name;
  (* an empty function faults on entry, as [Func.entry] does *)
  if Array.length df.df_blocks = 0 then ignore (Func.entry df.df_func);
  ignore (enter_block fr 0)

(* Pop the returning frame: attribution reverts to the caller, the return
   overhead and RSE refill are charged, and the caller's call binds the
   returned values [st.vals] from the popped frame, which stays alive past
   [depth]. *)
let pop_return st =
  (* settle samples owed to the callee before attribution reverts *)
  sample_tick st;
  st.depth <- st.depth - 1;
  set_func st (if st.depth > 0 then st.stack.(st.depth - 1).df.df_name else "main");
  charge st Accounting.Unstalled st.desc.Machine_desc.return_overhead;
  advance st st.desc.Machine_desc.return_overhead;
  let fill_cycles = Rse.on_return st.rse in
  if fill_cycles > 0 then begin
    emit st Epic_obs.Trace.Rse_fill 0L;
    charge st Accounting.Rse fill_cycles;
    advance st fill_cycles
  end;
  if st.depth > 0 then begin
    let caller = st.stack.(st.depth - 1) in
    let g = caller.df.df_blocks.(caller.bi).db_groups.(caller.gi) in
    Isa.bind st.stack.(st.depth).regs st.vals caller.regs g.g_binds.(caller.k - 1) ~pad:true
  end

(* --- sampling phase machine ---------------------------------------------- *)

(* Warm groups between flushes of the probe filters.  A filter hit skips
   the model probe, so the probed line's LRU recency is not refreshed;
   flushing every so often re-touches hot lines and keeps the cache/TLB
   models from drifting towards spurious evictions over a long warm
   phase. *)
let warm_flush_interval = 512

let warm_flush_filters st =
  for i = 0 to warm_filter_size - 1 do
    Array.unsafe_set st.warm_tlb_pages i (-1);
    Array.unsafe_set st.warm_l1d_lines i (-1);
    Array.unsafe_set st.warm_l2_lines i (-1);
    Array.unsafe_set st.warm_l1i_lines i (-1)
  done;
  st.warm_ttl <- warm_flush_interval

(* The phase switch, at the start of a group whose phase has run out: on
   entering a warm phase the close-out of the detail phase is recorded; on
   re-entering detail the accounting totals are snapshotted so the next
   close-out can compute its delta. *)
let sampling_step st (sa : Sampling.state) =
  if sa.Sampling.in_detail then begin
    flush_issue st;
    Sampling.record_phase sa st.acc ~len:sa.Sampling.phase_len;
    sa.Sampling.in_detail <- false;
    st.warm <- true;
    (* the warm probe filters are stale across phases *)
    warm_flush_filters st;
    let wlen = sa.Sampling.plan.Sampling.interval - sa.Sampling.plan.Sampling.detail in
    sa.Sampling.left <- wlen;
    sa.Sampling.phase_len <- wlen
  end
  else begin
    sa.Sampling.in_detail <- true;
    st.warm <- false;
    Sampling.resnap sa st.acc.Accounting.totals;
    sa.Sampling.left <- sa.Sampling.plan.Sampling.detail;
    sa.Sampling.phase_len <- sa.Sampling.plan.Sampling.detail
  end

(* --- checkpoint capture --------------------------------------------------- *)

let ck_frame_of (fr : frame) =
  {
    kf_func = fr.df.df_name;
    kf_blk = fr.bi;
    kf_gi = fr.gi;
    kf_op = fr.k;
    kf_regs = Isa.copy_bank fr.regs;
    kf_iready = Array.copy fr.iready;
    kf_ireason = Array.copy fr.ireason;
    kf_fready = Array.copy fr.fready;
    kf_freason = Array.copy fr.freason;
  }

(* Capture a checkpoint; fires once, at the start of a group.  Every piece
   of mutable state is deep-copied, so the snapshot is immune to the run
   continuing (and to any number of later resumes). *)
let save_checkpoint st =
  st.ck_at <- max_int;
  settle st;
  st.ck_saved <-
    Some
      {
        ck_desc_digest = Machine_desc.digest st.desc;
        ck_groups = st.c.groups;
        ck_cycle = st.cycle;
        ck_sb_work = st.sb_work;
        ck_sb_last_cycle = st.sb_last_cycle;
        ck_fuel = st.fuel;
        ck_heap = st.rt.Intrinsics.heap;
        ck_output = Buffer.contents st.rt.Intrinsics.output;
        ck_input = Array.copy st.rt.Intrinsics.input;
        ck_counters = { st.c with useful_ops = st.c.useful_ops };
        ck_mem = Memimage.copy st.mem;
        ck_l1i = Cache.copy st.l1i;
        ck_l1d = Cache.copy st.l1d;
        ck_l2 = Cache.copy st.l2;
        ck_l3 = Cache.copy st.l3;
        ck_dtlb = Tlb.copy st.dtlb;
        ck_bp = Branch_pred.copy st.bp;
        ck_rse = Rse.copy st.rse;
        ck_acc = Accounting.copy st.acc;
        ck_frames = Array.init st.depth (fun i -> ck_frame_of st.stack.(i));
      }

(* --- the block loop ---------------------------------------------------------- *)

(* The events a group start may fire, the sampling phase switch then the
   checkpoint capture, checked only when the countdown runs out: at the
   start of the group that makes [ev_span] groups since they were last
   checked.  They fire before the group counts, so a checkpoint's position
   is exactly "about to execute group [gi]".  [sync_phase] first brings
   the phase's [left] up to date, as if it had counted every group down
   at its start; the next countdown runs to the nearer of the phase's end
   and the capture. *)
let sync_phase st (sa : Sampling.state) =
  sa.Sampling.left <- sa.Sampling.left - (st.ev_span - st.countdown);
  st.ev_span <- st.countdown

let group_event st =
  let span =
    match st.sampling with
    | Some sa ->
        sync_phase st sa;
        if sa.Sampling.left <= 0 then sampling_step st sa;
        sa.Sampling.left
    | None -> max_int
  in
  if st.c.groups >= st.ck_at then save_checkpoint st;
  let span = min span (st.ck_at - st.c.groups) in
  st.countdown <- span;
  st.ev_span <- span

(* A group's start: its events, then fetch and issue. *)
let group_start st (g : dgroup) =
  if st.countdown <= 0 then group_event st;
  st.countdown <- st.countdown - 1;
  st.c.groups <- st.c.groups + 1;
  if st.warm then begin
    (* warm fetch: one I-side probe per group keeps the instruction
       hierarchy warm, behind the line filter *)
    st.warm_ttl <- st.warm_ttl - 1;
    if st.warm_ttl <= 0 then warm_flush_filters st;
    let line = line_of st.l1i (g.g_addr lsr 2) in
    let slot = line land (warm_filter_size - 1) in
    if Array.unsafe_get st.warm_l1i_lines slot <> line then begin
      Array.unsafe_set st.warm_l1i_lines slot line;
      if not (cache_line st.l1i line) then begin
        let w = g.g_addr lsr 2 in
        if not (l2_access st w) then ignore (l3_access st w)
      end
    end;
    st.c.nop_ops <- st.c.nop_ops + g.g_nops
  end
  else begin
    let chunks = g.g_chunks in
    for k = 0 to chunks - 1 do
      let a = g.g_addr + (k * st.desc.Machine_desc.bundles_per_cycle * 16) in
      let pen = icache_penalty st a (line_of st.l1i (a lsr 2)) in
      if pen > 0 then begin
        charge st Accounting.Front_end pen;
        advance st pen
      end
    done;
    st.c.nop_ops <- st.c.nop_ops + g.g_nops;
    (* issue: one cycle per fetch chunk, owed to Unstalled ([flush_issue];
       the phase is detailed here) *)
    st.issue_pending <- st.issue_pending + chunks;
    st.cycle <- st.cycle + chunks
  end

(* Run the frame on top of the stack until it calls or returns.  Each op
   burns one unit of fuel; the leading pure ops of a group take theirs in
   one gate (an under-fuelled group runs op by op, keeping the exhaustion
   point exact). *)
let run_frame st fr =
  let cur = ref fr.df.df_blocks.(fr.bi) in
  while st.ctl = ctl_none do
    let db = !cur in
    if fr.gi >= Array.length db.db_groups then
      if db.db_fall < 0 then
        raise (Machine_fault (fr.df.df_name ^ ": fell off " ^ db.db_label))
      else cur := enter_block fr db.db_fall
    else begin
      let g = Array.unsafe_get db.db_groups fr.gi in
      if fr.k = 0 then group_start st g;
      let ops = g.g_ops in
      let k = ref fr.k in
      let p = g.g_pure in
      if !k < p then begin
        if st.fuel >= p - !k then begin
          st.fuel <- st.fuel - (p - !k);
          if !k = 0 then begin
            (* the first ops of a group each get their own call site, which
               lets the host predict their targets by position *)
            (Array.unsafe_get ops 0) fr;
            if p > 1 then begin
              (Array.unsafe_get ops 1) fr;
              if p > 2 then begin
                (Array.unsafe_get ops 2) fr;
                if p > 3 then begin
                  (Array.unsafe_get ops 3) fr;
                  for j = 4 to p - 1 do
                    (Array.unsafe_get ops j) fr
                  done
                end
              end
            end
          end
          else
            for j = !k to p - 1 do
              (Array.unsafe_get ops j) fr
            done
        end
        else
          for j = !k to p - 1 do
            if st.fuel <= 0 then raise Out_of_fuel;
            st.fuel <- st.fuel - 1;
            (Array.unsafe_get ops j) fr
          done;
        k := p
      end;
      let len = Array.length ops in
      while !k < len && st.ctl = ctl_none do
        if st.fuel <= 0 then raise Out_of_fuel;
        st.fuel <- st.fuel - 1;
        (Array.unsafe_get ops !k) fr;
        incr k
      done;
      let c = st.ctl in
      if c = ctl_none || c >= ctl_jump then begin
        (* the group's cycles (issue, stalls, penalties) belong to the
           current block; a warm group's clock is frozen, so its tick
           attributes nothing *)
        sample_tick st;
        if c = ctl_none then begin
          fr.gi <- fr.gi + 1;
          fr.k <- 0
        end
        else begin
          st.ctl <- ctl_none;
          cur := enter_block fr (c - ctl_jump)
        end
      end
      else fr.k <- !k
    end
  done

(* Run until the stack empties; returns the exit code ({!Isa.exit_code})
   of the bottom frame's return. *)
let execute st =
  while st.depth > 0 do
    let fr = st.stack.(st.depth - 1) in
    run_frame st fr;
    let c = st.ctl in
    st.ctl <- ctl_none;
    if c = ctl_call then push_call st fr.regs else pop_return st
  done;
  Isa.exit_code st.stack.(0).regs st.vals

(* Run a whole program; returns (exit code, output, state). *)
let run ?fuel ?trace ?profile ?experiments ?desc ?sampling ?checkpoint_at
    (p : Program.t) (layout : Layout.t) (input : int64 array) =
  (match (sampling, checkpoint_at) with
  | Some _, Some _ ->
      (* a checkpoint must capture exact state; a sampled run's accounting
         is an estimate, so the combination is rejected rather than
         silently producing an inexact checkpoint *)
      invalid_arg "Machine.run: sampling and checkpoint_at are exclusive"
  | _ -> ());
  let st =
    create ?fuel ?trace ?profile ?experiments ?desc ?sampling ?checkpoint_at p layout
      input
  in
  ignore (Program.find_func_exn p p.Program.entry);
  let code =
    try
      match callee_of_name st.funcs p.Program.entry with
      | Fn slot ->
          st.callee <- slot;
          let boot = Isa.new_bank ~ints:Reg.num_int ~flts:0 ~prds:0 in
          set64 boot.Isa.ints (Reg.sp.Reg.id lsl 3) (Int64.sub Program.stack_top 128L);
          push_call st boot;
          execute st
      | Intrinsic _ | Missing _ -> invalid_arg "Machine.run: the entry is an intrinsic"
    with Intrinsics.Exit_program c -> c
  in
  settle st;
  (* settle any samples still owed to the last attribution point *)
  sample_tick st;
  (match st.sampling with
  | Some sa ->
      sync_phase st sa;
      st.warm <- false;
      st.sample_summary <- Some (Sampling.finalize sa st.acc ~total_groups:st.c.groups)
  | None -> ());
  (code, Buffer.contents st.rt.Intrinsics.output, st)

let checkpoint st = st.ck_saved
let sample_summary st = st.sample_summary

(* An experiment read off the finished run's accounting (DESIGN.md §14):
   a sampled run re-extrapolates it from its startup and measured
   accountings, a full run applies it directly. *)
let read st e =
  match st.sampling with
  | Some sa -> Sampling.read sa st.acc e
  | None -> Accounting.apply st.acc e

let fused_accounts st = Array.of_list (List.map (read st) st.experiments)

(* Resume a checkpoint against a structurally identical (program, layout)
   pair: rebuild the machine from private copies of the checkpoint (so one
   checkpoint can seed any number of resumed runs, concurrently too), put
   the frame stack back, and enter the block loop.  Fuel defaults to the remaining fuel at capture,
   so a resumed run exhausts at the same point as the uninterrupted one. *)
let resume ?fuel ?trace ?profile ?(desc = Machine_desc.itanium2) (p : Program.t)
    (layout : Layout.t) (ck : checkpoint) =
  if not (String.equal (Machine_desc.digest desc) ck.ck_desc_digest) then
    invalid_arg "Machine.resume: machine description differs from capture";
  if Array.length ck.ck_frames = 0 then invalid_arg "Machine.resume: empty checkpoint stack";
  let st =
    create
      ~fuel:(match fuel with Some f -> f | None -> ck.ck_fuel)
      ?trace ?profile ~desc ~from:ck p layout (Array.copy ck.ck_input)
  in
  Array.iter
    (fun kf ->
      let df =
        match callee_of_name st.funcs kf.kf_func with
        | Fn slot -> dfunc_of st slot
        | _ -> raise (Machine_fault ("resume: unknown function " ^ kf.kf_func))
      in
      if kf.kf_blk < 0 || kf.kf_blk >= Array.length df.df_blocks then
        raise (Machine_fault ("resume: bad block index in " ^ kf.kf_func));
      let fr = { (push_frame st df) with regs = Isa.copy_bank kf.kf_regs } in
      st.stack.(st.depth - 1) <- fr;
      Array.blit kf.kf_iready 0 fr.iready 0 (Array.length kf.kf_iready);
      Array.blit kf.kf_ireason 0 fr.ireason 0 (Array.length kf.kf_ireason);
      Array.blit kf.kf_fready 0 fr.fready 0 (Array.length kf.kf_fready);
      Array.blit kf.kf_freason 0 fr.freason 0 (Array.length kf.kf_freason);
      fr.bi <- kf.kf_blk;
      fr.gi <- kf.kf_gi;
      fr.k <- kf.kf_op)
    ck.ck_frames;
  set_func st st.stack.(st.depth - 1).df.df_name;
  let code = try execute st with Intrinsics.Exit_program c -> c in
  settle st;
  sample_tick st;
  (code, Buffer.contents st.rt.Intrinsics.output, st)
