(* The Itanium-2-class machine simulator: executes scheduled, register-
   allocated code (issue groups laid out in bundles) and accounts every
   cycle to one of the paper's nine categories.  Architectural semantics
   match the high-level interpreter (predication, NaT deferral, speculation
   models); timing comes from the in-order six-issue pipeline, the scaled
   memory hierarchy, the branch predictor, the register stack engine and the
   OS page-walk model.

   Simplifications (documented in DESIGN.md): each frame has a private
   register file (parameters/returns carried by the call), wrong-path fetch
   is not modelled, and the fetch-decoupling buffer is ignored. *)

open Epic_ir
open Epic_mach
open Epic_sched

exception Machine_fault of string
exception Exit_program of int
exception Out_of_fuel

let warm_filter_size = 256

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

type frame = {
  mutable func : Func.t; (* mutable so a pooled frame can be re-targeted *)
  ints : int64 array;
  nat : bool array;
  flts : float array;
  prds : bool array;
  iready : int array; (* global cycle at which the register's value is ready *)
  ireason : reason array;
  fready : int array;
  freason : reason array;
  alat : (int, int64 * int) Hashtbl.t; (* reg id -> (addr, bytes); flushed at calls *)
}

let fresh_frame (func : Func.t) =
  {
    func;
    ints = Array.make Reg.num_int 0L;
    nat = Array.make Reg.num_int false;
    flts = Array.make Reg.num_flt 0.;
    prds = Array.make Reg.num_prd false;
    iready = Array.make Reg.num_int 0;
    ireason = Array.make Reg.num_int Rload;
    fready = Array.make Reg.num_flt 0;
    freason = Array.make Reg.num_flt Rfload;
    alat = Hashtbl.create 8;
  }

(* Predecoded control flow (DESIGN.md §10): the layout's tuple-keyed
   hashtable and the function's block list are resolved once, before the
   first instruction executes, into per-function tables — so a taken branch
   is one string-keyed hash lookup and a fall-through is one pointer load,
   instead of a (func, label) tuple allocation + hash plus a linear
   [List.find_opt] scan per block exit.  Faults for blocks without layout
   (or layouts that fall off the end) are still raised only if the block is
   actually reached, preserving the lazy fault semantics. *)
type dblock = {
  db_block : Block.t;
  db_index : int; (* position in [df_blocks]: the checkpoint coordinate *)
  db_layout : Layout.block_layout option; (* None -> fault when executed *)
  mutable db_fall : dblock option; (* next block in layout order *)
  (* closure-compiled warm-phase code, one compiled group per issue group;
     built on the block's first warm execution (see [compile_warm]) *)
  mutable db_warm : wgroup array option;
}

and dfunc = {
  df_func : Func.t;
  df_blocks : dblock array; (* layout order; index 0 = entry *)
  df_by_label : (string, dblock) Hashtbl.t; (* first block per label *)
  (* one-entry memo for taken-branch resolution, keyed by the *physical*
     label string: a loop's back edge raises the same [Operand.Label]
     string every iteration, so the common case skips the hash lookup *)
  mutable df_hot_label : string;
  mutable df_hot_target : dblock option;
  (* register spans: 1 + the highest register id the function can touch,
     per bank, from scanning params, predicates, dests and sources (plus
     sp).  A pooled frame only needs clearing up to these; stall/ready
     state for Int, Brr and Prd classes lives in the integer bank, so
     [df_ispan] covers all three. *)
  df_ispan : int;
  df_fspan : int;
  df_pspan : int;
}

(* --- checkpoints ----------------------------------------------------------
   A checkpoint is a *positional*, fully deep-copied snapshot of the
   machine between two issue groups: register frames, memory image, cache/
   TLB/predictor/RSE arrays, accounting and counters, plus the call stack
   as (function name, block index, group index, instrs-after-call count)
   coordinates.  It holds no pointers into the program, layout or decoded
   tables, so it can be resumed against any structurally identical compile
   of the same source (the session cache keys guarantee exactly that), and
   one checkpoint can seed any number of resumed runs. *)

(* A call that is live at capture time: where in the *caller* to continue
   when the callee returns.  [pk_rest] counts the instructions after the
   call in its issue group (the call's own position is derived from it). *)
and pending = {
  pk_fr : frame; (* the caller's live frame (deep-copied at capture) *)
  pk_blk : int;
  pk_gi : int;
  pk_rest : int;
}

and ck_frame = {
  kf_func : string;
  kf_ints : int64 array;
  kf_nat : bool array;
  kf_flts : float array;
  kf_prds : bool array;
  kf_iready : int array;
  kf_ireason : reason array;
  kf_fready : int array;
  kf_freason : reason array;
  kf_alat : (int * (int64 * int)) list;
}

(* One stack entry, outermost first in [ck_calls]; [ke_rest = -1] marks
   the innermost (running) invocation, which resumes at group [ke_gi]
   rather than after a call inside it. *)
and ck_entry = {
  ke_frame : ck_frame;
  ke_blk : int;
  ke_gi : int;
  ke_rest : int;
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
  ck_calls : ck_entry list; (* outermost first; last entry is innermost *)
}

and t = {
  program : Program.t;
  layout : Layout.t;
  decoded : (string, dfunc) Hashtbl.t; (* function name -> decoded body *)
  mem : Memimage.t;
  mutable heap : int64;
  output : Buffer.t;
  input : int64 array;
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
  mutable cur_func : string; (* for per-function attribution *)
  mutable cur_block : string; (* for per-block sample attribution *)
  trace : Epic_obs.Trace.t option; (* event tracing; None = disabled, free *)
  prof : Epic_obs.Profile.t option; (* PC-sampling profiler *)
  (* Host-speed scratch state (DESIGN.md §10): operand evaluation reports
     the NaT bit and load penalties through these fields instead of
     returning tuples, so the per-instruction hot path allocates nothing. *)
  mutable onat : bool; (* NaT bit of the last operand/register read *)
  mutable ld_extra : int; (* cache penalty of the last [load_value] *)
  mutable cur_bins : float array; (* accounting bins of [cur_bins_for] *)
  mutable cur_bins_for : string; (* physically: the name [cur_bins] is for *)
  (* Fused experiment set (DESIGN.md §14): [None] on ordinary runs — the
     hot path pays one option match per charge.  When present, each charge
     additionally fans out to every experiment's private accumulator;
     [cur_xbins] caches those accumulators' bins for [cur_bins_for],
     refreshed by the same function-change check as [cur_bins]. *)
  exps : Accounting.exp_set option;
  mutable cur_xbins : float array array;
  syms : (string, int64) Hashtbl.t; (* memoized symbol addresses *)
  mutable free_frames : frame list; (* frame pool: released call frames *)
  (* Interval sampling (DESIGN.md §13): in a warm phase [warm] is true and
     the timing model is bypassed — no charges, no clock, no stalls — while
     the functional state and the cache/TLB/predictor warming evolve.  The
     [warm_*] fields are one-entry filters that keep warm-phase memory-
     system probes cheap (same line/page as the previous probe = skip). *)
  mutable warm : bool;
  sampling : Sampling.state option;
  mutable sample_summary : Sampling.summary option;
  warm_tlb_pages : int array;
  warm_l1d_lines : int array;
  warm_l2_lines : int array;
  warm_l1i_lines : int array;
  (* Taken-branch mailbox for the warm fast path: compiled warm branches
     deposit their (compile-time-resolved) target block here instead of
     raising [Taken], so the warm block walker is exception-free.  Always
     [None] between groups. *)
  mutable wjump : dblock option;
  (* groups left before the warm probe filters are flushed: a filter hit
     skips the model probe and therefore the line's LRU-recency update,
     so unbounded filter lifetime would let the model evict lines that
     are in fact hot; a periodic flush bounds that divergence *)
  mutable warm_ttl : int;
  (* Checkpointing: when armed ([ck_track]), the machine maintains the
     positional call stack ([ck_stack], plus the [pos_*] coordinates of
     the group/call being executed) and captures a checkpoint into
     [ck_saved] when the groups counter reaches [ck_at]. *)
  ck_track : bool;
  mutable ck_at : int; (* groups count to capture at; max_int = disarmed *)
  mutable ck_saved : checkpoint option;
  mutable ck_stack : pending list; (* live non-entry calls, innermost first *)
  mutable pos_blk : int; (* block index of the executing group; -1 = none *)
  mutable pos_gi : int;
  mutable pos_rest : int; (* instrs after the executing call in its group *)
}

(* Warm-phase probe filters are small direct-mapped tables (page/line
   keyed by its low bits): a hit means the page/line was warmed recently
   and the model probe is skipped.  One-entry memos thrash as soon as a
   loop alternates between two arrays; 64 entries make warm memory probes
   a two-array-op fast path for real access patterns. *)
(* The form an instruction executes as inside a warm sampling phase: a
   closure specialized at block-compile time (registers, immediates and
   opcode decisions resolved once), so warm phases do not pay
   [exec_instr]'s full operand/opcode dispatch per retired instruction. *)
and wop = t -> frame -> unit

(* One issue group's compiled warm code.  [wg_prefix] is the length of the
   leading run of *pure* compiled ops — no branch deposit, no fallback to
   [exec_instr], no non-fatal control transfer — which the warm walker
   executes with a single batched fuel gate and no per-op jump checks. *)
and wgroup = { wg_ops : wop array; wg_prefix : int }

let checkpoint_groups ck = ck.ck_groups
let checkpoint_cycle ck = ck.ck_cycle

(* The span of registers [f] can touch (see [df_ispan] above). *)
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
  List.iter
    (fun (b : Block.t) ->
      List.iter
        (fun (i : Instr.t) ->
          (match i.Instr.pred with Some p -> see p | None -> ());
          List.iter see i.Instr.dsts;
          List.iter
            (fun (o : Operand.t) ->
              match o with Operand.Reg r -> see r | _ -> ())
            i.Instr.srcs)
        b.Block.instrs)
    f.Func.blocks;
  (min !ispan Reg.num_int, min !fspan Reg.num_flt, min !pspan Reg.num_prd)

let decode_func (layout : Layout.t) (f : Func.t) =
  let dbs =
    Array.of_list
      (List.mapi
         (fun i (b : Block.t) ->
           {
             db_block = b;
             db_index = i;
             db_layout = Layout.block_layout layout f.Func.name b.Block.label;
             db_fall = None;
             db_warm = None;
           })
         f.Func.blocks)
  in
  let by_label = Hashtbl.create (max 8 (2 * Array.length dbs)) in
  Array.iteri
    (fun i db ->
      if i + 1 < Array.length dbs then db.db_fall <- Some dbs.(i + 1);
      if not (Hashtbl.mem by_label db.db_block.Block.label) then
        Hashtbl.add by_label db.db_block.Block.label db)
    dbs;
  let ispan, fspan, pspan = span_scan f in
  {
    df_func = f;
    df_blocks = dbs;
    df_by_label = by_label;
    df_hot_label = "\000"; (* sentinel: physically equal to no label *)
    df_hot_target = None;
    df_ispan = ispan;
    df_fspan = fspan;
    df_pspan = pspan;
  }


let create ?(fuel = 400_000_000) ?trace ?profile ?(experiments = [])
    ?(desc = Itanium.desc ()) ?sampling ?checkpoint_at (program : Program.t)
    (layout : Layout.t) (input : int64 array) =
  let exps =
    if experiments = [] then None else Some (Accounting.make_set experiments)
  in
  Program.assign_addresses program;
  let mem = Memimage.create () in
  Memimage.load_program mem program;
  let decoded = Hashtbl.create 64 in
  List.iter
    (fun (f : Func.t) ->
      Hashtbl.replace decoded f.Func.name (decode_func layout f))
    program.Program.funcs;
  let geom (g : Machine_desc.cache_geom) = (g.Machine_desc.size, g.Machine_desc.line, g.Machine_desc.assoc) in
  let cache name g =
    let size, line, assoc = geom g in
    Cache.create ~name ~size ~line ~assoc
  in
  let acc = Accounting.create () in
  let sampling_state = Option.map Sampling.make sampling in
  (* a sampled fused run tracks each experiment's accumulator so finalize
     can extrapolate it exactly as a serial sampled run of it would *)
  (match (sampling_state, exps) with
  | Some sa, Some s -> Sampling.attach sa (Accounting.set_accounts s)
  | _ -> ());
  {
    program;
    layout;
    decoded;
    mem;
    heap = Program.heap_base;
    output = Buffer.create 256;
    input;
    l1i = cache "L1I" desc.Machine_desc.l1i;
    l1d = cache "L1D" desc.Machine_desc.l1d;
    l2 = cache "L2" desc.Machine_desc.l2;
    l3 = cache "L3" desc.Machine_desc.l3;
    dtlb = Tlb.create ~entries:desc.Machine_desc.dtlb_entries ();
    bp =
      Branch_pred.create ~bits:desc.Machine_desc.bp_bits
        ~history_bits:desc.Machine_desc.bp_history_bits ();
    rse =
      Rse.create ~physical:desc.Machine_desc.rse_physical
        ~cost_per_reg:desc.Machine_desc.rse_spill_cost_per_reg ();
    desc;
    acc;
    c = fresh_counters ();
    cycle = 0;
    sb_work = 0;
    sb_last_cycle = 0;
    fuel;
    cur_func = "main";
    cur_block = "entry";
    trace;
    prof = profile;
    onat = false;
    ld_extra = 0;
    cur_bins = [||];
    cur_bins_for = "\000"; (* sentinel: no function is named this *)
    exps;
    cur_xbins =
      (match exps with
      | None -> [||]
      | Some s -> Array.make (Accounting.set_size s) [||]);
    syms = Hashtbl.create 32;
    free_frames = [];
    warm = false;
    sampling = sampling_state;
    sample_summary = None;
    warm_tlb_pages = Array.make warm_filter_size (-1);
    warm_l1d_lines = Array.make warm_filter_size (-1);
    warm_l2_lines = Array.make warm_filter_size (-1);
    warm_l1i_lines = Array.make warm_filter_size (-1);
    wjump = None;
    warm_ttl = 0;
    ck_track = checkpoint_at <> None;
    ck_at = (match checkpoint_at with Some n -> max 0 n | None -> max_int);
    ck_saved = None;
    ck_stack = [];
    pos_blk = -1;
    pos_gi = 0;
    pos_rest = 0;
  }

(* Charge [n] cycles to [cat] on the host accumulator and on every fused
   experiment's.  The clock is advanced by the callers, never from here, so
   what an experiment does to a charge cannot change the machine's
   evolution. *)
let charge st cat n =
  if n > 0 && not st.warm then begin
    (* The bins of the charged function are cached keyed by the physical
       [cur_func] string; a miss (function change, or the same name via a
       different string) is one hash lookup, a hit is free.  Bins are
       still created only on the first positive charge, exactly as when
       every charge went through [Accounting.charge]. *)
    if not (st.cur_bins_for == st.cur_func) then begin
      st.cur_bins <- Accounting.bins st.acc st.cur_func;
      (match st.exps with
      | None -> ()
      | Some s -> Accounting.set_bins s st.cur_xbins st.cur_func);
      st.cur_bins_for <- st.cur_func
    end;
    Accounting.charge_bins st.acc st.cur_bins cat n;
    (* fused experiments: the same charge against each experiment's
       private accumulator, through the same [charge_bins] — so every
       fused cell is bit-identical to a run of that experiment alone *)
    match st.exps with
    | None -> ()
    | Some s -> Accounting.charge_set s st.cur_xbins cat n
  end

(* Advance the clock — a no-op in a warm phase, where time is frozen and
   the (suppressed) charges would have accounted for it.  Every charge
   site pairs with an [advance], so warm phases contribute no cycles. *)
let advance st n = if not st.warm then st.cycle <- st.cycle + n

(* Frame pool (DESIGN.md §10): call frames are ~900 words of register
   state, so per-call allocation dominates GC traffic in call-heavy code.
   A released frame is cleared back to the all-zero state a fresh frame
   starts in — but only over the callee's register spans (every register
   the function can read, write, stall on or mark ready lies inside them)
   and only the fields a fresh frame guarantees: register values, NaT
   bits, predicate bits and ready times.  The reason arrays are only read
   under [ready > cycle], which a cleared ready time makes false. *)
let alloc_frame st (df : dfunc) (func : Func.t) =
  match st.free_frames with
  | [] -> fresh_frame func
  | fr :: tl ->
      st.free_frames <- tl;
      fr.func <- func;
      Array.fill fr.ints 0 df.df_ispan 0L;
      Array.fill fr.nat 0 df.df_ispan false;
      Array.fill fr.flts 0 df.df_fspan 0.;
      Array.fill fr.prds 0 df.df_pspan false;
      Array.fill fr.iready 0 df.df_ispan 0;
      Array.fill fr.fready 0 df.df_fspan 0;
      if Hashtbl.length fr.alat > 0 then Hashtbl.reset fr.alat;
      fr

let release_frame st (fr : frame) = st.free_frames <- fr :: st.free_frames

(* Emit a trace event (free when tracing is disabled, the default). *)
let emit st kind addr =
  match st.trace with
  | None -> ()
  | Some tr ->
      Epic_obs.Trace.record tr ~cycle:st.cycle ~kind ~func:st.cur_func ~addr

(* Attribute the sample points in the cycle interval since the last tick to
   the current function and block. *)
let sample_tick st =
  match st.prof with
  | None -> ()
  | Some p ->
      Epic_obs.Profile.tick p ~cycle:st.cycle ~func:st.cur_func ~block:st.cur_block

(* --- memory hierarchy ---------------------------------------------------- *)

(* Penalty cycles beyond the planned L1 latency for a data access. *)
let dcache_extra st (addr : int64) ~(is_float : bool) =
  let d = st.desc in
  if is_float then
    (* Itanium 2 keeps no FP data in L1D; FP loads are served from L2, and
       the compiler plans [float_load_latency] already *)
    if Cache.access st.l2 addr then 0
    else begin
      emit st Epic_obs.Trace.L2_miss addr;
      if Cache.access st.l3 addr then
        max 0 (d.Machine_desc.l3_latency - d.Machine_desc.float_load_latency)
      else d.Machine_desc.mem_latency - d.Machine_desc.float_load_latency
    end
  else if Cache.access st.l1d addr then 0
  else begin
    emit st Epic_obs.Trace.L1d_miss addr;
    if Cache.access st.l2 addr then d.Machine_desc.l2_latency - 1
    else begin
      emit st Epic_obs.Trace.L2_miss addr;
      if Cache.access st.l3 addr then d.Machine_desc.l3_latency - 1
      else d.Machine_desc.mem_latency
    end
  end

let icache_penalty st (addr : int64) =
  let d = st.desc in
  if Cache.access st.l1i addr then 0
  else begin
    emit st Epic_obs.Trace.L1i_miss addr;
    if Cache.access st.l2 addr then d.Machine_desc.l2_latency
    else begin
      emit st Epic_obs.Trace.L2_miss addr;
      if Cache.access st.l3 addr then d.Machine_desc.l3_latency
      else d.Machine_desc.mem_latency
    end
  end

(* DTLB lookup; returns extra cycles charged appropriately.  [spec] decides
   the policy on unmapped pages; returns [`Ok extra | `Nat extra]. *)
let translate st (addr : int64) (spec : Opcode.spec_kind) =
  if
    st.warm
    &&
    let page = Tlb.page_of addr in
    st.warm_tlb_pages.(page land (warm_filter_size - 1)) = page
  then
    (* warm-phase filter hit: the page was warmed recently, skip the
       associative lookup entirely *)
    `Ok 0
  else if Tlb.lookup st.dtlb addr then begin
    (if st.warm then
       let page = Tlb.page_of addr in
       st.warm_tlb_pages.(page land (warm_filter_size - 1)) <- page);
    `Ok 0
  end
  else
    match Memimage.classify st.mem addr with
    | Memimage.Ok -> (
        match spec with
        | Opcode.Spec_sentinel ->
            (* early deferral: a DTLB miss defers rather than walking; the
               chk's recovery will perform the real access *)
            emit st Epic_obs.Trace.Nat_deferral addr;
            `Nat 0
        | Opcode.Nonspec | Opcode.Spec_general | Opcode.Spec_advanced ->
            Tlb.fill st.dtlb addr;
            emit st Epic_obs.Trace.Dtlb_walk addr;
            charge st Accounting.Micropipe st.desc.Machine_desc.vhpt_walk_cycles;
            advance st st.desc.Machine_desc.vhpt_walk_cycles;
            `Ok 0)
    | Memimage.Null_page -> (
        match spec with
        | Opcode.Nonspec | Opcode.Spec_advanced ->
            raise (Machine_fault (Printf.sprintf "NULL access 0x%Lx" addr))
        | _ ->
            (* architected NaT page: cheap *)
            emit st Epic_obs.Trace.Nat_deferral addr;
            charge st Accounting.Micropipe st.desc.Machine_desc.nat_page_cycles;
            advance st st.desc.Machine_desc.nat_page_cycles;
            `Nat 0)
    | Memimage.Unmapped -> (
        match spec with
        | Opcode.Nonspec | Opcode.Spec_advanced ->
            raise (Machine_fault (Printf.sprintf "unmapped access 0x%Lx" addr))
        | Opcode.Spec_general ->
            (* wild load: failed walk + uncached page-table query (kernel) *)
            emit st Epic_obs.Trace.Wild_load addr;
            st.c.wild_loads <- st.c.wild_loads + 1;
            st.c.kernel_ops <-
              st.c.kernel_ops + (st.desc.Machine_desc.wild_walk_cycles / 4);
            charge st Accounting.Kernel st.desc.Machine_desc.wild_walk_cycles;
            advance st st.desc.Machine_desc.wild_walk_cycles;
            `Nat 0
        | Opcode.Spec_sentinel ->
            emit st Epic_obs.Trace.Nat_deferral addr;
            `Nat 0)

(* --- register access ----------------------------------------------------- *)

let stall_on st (fr : frame) (r : Reg.t) =
  if st.warm then ()
    (* ready times are stale in a warm phase (the clock is frozen); a
       leftover [ready > cycle] from the last detail phase must not drag
       the frozen clock forward *)
  else
  let ready, reason =
    match r.Reg.cls with
    | Reg.Flt -> (fr.fready.(r.Reg.id), fr.freason.(r.Reg.id))
    | _ -> (fr.iready.(r.Reg.id), fr.ireason.(r.Reg.id))
  in
  if ready > st.cycle then begin
    let n = ready - st.cycle in
    let cat =
      match reason with
      | Rload -> Accounting.Int_load_bubble
      | Rfload -> Accounting.Float_scoreboard
      | Rlong -> Accounting.Misc
    in
    charge st cat n;
    st.cycle <- ready
  end

(* Register and operand readers report the NaT bit through [st.onat]
   rather than in a returned tuple: with the value coming straight out of
   the frame's arrays, the integer hot path allocates nothing. *)
let read_int st fr (r : Reg.t) =
  stall_on st fr r;
  if r.Reg.id = 0 then begin
    st.onat <- false;
    0L
  end
  else begin
    st.onat <- fr.nat.(r.Reg.id);
    fr.ints.(r.Reg.id)
  end

let read_flt st fr (r : Reg.t) =
  stall_on st fr r;
  fr.flts.(r.Reg.id)

let read_prd st fr (r : Reg.t) =
  stall_on st fr r;
  if r.Reg.id = 0 then true else fr.prds.(r.Reg.id)

let write_int fr (r : Reg.t) (v : int64) (n : bool) =
  if r.Reg.id <> 0 then begin
    fr.ints.(r.Reg.id) <- v;
    fr.nat.(r.Reg.id) <- n
  end

let write_flt fr (r : Reg.t) (v : float) = fr.flts.(r.Reg.id) <- v
let write_prd fr (r : Reg.t) (v : bool) = if r.Reg.id <> 0 then fr.prds.(r.Reg.id) <- v

let mark_ready st fr (r : Reg.t) (extra : int) (reason : reason) =
  if st.warm then ()
    (* no scoreboarding while the clock is frozen: a ready time computed
       against the frozen cycle would be meaningless in the next phase *)
  else
  match r.Reg.cls with
  | Reg.Flt ->
      fr.fready.(r.Reg.id) <- st.cycle + extra;
      fr.freason.(r.Reg.id) <- reason
  | _ ->
      fr.iready.(r.Reg.id) <- st.cycle + extra;
      fr.ireason.(r.Reg.id) <- reason

(* Symbol addresses never change after [Program.assign_addresses], so they
   are resolved once and memoized — the seed scanned the globals list (and
   possibly the function list) on every reference. *)
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

(* Evaluate an integer-class operand; the NaT bit lands in [st.onat]. *)
let operand_int st fr (o : Operand.t) =
  match o with
  | Operand.Reg r -> (
      match r.Reg.cls with
      | Reg.Flt ->
          let v = Int64.of_float (read_flt st fr r) in
          st.onat <- false;
          v
      | Reg.Prd ->
          let v = if read_prd st fr r then 1L else 0L in
          st.onat <- false;
          v
      | _ -> read_int st fr r)
  | Operand.Imm i ->
      st.onat <- false;
      i
  | Operand.Fimm f ->
      st.onat <- false;
      Int64.of_float f
  | Operand.Label _ ->
      st.onat <- false;
      0L
  | Operand.Sym s ->
      st.onat <- false;
      sym_address st s

let operand_flt st fr (o : Operand.t) =
  match o with
  | Operand.Reg r -> (
      match r.Reg.cls with
      | Reg.Flt ->
          st.onat <- false;
          read_flt st fr r
      | _ ->
          (* [read_int] leaves the register's NaT bit in [st.onat] *)
          Int64.to_float (read_int st fr r))
  | Operand.Fimm f ->
      st.onat <- false;
      f
  | Operand.Imm i ->
      st.onat <- false;
      Int64.to_float i
  | _ ->
      st.onat <- false;
      0.

(* --- intrinsics ---------------------------------------------------------- *)

let do_intrinsic st (k : Intrinsics.kind) (args : (int64 * bool) list) =
  let geti n =
    match List.nth_opt args n with
    | Some (v, false) -> v
    | Some (_, true) ->
        st.c.nat_consumed <- st.c.nat_consumed + 1;
        0L
    | None -> 0L
  in
  let caller = st.cur_func in
  let caller_block = st.cur_block in
  (* settle samples owed to the caller before entering the pseudo-function *)
  sample_tick st;
  let pseudo = Intrinsics.(List.find (fun (_, k') -> k' = k) all) |> fst in
  st.cur_func <- pseudo;
  st.cur_block <- "<intrinsic>";
  let cost = Intrinsics.base_cost k in
  charge st Accounting.Unstalled cost;
  advance st cost;
  let results =
    match k with
    | Intrinsics.Print_int ->
        Buffer.add_string st.output (Int64.to_string (geti 0));
        Buffer.add_char st.output '\n';
        []
    | Intrinsics.Print_char ->
        Buffer.add_char st.output (Char.chr (Int64.to_int (geti 0) land 0xff));
        []
    | Intrinsics.Malloc ->
        let bytes = max 8 ((Int64.to_int (geti 0) + 15) / 16 * 16) in
        let addr = st.heap in
        st.heap <- Int64.add st.heap (Int64.of_int bytes);
        Memimage.map_range st.mem addr bytes;
        [ (addr, false) ]
    | Intrinsics.Input ->
        let i = Int64.to_int (geti 0) in
        if i >= 0 && i < Array.length st.input then [ (st.input.(i), false) ]
        else [ (0L, false) ]
    | Intrinsics.Input_len -> [ (Int64.of_int (Array.length st.input), false) ]
    | Intrinsics.Memcpy ->
        let dst = geti 0 and src = geti 1 and n = Int64.to_int (geti 2) in
        for i = 0 to n - 1 do
          let b = Memimage.read st.mem (Int64.add src (Int64.of_int i)) 1 in
          Memimage.write st.mem (Int64.add dst (Int64.of_int i)) 1 b
        done;
        (* cache traffic per touched line *)
        let lines = max 1 (n / 64) in
        for i = 0 to lines - 1 do
          let off = Int64.of_int (i * 64) in
          let e1 = dcache_extra st (Int64.add src off) ~is_float:false in
          let e2 = dcache_extra st (Int64.add dst off) ~is_float:false in
          let e = (e1 + e2) / 4 in
          charge st Accounting.Unstalled (1 + e);
          advance st (1 + e)
        done;
        []
    | Intrinsics.Memset ->
        let dst = geti 0 and v = geti 1 and n = Int64.to_int (geti 2) in
        for i = 0 to n - 1 do
          Memimage.write st.mem (Int64.add dst (Int64.of_int i)) 1 v
        done;
        let lines = max 1 (n / 64) in
        for i = 0 to lines - 1 do
          let e = dcache_extra st (Int64.add dst (Int64.of_int (i * 64))) ~is_float:false in
          charge st Accounting.Unstalled (1 + (e / 4));
          advance st (1 + (e / 4))
        done;
        []
    | Intrinsics.Exit -> raise (Exit_program (Int64.to_int (geti 0)))
  in
  (* attribute the intrinsic's cycles to the pseudo-function, matching the
     per-function accounting bins *)
  sample_tick st;
  st.cur_func <- caller;
  st.cur_block <- caller_block;
  results

(* --- sampling phase machine ---------------------------------------------- *)

(* Advance the sampling state by one group.  Decided *before* the group
   executes, so a group that ends in a taken branch cannot skip the
   switch.  On entering a warm phase the close-out of the detail phase is
   recorded; on re-entering detail the accounting totals are snapshotted
   so the next close-out can compute its delta. *)
(* Warm groups between flushes of the probe filters.  A filter hit skips
   the model probe, so the probed line's LRU recency is not refreshed;
   flushing every so often re-touches hot lines and keeps the cache/TLB
   models from drifting towards spurious evictions over a long warm
   phase. *)
let warm_flush_interval = 512

let warm_flush_filters st =
  Array.fill st.warm_tlb_pages 0 warm_filter_size (-1);
  Array.fill st.warm_l1d_lines 0 warm_filter_size (-1);
  Array.fill st.warm_l2_lines 0 warm_filter_size (-1);
  Array.fill st.warm_l1i_lines 0 warm_filter_size (-1);
  st.warm_ttl <- warm_flush_interval

(* The phase switch: callers consume one countdown tick per executed
   group *after* calling this (the split keeps a flip observed between
   groups — e.g. by the warm block walker — from consuming a tick the
   next executed group will also consume). *)
let sampling_step st (sa : Sampling.state) =
  if sa.Sampling.left <= 0 then
    if sa.Sampling.in_detail then begin
      Sampling.record_phase sa st.acc.Accounting.totals ~len:sa.Sampling.phase_len;
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
    kf_func = fr.func.Func.name;
    kf_ints = Array.copy fr.ints;
    kf_nat = Array.copy fr.nat;
    kf_flts = Array.copy fr.flts;
    kf_prds = Array.copy fr.prds;
    kf_iready = Array.copy fr.iready;
    kf_ireason = Array.copy fr.ireason;
    kf_fready = Array.copy fr.fready;
    kf_freason = Array.copy fr.freason;
    kf_alat = Hashtbl.fold (fun k v acc -> (k, v) :: acc) fr.alat [];
  }

let materialize_frame st (kf : ck_frame) =
  let fr = fresh_frame (Program.find_func_exn st.program kf.kf_func) in
  Array.blit kf.kf_ints 0 fr.ints 0 (Array.length kf.kf_ints);
  Array.blit kf.kf_nat 0 fr.nat 0 (Array.length kf.kf_nat);
  Array.blit kf.kf_flts 0 fr.flts 0 (Array.length kf.kf_flts);
  Array.blit kf.kf_prds 0 fr.prds 0 (Array.length kf.kf_prds);
  Array.blit kf.kf_iready 0 fr.iready 0 (Array.length kf.kf_iready);
  Array.blit kf.kf_ireason 0 fr.ireason 0 (Array.length kf.kf_ireason);
  Array.blit kf.kf_fready 0 fr.fready 0 (Array.length kf.kf_fready);
  Array.blit kf.kf_freason 0 fr.freason 0 (Array.length kf.kf_freason);
  List.iter (fun (k, v) -> Hashtbl.replace fr.alat k v) kf.kf_alat;
  fr

(* Capture a checkpoint; fires once, at the top of the group loop, with
   [fr] the innermost live frame about to execute group [gi] of [db].
   Every piece of mutable state is deep-copied, so the snapshot is immune
   to the run continuing (and to any number of later resumes). *)
let save_checkpoint st (fr : frame) (db : dblock) (gi : int) =
  st.ck_at <- max_int;
  (* one-shot *)
  let inner =
    { ke_frame = ck_frame_of fr; ke_blk = db.db_index; ke_gi = gi; ke_rest = -1 }
  in
  let stack =
    List.rev_map
      (fun pk ->
        {
          ke_frame = ck_frame_of pk.pk_fr;
          ke_blk = pk.pk_blk;
          ke_gi = pk.pk_gi;
          ke_rest = pk.pk_rest;
        })
      st.ck_stack
    @ [ inner ]
  in
  st.ck_saved <-
    Some
      {
        ck_desc_digest = Machine_desc.digest st.desc;
        ck_groups = st.c.groups;
        ck_cycle = st.cycle;
        ck_sb_work = st.sb_work;
        ck_sb_last_cycle = st.sb_last_cycle;
        ck_fuel = st.fuel;
        ck_heap = st.heap;
        ck_output = Buffer.contents st.output;
        ck_input = Array.copy st.input;
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
        ck_calls = stack;
      }

(* --- execution ----------------------------------------------------------- *)

exception Taken of string (* branch taken to label *)
exception Returned of (int64 * bool) list

let int_alu op (a : int64) (b : int64) =
  match op with
  | Opcode.Add -> Int64.add a b
  | Opcode.Sub -> Int64.sub a b
  | Opcode.Mul -> Int64.mul a b
  | Opcode.Div -> if Int64.equal b 0L then raise (Machine_fault "div by zero") else Int64.div a b
  | Opcode.Rem -> if Int64.equal b 0L then raise (Machine_fault "rem by zero") else Int64.rem a b
  | Opcode.And -> Int64.logand a b
  | Opcode.Or -> Int64.logor a b
  | Opcode.Xor -> Int64.logxor a b
  | Opcode.Shl -> Int64.shift_left a (Int64.to_int b land 63)
  | Opcode.Shr -> Int64.shift_right_logical a (Int64.to_int b land 63)
  | Opcode.Sra -> Int64.shift_right a (Int64.to_int b land 63)
  | _ -> invalid_arg "int_alu"

let flt_alu op (a : float) (b : float) =
  match op with
  | Opcode.Fadd -> a +. b
  | Opcode.Fsub -> a -. b
  | Opcode.Fmul -> a *. b
  | Opcode.Fdiv -> a /. b
  | _ -> invalid_arg "flt_alu"

(* Warm-phase cache update: keeps the hierarchy's contents and LRU state
   current without timing.  A one-entry line filter per level means the
   common case — another access to the line just touched — is a single
   integer compare instead of an associative search. *)
let dcache_warm st (addr : int64) ~(is_float : bool) =
  if is_float then begin
    let line = Cache.line_of st.l2 addr in
    let slot = line land (warm_filter_size - 1) in
    if st.warm_l2_lines.(slot) <> line then begin
      st.warm_l2_lines.(slot) <- line;
      if not (Cache.access st.l2 addr) then ignore (Cache.access st.l3 addr)
    end
  end
  else begin
    let line = Cache.line_of st.l1d addr in
    let slot = line land (warm_filter_size - 1) in
    if st.warm_l1d_lines.(slot) <> line then begin
      st.warm_l1d_lines.(slot) <- line;
      if not (Cache.access st.l1d addr) then
        if not (Cache.access st.l2 addr) then ignore (Cache.access st.l3 addr)
    end
  end

(* Perform a load's data access (translation already done, result Ok);
   returns the raw bits, with the cache penalty left in [st.ld_extra]. *)
let load_value st (addr : int64) (sz : Opcode.size) ~(is_float : bool) =
  if st.warm then begin
    dcache_warm st addr ~is_float;
    st.ld_extra <- 0
  end
  else st.ld_extra <- dcache_extra st addr ~is_float;
  Memimage.read st.mem addr (Opcode.size_bytes sz)

(* Evaluate a compare's two sources and the condition, encoded without
   allocation: -1 = deferred (a NaT input), 0 = false, 1 = true.  The
   second source is evaluated before the first, preserving the register
   stall (and hence cycle-accounting) order of the seed's tuple build. *)
let cmp_result st fr ~(fcmp : bool) cond (i : Instr.t) =
  match i.Instr.srcs with
  | [ a; b ] ->
      if fcmp then begin
        let y = operand_flt st fr b in
        let ny = st.onat in
        let x = operand_flt st fr a in
        if st.onat || ny then -1
        else if Opcode.eval_fcmp cond x y then 1
        else 0
      end
      else begin
        let y = operand_int st fr b in
        let ny = st.onat in
        let x = operand_int st fr a in
        if st.onat || ny then -1
        else if Opcode.eval_icmp cond x y then 1
        else 0
      end
  | _ -> raise (Machine_fault "cmp arity")

let drain_store_buffer st =
  let elapsed = st.cycle - st.sb_last_cycle in
  st.sb_last_cycle <- st.cycle;
  st.sb_work <- max 0 (st.sb_work - elapsed)

(* Bind call arguments to the callee's parameter registers (missing
   arguments leave the fresh-frame zeros in place), and call results to the
   caller's destination registers (missing results read as 0/false) — as
   parallel walks, not the seed's quadratic [List.nth_opt] per element. *)
let rec bind_params fr (params : Reg.t list) (args : (int64 * bool) list) =
  match (params, args) with
  | [], _ | _, [] -> ()
  | p :: ps, (v, na) :: tl ->
      if p.Reg.cls = Reg.Flt then write_flt fr p (Int64.float_of_bits v)
      else write_int fr p v na;
      bind_params fr ps tl

let rec bind_results fr (dsts : Reg.t list) (results : (int64 * bool) list) =
  match (dsts, results) with
  | [], _ -> ()
  | d :: ds, (v, na) :: tl ->
      (if d.Reg.cls = Reg.Flt then write_flt fr d (Int64.float_of_bits v)
       else write_int fr d v na);
      bind_results fr ds tl
  | d :: ds, [] ->
      (if d.Reg.cls = Reg.Flt then write_flt fr d (Int64.float_of_bits 0L)
       else write_int fr d 0L false);
      bind_results fr ds []

(* --- warm-phase closure compilation (DESIGN.md Â§13) -----------------------
   In a warm phase every instruction still executes architecturally â
   values, NaT bits, predicates, memory, ALAT, predictor updates, cache/TLB
   warming and every retired-op counter â but no cycle is ever charged.
   Paying [exec_instr]'s full operand/opcode dispatch for that capped the
   sampled speedup near 1x, so warm code is compiled once per block: each
   instruction becomes a closure with its register ids, immediates and
   opcode decisions resolved at build time.  Rare or intricate opcodes
   (calls, returns, chk recovery, div/rem's speculated-fault path) fall
   back to [exec_instr], whose timing sites are all warm-guarded already,
   so warm semantics stay identical to the interpreter by construction
   (the sampled-vs-full functional-counter tests enforce this). *)

(* Compile an integer-class operand read; NaT lands in [st.onat], exactly
   as [operand_int]. *)
let warm_rd (o : Operand.t) : t -> frame -> int64 =
  match o with
  | Operand.Reg r -> (
      let id = r.Reg.id in
      match r.Reg.cls with
      | Reg.Flt ->
          fun st fr ->
            st.onat <- false;
            Int64.of_float fr.flts.(id)
      | Reg.Prd ->
          fun st fr ->
            st.onat <- false;
            if id = 0 || fr.prds.(id) then 1L else 0L
      | _ ->
          if id = 0 then
            fun st _ ->
              st.onat <- false;
              0L
          else
            fun st fr ->
              st.onat <- fr.nat.(id);
              fr.ints.(id))
  | Operand.Imm v ->
      fun st _ ->
        st.onat <- false;
        v
  | Operand.Fimm f ->
      let v = Int64.of_float f in
      fun st _ ->
        st.onat <- false;
        v
  | Operand.Label _ ->
      fun st _ ->
        st.onat <- false;
        0L
  | Operand.Sym sym ->
      fun st _ ->
        st.onat <- false;
        sym_address st sym

(* Compile a float-class operand read (mirrors [operand_flt], including
   the int-register path leaving that register's NaT bit in [st.onat]). *)
let warm_rdf (o : Operand.t) : t -> frame -> float =
  match o with
  | Operand.Reg r -> (
      let id = r.Reg.id in
      match r.Reg.cls with
      | Reg.Flt ->
          fun st fr ->
            st.onat <- false;
            fr.flts.(id)
      | _ ->
          if id = 0 then
            fun st _ ->
              st.onat <- false;
              0.
          else
            fun st fr ->
              st.onat <- fr.nat.(id);
              Int64.to_float fr.ints.(id))
  | Operand.Fimm f ->
      fun st _ ->
        st.onat <- false;
        f
  | Operand.Imm i ->
      let v = Int64.to_float i in
      fun st _ ->
        st.onat <- false;
        v
  | _ ->
      fun st _ ->
        st.onat <- false;
        0.

(* [int_alu] resolved to a direct closure at compile time (Div/Rem are
   excluded: their speculated-fault path stays on [exec_instr]). *)
let warm_alu op : int64 -> int64 -> int64 =
  match op with
  | Opcode.Add -> Int64.add
  | Opcode.Sub -> Int64.sub
  | Opcode.Mul -> Int64.mul
  | Opcode.And -> Int64.logand
  | Opcode.Or -> Int64.logor
  | Opcode.Xor -> Int64.logxor
  | Opcode.Shl -> fun a b -> Int64.shift_left a (Int64.to_int b land 63)
  | Opcode.Shr -> fun a b -> Int64.shift_right_logical a (Int64.to_int b land 63)
  | Opcode.Sra -> fun a b -> Int64.shift_right a (Int64.to_int b land 63)
  | _ -> invalid_arg "warm_alu"

(* Execute one instruction.  Raises [Taken l] for a taken branch,
   [Returned vs] for a return. *)
let rec exec_instr st (fr : frame) (i : Instr.t) =
  if st.fuel <= 0 then raise Out_of_fuel;
  st.fuel <- st.fuel - 1;
  let guard =
    match i.Instr.pred with None -> true | Some p -> read_prd st fr p
  in
  match i.Instr.op with
  | Opcode.Cmp (cond, ct) | Opcode.Fcmp (cond, ct) -> (
      let fcmp = match i.Instr.op with Opcode.Fcmp _ -> true | _ -> false in
      match i.Instr.dsts with
      | [ pt; pf ] -> (
          st.c.useful_ops <- st.c.useful_ops + 1;
          match ct with
          | Opcode.Norm ->
              if guard then (
                match cmp_result st fr ~fcmp cond i with
                | -1 ->
                    write_prd fr pt false;
                    write_prd fr pf false
                | r ->
                    write_prd fr pt (r = 1);
                    write_prd fr pf (r = 0))
          | Opcode.Unc ->
              write_prd fr pt false;
              write_prd fr pf false;
              if guard then (
                match cmp_result st fr ~fcmp cond i with
                | -1 -> ()
                | r ->
                    write_prd fr pt (r = 1);
                    write_prd fr pf (r = 0))
          | Opcode.Orform ->
              if guard then (
                match cmp_result st fr ~fcmp cond i with
                | 1 ->
                    write_prd fr pt true;
                    write_prd fr pf true
                | _ -> ()))
      | _ -> raise (Machine_fault "cmp without two dests"))
  | _ when not guard -> (
      st.c.squashed_ops <- st.c.squashed_ops + 1;
      (* pattern match rather than [=]: Opcode.t has parameterized
         constructors, so [=] would be a generic structural compare *)
      match i.Instr.op with
      | Opcode.Br ->
          st.c.branches <- st.c.branches + 1;
          let correct = Branch_pred.predict_and_update st.bp i.Instr.id false in
          if not correct then begin
            emit st Epic_obs.Trace.Br_mispredict (Int64.of_int i.Instr.id);
            charge st Accounting.Br_mispredict
              st.desc.Machine_desc.branch_mispredict_penalty;
            advance st st.desc.Machine_desc.branch_mispredict_penalty
          end
      | _ -> ())
  | Opcode.Add | Opcode.Sub | Opcode.Mul | Opcode.Div | Opcode.Rem
  | Opcode.And | Opcode.Or | Opcode.Xor | Opcode.Shl | Opcode.Shr | Opcode.Sra
    -> (
      match (i.Instr.dsts, i.Instr.srcs) with
      | [ d ], [ a; b ] ->
          st.c.useful_ops <- st.c.useful_ops + 1;
          let va = operand_int st fr a in
          let na = st.onat in
          let vb = operand_int st fr b in
          let nb = st.onat in
          if na || nb then write_int fr d 0L true
          else begin
            (match int_alu i.Instr.op va vb with
            | v -> write_int fr d v false
            | exception Machine_fault _ when i.Instr.attrs.Instr.speculated ->
                (* a speculated divide by zero defers instead of faulting *)
                write_int fr d 0L true);
            match i.Instr.op with
            | Opcode.Div | Opcode.Rem -> mark_ready st fr d 4 Rlong
            | _ -> ()
          end
      | _ -> raise (Machine_fault "bad ALU"))
  | Opcode.Fadd | Opcode.Fsub | Opcode.Fmul | Opcode.Fdiv -> (
      match (i.Instr.dsts, i.Instr.srcs) with
      | [ d ], [ a; b ] ->
          st.c.useful_ops <- st.c.useful_ops + 1;
          let va = operand_flt st fr a in
          let vb = operand_flt st fr b in
          write_flt fr d (flt_alu i.Instr.op va vb);
          (match i.Instr.op with
          | Opcode.Fdiv -> mark_ready st fr d 8 Rfload
          | _ -> ())
      | _ -> raise (Machine_fault "bad FP op"))
  | Opcode.Fneg -> (
      match (i.Instr.dsts, i.Instr.srcs) with
      | [ d ], [ a ] ->
          st.c.useful_ops <- st.c.useful_ops + 1;
          write_flt fr d (-.operand_flt st fr a)
      | _ -> raise (Machine_fault "bad fneg"))
  | Opcode.Cvt_fi -> (
      match (i.Instr.dsts, i.Instr.srcs) with
      | [ d ], [ a ] ->
          st.c.useful_ops <- st.c.useful_ops + 1;
          let v = operand_flt st fr a in
          write_int fr d (Int64.of_float v) st.onat
      | _ -> raise (Machine_fault "bad cvt.fi"))
  | Opcode.Cvt_if -> (
      match (i.Instr.dsts, i.Instr.srcs) with
      | [ d ], [ a ] ->
          st.c.useful_ops <- st.c.useful_ops + 1;
          write_flt fr d (Int64.to_float (operand_int st fr a))
      | _ -> raise (Machine_fault "bad cvt.if"))
  | Opcode.Mov | Opcode.Sxt _ -> (
      match (i.Instr.dsts, i.Instr.srcs) with
      | [ d ], [ a ] ->
          st.c.useful_ops <- st.c.useful_ops + 1;
          if d.Reg.cls = Reg.Flt then write_flt fr d (operand_flt st fr a)
          else begin
            let v = operand_int st fr a in
            let n = st.onat in
            let v =
              match i.Instr.op with
              | Opcode.Sxt sz ->
                  let bits = 8 * Opcode.size_bytes sz in
                  Int64.shift_right (Int64.shift_left v (64 - bits)) (64 - bits)
              | _ -> v
            in
            write_int fr d v n
          end
      | _ -> raise (Machine_fault "bad mov"))
  | Opcode.Lea -> (
      match (i.Instr.dsts, i.Instr.srcs) with
      | [ d ], [ base; off ] ->
          st.c.useful_ops <- st.c.useful_ops + 1;
          let vb = operand_int st fr base in
          let vo = operand_int st fr off in
          write_int fr d (Int64.add vb vo) false
      | _ -> raise (Machine_fault "bad lea"))
  | Opcode.Ld (sz, spec) -> (
      match (i.Instr.dsts, i.Instr.srcs) with
      | [ d ], [ a ] -> (
          st.c.useful_ops <- st.c.useful_ops + 1;
          if spec <> Opcode.Nonspec then st.c.spec_loads <- st.c.spec_loads + 1;
          let addr = operand_int st fr a in
          let na = st.onat in
          if spec <> Opcode.Nonspec then emit st Epic_obs.Trace.Spec_load addr;
          if na then begin
            (* NaT address: propagate deferral *)
            if spec = Opcode.Nonspec then st.c.nat_consumed <- st.c.nat_consumed + 1;
            write_int fr d 0L true
          end
          else
            match translate st addr spec with
            | `Nat extra ->
                advance st extra;
                write_int fr d 0L true
            | `Ok _ ->
                if spec = Opcode.Spec_advanced then
                  Hashtbl.replace fr.alat d.Reg.id (addr, Opcode.size_bytes sz);
                let is_float = d.Reg.cls = Reg.Flt in
                let raw = load_value st addr sz ~is_float in
                let extra = st.ld_extra in
                if is_float then begin
                  write_flt fr d (Int64.float_of_bits raw);
                  if extra > 0 then mark_ready st fr d extra Rfload
                end
                else begin
                  write_int fr d raw false;
                  if extra > 0 then mark_ready st fr d extra Rload
                end)
      | _ -> raise (Machine_fault "bad load"))
  | Opcode.St sz -> (
      match i.Instr.srcs with
      | [ a; v ] -> (
          st.c.useful_ops <- st.c.useful_ops + 1;
          let addr = operand_int st fr a in
          let na = st.onat in
          let data =
            match v with
            | Operand.Reg r when r.Reg.cls = Reg.Flt ->
                let d = Int64.bits_of_float (read_flt st fr r) in
                st.onat <- false;
                d
            | Operand.Fimm fv ->
                st.onat <- false;
                Int64.bits_of_float fv
            | _ -> operand_int st fr v
          in
          let nv = st.onat in
          if na || nv then begin
            st.c.nat_consumed <- st.c.nat_consumed + 1;
            charge st Accounting.Misc 2
          end
          else
            match translate st addr Opcode.Nonspec with
            | `Ok _ ->
                (* ALAT snoop: stores invalidate overlapping advanced loads.
                   The table is empty in the common case (no advanced load in
                   flight), so check the size first; otherwise drop stale
                   entries in place, with no intermediate list. *)
                if Hashtbl.length fr.alat > 0 then begin
                  let bytes = Opcode.size_bytes sz in
                  Hashtbl.filter_map_inplace
                    (fun _rid ((a, n) as e) ->
                      let lo = max (Int64.to_int a) (Int64.to_int addr) in
                      let hi = min (Int64.to_int a + n) (Int64.to_int addr + bytes) in
                      if lo < hi then None else Some e)
                    fr.alat
                end;
                Memimage.write st.mem addr (Opcode.size_bytes sz) data;
                if st.warm then dcache_warm st addr ~is_float:false
                else begin
                  drain_store_buffer st;
                  let extra = dcache_extra st addr ~is_float:false in
                  if extra > 0 then begin
                    st.sb_work <- st.sb_work + 3;
                    if st.sb_work > 24 then begin
                      let over = st.sb_work - 24 in
                      charge st Accounting.Micropipe over;
                      advance st over;
                      st.sb_work <- 24
                    end
                  end
                end
            | `Nat _ -> raise (Machine_fault "store deferred (impossible)"))
      | _ -> raise (Machine_fault "bad store"))
  | Opcode.Chk sz -> (
      match i.Instr.srcs with
      | [ Operand.Reg r; a ] ->
          st.c.useful_ops <- st.c.useful_ops + 1;
          stall_on st fr r;
          let is_nat =
            match r.Reg.cls with Reg.Flt -> false | _ -> fr.nat.(r.Reg.id)
          in
          if is_nat then begin
            (* recovery: pipeline redirect + non-speculative reload *)
            st.c.chk_recoveries <- st.c.chk_recoveries + 1;
            charge st Accounting.Misc st.desc.Machine_desc.chk_recovery_penalty;
            advance st st.desc.Machine_desc.chk_recovery_penalty;
            let addr = operand_int st fr a in
            emit st Epic_obs.Trace.Chk_recovery addr;
            if st.onat then raise (Machine_fault "chk recovery with NaT address")
            else
              match translate st addr Opcode.Nonspec with
              | `Ok _ ->
                  let raw = load_value st addr sz ~is_float:(r.Reg.cls = Reg.Flt) in
                  if r.Reg.cls = Reg.Flt then write_flt fr r (Int64.float_of_bits raw)
                  else write_int fr r raw false;
                  if st.ld_extra > 0 then mark_ready st fr r st.ld_extra Rload
              | `Nat _ -> assert false
          end
      | _ -> raise (Machine_fault "bad chk"))
  | Opcode.Chka sz -> (
      match i.Instr.srcs with
      | [ Operand.Reg r; a ] ->
          st.c.useful_ops <- st.c.useful_ops + 1;
          stall_on st fr r;
          if not (Hashtbl.mem fr.alat r.Reg.id) then begin
            (* the entry was invalidated: redirect + non-speculative reload *)
            st.c.chk_recoveries <- st.c.chk_recoveries + 1;
            charge st Accounting.Misc st.desc.Machine_desc.chk_recovery_penalty;
            advance st st.desc.Machine_desc.chk_recovery_penalty;
            let addr = operand_int st fr a in
            emit st Epic_obs.Trace.Chk_recovery addr;
            if st.onat then raise (Machine_fault "chk.a recovery with NaT address")
            else
              match translate st addr Opcode.Nonspec with
              | `Ok _ ->
                  let raw = load_value st addr sz ~is_float:(r.Reg.cls = Reg.Flt) in
                  if r.Reg.cls = Reg.Flt then write_flt fr r (Int64.float_of_bits raw)
                  else write_int fr r raw false;
                  if st.ld_extra > 0 then mark_ready st fr r st.ld_extra Rload
              | `Nat _ -> assert false
          end
      | _ -> raise (Machine_fault "bad chk.a"))
  | Opcode.Br -> (
      st.c.useful_ops <- st.c.useful_ops + 1;
      st.c.branches <- st.c.branches + 1;
      match i.Instr.srcs with
      | [ Operand.Label l ] ->
          (match i.Instr.pred with
          | None -> Branch_pred.record_unconditional st.bp
          | Some _ ->
              (* conditional, and the guard was true (we are here) *)
              let correct = Branch_pred.predict_and_update st.bp i.Instr.id true in
              if not correct then begin
                emit st Epic_obs.Trace.Br_mispredict (Int64.of_int i.Instr.id);
                charge st Accounting.Br_mispredict
                  st.desc.Machine_desc.branch_mispredict_penalty;
                advance st st.desc.Machine_desc.branch_mispredict_penalty
              end);
          raise (Taken l)
      | _ -> raise (Machine_fault "bad br"))
  | Opcode.Br_call -> (
      st.c.useful_ops <- st.c.useful_ops + 1;
      st.c.branches <- st.c.branches + 1;
      st.c.calls <- st.c.calls + 1;
      Branch_pred.record_unconditional st.bp;
      match i.Instr.srcs with
      | target :: args ->
          let argv =
            List.map
              (fun (o : Operand.t) ->
                match o with
                | Operand.Reg r when r.Reg.cls = Reg.Flt ->
                    (Int64.bits_of_float (read_flt st fr r), false)
                | Operand.Fimm fv -> (Int64.bits_of_float fv, false)
                | _ ->
                    let v = operand_int st fr o in
                    (v, st.onat))
              args
          in
          let fname =
            match target with
            | Operand.Sym s -> s
            | Operand.Reg r -> (
                let addr = read_int st fr r in
                if st.onat then raise (Machine_fault "indirect call through NaT")
                else
                  match Program.func_at_address st.program addr with
                  | Some s -> s
                  | None -> raise (Machine_fault (Printf.sprintf "indirect call to 0x%Lx" addr)))
            | _ -> raise (Machine_fault "bad call target")
          in
          (* the ALAT is flushed at calls; skip the reset (which allocates
             a fresh bucket array) when it is already empty *)
          if Hashtbl.length fr.alat > 0 then Hashtbl.reset fr.alat;
          let results = exec_call st fr fname argv in
          bind_results fr i.Instr.dsts results
      | [] -> raise (Machine_fault "bad call"))
  | Opcode.Br_ret ->
      st.c.useful_ops <- st.c.useful_ops + 1;
      st.c.branches <- st.c.branches + 1;
      Branch_pred.record_unconditional st.bp;
      let vals =
        List.map
          (fun (o : Operand.t) ->
            match o with
            | Operand.Reg r when r.Reg.cls = Reg.Flt ->
                (Int64.bits_of_float (read_flt st fr r), false)
            | Operand.Fimm fv -> (Int64.bits_of_float fv, false)
            | _ ->
                let v = operand_int st fr o in
                (v, st.onat))
          i.Instr.srcs
      in
      raise (Returned vals)
  | Opcode.Alloc | Opcode.Nop -> st.c.useful_ops <- st.c.useful_ops + 1

(* Execute one function invocation (sp inherited via the call). *)
and exec_call st (caller_fr : frame) (fname : string) (args : (int64 * bool) list) =
  match Intrinsics.of_name fname with
  | Some k -> do_intrinsic st k args
  | None ->
      let f = Program.find_func_exn st.program fname in
      let df =
        match Hashtbl.find_opt st.decoded fname with
        | Some df -> df
        | None ->
            (* a function registered after [create]; decode on first call *)
            let df = decode_func st.layout f in
            Hashtbl.replace st.decoded fname df;
            df
      in
      charge st Accounting.Unstalled st.desc.Machine_desc.call_overhead;
      advance st st.desc.Machine_desc.call_overhead;
      (* RSE push *)
      let spill_cycles = Rse.on_call st.rse (max 1 f.Func.n_stacked) in
      if spill_cycles > 0 then begin
        emit st Epic_obs.Trace.Rse_spill 0L;
        charge st Accounting.Rse spill_cycles;
        advance st spill_cycles
      end;
      (* settle samples owed to the caller before attribution switches *)
      sample_tick st;
      let fr = alloc_frame st df f in
      bind_params fr f.Func.params args;
      fr.ints.(Reg.sp.Reg.id) <- caller_fr.ints.(Reg.sp.Reg.id);
      let saved_func = st.cur_func in
      let saved_block = st.cur_block in
      st.cur_func <- fname;
      (* Checkpoint stack maintenance: record where in the caller this call
         lives (the synthetic entry call has no position: [pos_blk] is
         still -1 then), and save/restore the positional coordinates
         around the body so a second call later in the same group tail
         sees the caller's position, not this callee's. *)
      let pushed = st.ck_track && st.pos_blk >= 0 in
      let saved_blk = st.pos_blk and saved_gi = st.pos_gi in
      if pushed then
        st.ck_stack <-
          {
            pk_fr = caller_fr;
            pk_blk = st.pos_blk;
            pk_gi = st.pos_gi;
            pk_rest = st.pos_rest;
          }
          :: st.ck_stack;
      (* [Func.entry] both checks non-emptiness (same fault as before) and
         is, by construction, the block decoded at index 0 *)
      ignore (Func.entry f);
      let result =
        try
          exec_blocks st fr df df.df_blocks.(0);
          []
        with Returned vs -> vs
      in
      if pushed then begin
        match st.ck_stack with
        | _ :: tl -> st.ck_stack <- tl
        | [] -> ()
      end;
      st.pos_blk <- saved_blk;
      st.pos_gi <- saved_gi;
      release_frame st fr;
      (* settle samples owed to the callee before attribution reverts *)
      sample_tick st;
      st.cur_func <- saved_func;
      st.cur_block <- saved_block;
      charge st Accounting.Unstalled st.desc.Machine_desc.return_overhead;
      advance st st.desc.Machine_desc.return_overhead;
      let fill_cycles = Rse.on_return st.rse in
      if fill_cycles > 0 then begin
        emit st Epic_obs.Trace.Rse_fill 0L;
        charge st Accounting.Rse fill_cycles;
        advance st fill_cycles
      end;
      result

(* Compile one instruction's warm form.  Counter updates, NaT/value
   semantics and evaluation order replicate [exec_instr] with all its
   warm-guarded timing sites removed. *)
and compile_warm (df : dfunc) (i : Instr.t) : wop * bool =
  (* Fuel is checked and decremented by the warm op walkers (one inline
     test instead of a wrapper closure per op); the fallback hands the
     unit back because [exec_instr] burns its own.  The second component
     is the purity flag feeding [wg_prefix]: [true] means the op neither
     deposits a jump nor falls back to [exec_instr]. *)
  let fallback : wop * bool =
    ( (fun st fr ->
        st.fuel <- st.fuel + 1;
        exec_instr st fr i),
      false )
  in
  match i.Instr.op with
  | Opcode.Br_call | Opcode.Br_ret | Opcode.Chk _ | Opcode.Chka _
  | Opcode.Div | Opcode.Rem ->
      fallback
  | Opcode.Cmp (cond, ct) | Opcode.Fcmp (cond, ct) -> (
      match (i.Instr.dsts, i.Instr.srcs) with
      | [ pt; pf ], [ a; b ] ->
          let fcmp = match i.Instr.op with Opcode.Fcmp _ -> true | _ -> false in
          (* second source first, as [cmp_result] *)
          let eval : t -> frame -> int =
            if fcmp then begin
              let ry = warm_rdf b and rx = warm_rdf a in
              fun st fr ->
                let y = ry st fr in
                let ny = st.onat in
                let x = rx st fr in
                if st.onat || ny then -1
                else if Opcode.eval_fcmp cond x y then 1
                else 0
            end
            else
              (* fused shapes: sources straight from the register file
                 (evaluation order is immaterial without [onat] traffic) *)
              match (a, b) with
              | Operand.Reg x, Operand.Reg y
                when x.Reg.cls = Reg.Int
                     && y.Reg.cls = Reg.Int
                     && x.Reg.id <> 0
                     && y.Reg.id <> 0 ->
                  let ix = x.Reg.id and iy = y.Reg.id in
                  fun _ fr ->
                    if fr.nat.(ix) || fr.nat.(iy) then -1
                    else if Opcode.eval_icmp cond fr.ints.(ix) fr.ints.(iy)
                    then 1
                    else 0
              | Operand.Reg x, Operand.Imm v
                when x.Reg.cls = Reg.Int && x.Reg.id <> 0 ->
                  let ix = x.Reg.id in
                  fun _ fr ->
                    if fr.nat.(ix) then -1
                    else if Opcode.eval_icmp cond fr.ints.(ix) v then 1
                    else 0
              | _ ->
                  let ry = warm_rd b and rx = warm_rd a in
                  fun st fr ->
                    let y = ry st fr in
                    let ny = st.onat in
                    let x = rx st fr in
                    if st.onat || ny then -1
                    else if Opcode.eval_icmp cond x y then 1
                    else 0
          in
          let guard : t -> frame -> bool =
            match i.Instr.pred with
            | None -> fun _ _ -> true
            | Some p ->
                let pid = p.Reg.id in
                if pid = 0 then fun _ _ -> true else fun _ fr -> fr.prds.(pid)
          in
          let body : wop =
            match ct with
            | Opcode.Norm ->
                fun st fr ->
                  st.c.useful_ops <- st.c.useful_ops + 1;
                  if guard st fr then (
                    match eval st fr with
                    | -1 ->
                        write_prd fr pt false;
                        write_prd fr pf false
                    | r ->
                        write_prd fr pt (r = 1);
                        write_prd fr pf (r = 0))
            | Opcode.Unc ->
                fun st fr ->
                  st.c.useful_ops <- st.c.useful_ops + 1;
                  write_prd fr pt false;
                  write_prd fr pf false;
                  if guard st fr then (
                    match eval st fr with
                    | -1 -> ()
                    | r ->
                        write_prd fr pt (r = 1);
                        write_prd fr pf (r = 0))
            | Opcode.Orform ->
                fun st fr ->
                  st.c.useful_ops <- st.c.useful_ops + 1;
                  if guard st fr && eval st fr = 1 then begin
                    write_prd fr pt true;
                    write_prd fr pf true
                  end
          in
          (body, true)
      | _ -> fallback)
  | op -> (
      let body_opt : wop option =
        match (op, i.Instr.dsts, i.Instr.srcs) with
        | ( ( Opcode.Add | Opcode.Sub | Opcode.Mul | Opcode.And | Opcode.Or
            | Opcode.Xor | Opcode.Shl | Opcode.Shr | Opcode.Sra ),
            [ d ],
            [ a; b ] ) -> (
            let alu = warm_alu op in
            let did = d.Reg.id in
            (* fully-fused shapes for the dominant operand patterns: both
               sources read straight from the register file (no operand
               closures, no [onat] traffic) *)
            match (a, b) with
            | Operand.Reg x, Operand.Reg y
              when did <> 0
                   && x.Reg.cls = Reg.Int
                   && y.Reg.cls = Reg.Int
                   && x.Reg.id <> 0
                   && y.Reg.id <> 0 ->
                let ia = x.Reg.id and ib = y.Reg.id in
                Some
                  (fun st fr ->
                    st.c.useful_ops <- st.c.useful_ops + 1;
                    if fr.nat.(ia) || fr.nat.(ib) then begin
                      fr.ints.(did) <- 0L;
                      fr.nat.(did) <- true
                    end
                    else begin
                      fr.ints.(did) <- alu fr.ints.(ia) fr.ints.(ib);
                      fr.nat.(did) <- false
                    end)
            | Operand.Reg x, Operand.Imm v
              when did <> 0 && x.Reg.cls = Reg.Int && x.Reg.id <> 0 ->
                let ia = x.Reg.id in
                Some
                  (fun st fr ->
                    st.c.useful_ops <- st.c.useful_ops + 1;
                    if fr.nat.(ia) then begin
                      fr.ints.(did) <- 0L;
                      fr.nat.(did) <- true
                    end
                    else begin
                      fr.ints.(did) <- alu fr.ints.(ia) v;
                      fr.nat.(did) <- false
                    end)
            | _ ->
                let ra = warm_rd a and rb = warm_rd b in
                Some
                  (fun st fr ->
                    st.c.useful_ops <- st.c.useful_ops + 1;
                    let va = ra st fr in
                    let na = st.onat in
                    let vb = rb st fr in
                    if did <> 0 then
                      if na || st.onat then begin
                        fr.ints.(did) <- 0L;
                        fr.nat.(did) <- true
                      end
                      else begin
                        fr.ints.(did) <- alu va vb;
                        fr.nat.(did) <- false
                      end))
        | ( (Opcode.Fadd | Opcode.Fsub | Opcode.Fmul | Opcode.Fdiv),
            [ d ],
            [ a; b ] ) ->
            let ra = warm_rdf a and rb = warm_rdf b in
            let alu : float -> float -> float =
              match op with
              | Opcode.Fadd -> ( +. )
              | Opcode.Fsub -> ( -. )
              | Opcode.Fmul -> ( *. )
              | _ -> ( /. )
            in
            let did = d.Reg.id in
            Some
              (fun st fr ->
                st.c.useful_ops <- st.c.useful_ops + 1;
                let va = ra st fr in
                let vb = rb st fr in
                fr.flts.(did) <- alu va vb)
        | Opcode.Fneg, [ d ], [ a ] ->
            let ra = warm_rdf a in
            let did = d.Reg.id in
            Some
              (fun st fr ->
                st.c.useful_ops <- st.c.useful_ops + 1;
                fr.flts.(did) <- -.(ra st fr))
        | Opcode.Cvt_fi, [ d ], [ a ] ->
            let ra = warm_rdf a in
            Some
              (fun st fr ->
                st.c.useful_ops <- st.c.useful_ops + 1;
                let v = ra st fr in
                write_int fr d (Int64.of_float v) st.onat)
        | Opcode.Cvt_if, [ d ], [ a ] ->
            let ra = warm_rd a in
            let did = d.Reg.id in
            Some
              (fun st fr ->
                st.c.useful_ops <- st.c.useful_ops + 1;
                fr.flts.(did) <- Int64.to_float (ra st fr))
        | (Opcode.Mov | Opcode.Sxt _), [ d ], [ a ] ->
            if d.Reg.cls = Reg.Flt then begin
              let ra = warm_rdf a in
              let did = d.Reg.id in
              Some
                (fun st fr ->
                  st.c.useful_ops <- st.c.useful_ops + 1;
                  fr.flts.(did) <- ra st fr)
            end
            else begin
              let sh =
                match op with
                | Opcode.Sxt sz -> 64 - (8 * Opcode.size_bytes sz)
                | _ -> 0
              in
              let did = d.Reg.id in
              match a with
              | Operand.Reg x
                when did <> 0 && sh = 0 && x.Reg.cls = Reg.Int && x.Reg.id <> 0
                ->
                  (* plain register copy: the dominant mov shape *)
                  let ia = x.Reg.id in
                  Some
                    (fun st fr ->
                      st.c.useful_ops <- st.c.useful_ops + 1;
                      fr.ints.(did) <- fr.ints.(ia);
                      fr.nat.(did) <- fr.nat.(ia))
              | Operand.Imm v when did <> 0 && sh = 0 ->
                  Some
                    (fun st fr ->
                      st.c.useful_ops <- st.c.useful_ops + 1;
                      fr.ints.(did) <- v;
                      fr.nat.(did) <- false)
              | _ ->
                  let ra = warm_rd a in
                  Some
                    (fun st fr ->
                      st.c.useful_ops <- st.c.useful_ops + 1;
                      let v = ra st fr in
                      let v =
                        if sh = 0 then v
                        else Int64.shift_right (Int64.shift_left v sh) sh
                      in
                      write_int fr d v st.onat)
            end
        | Opcode.Lea, [ d ], [ base; off ] -> (
            let did = d.Reg.id in
            match (base, off) with
            | Operand.Reg x, Operand.Imm v
              when did <> 0 && x.Reg.cls = Reg.Int && x.Reg.id <> 0 ->
                let ib = x.Reg.id in
                Some
                  (fun st fr ->
                    st.c.useful_ops <- st.c.useful_ops + 1;
                    fr.ints.(did) <- Int64.add fr.ints.(ib) v;
                    fr.nat.(did) <- false)
            | _ ->
                let rb = warm_rd base and ro = warm_rd off in
                Some
                  (fun st fr ->
                    st.c.useful_ops <- st.c.useful_ops + 1;
                    let vb = rb st fr in
                    let vo = ro st fr in
                    write_int fr d (Int64.add vb vo) false))
        | Opcode.Ld (sz, spec), [ d ], [ a ] ->
            let ra = warm_rd a in
            let is_float = d.Reg.cls = Reg.Flt in
            let bytes = Opcode.size_bytes sz in
            let adv = spec = Opcode.Spec_advanced in
            let nonspec = spec = Opcode.Nonspec in
            let did = d.Reg.id in
            Some
              (fun st fr ->
                st.c.useful_ops <- st.c.useful_ops + 1;
                if not nonspec then st.c.spec_loads <- st.c.spec_loads + 1;
                let addr = ra st fr in
                let na = st.onat in
                if not nonspec then emit st Epic_obs.Trace.Spec_load addr;
                if na then begin
                  if nonspec then
                    st.c.nat_consumed <- st.c.nat_consumed + 1;
                  write_int fr d 0L true
                end
                else
                  match translate st addr spec with
                  | `Nat _ -> write_int fr d 0L true
                  | `Ok _ ->
                      if adv then Hashtbl.replace fr.alat did (addr, bytes);
                      dcache_warm st addr ~is_float;
                      st.ld_extra <- 0;
                      let raw = Memimage.read st.mem addr bytes in
                      if is_float then write_flt fr d (Int64.float_of_bits raw)
                      else write_int fr d raw false)
        | Opcode.St sz, _, [ a; v ] ->
            let ra = warm_rd a in
            let rv : t -> frame -> int64 =
              match v with
              | Operand.Reg r when r.Reg.cls = Reg.Flt ->
                  let id = r.Reg.id in
                  fun st fr ->
                    st.onat <- false;
                    Int64.bits_of_float fr.flts.(id)
              | Operand.Fimm fv ->
                  let bits = Int64.bits_of_float fv in
                  fun st _ ->
                    st.onat <- false;
                    bits
              | _ -> warm_rd v
            in
            let bytes = Opcode.size_bytes sz in
            Some
              (fun st fr ->
                st.c.useful_ops <- st.c.useful_ops + 1;
                let addr = ra st fr in
                let na = st.onat in
                let data = rv st fr in
                if na || st.onat then
                  st.c.nat_consumed <- st.c.nat_consumed + 1
                else
                  match translate st addr Opcode.Nonspec with
                  | `Ok _ ->
                      if Hashtbl.length fr.alat > 0 then
                        Hashtbl.filter_map_inplace
                          (fun _rid ((ea, n) as e) ->
                            let lo = max (Int64.to_int ea) (Int64.to_int addr) in
                            let hi =
                              min (Int64.to_int ea + n)
                                (Int64.to_int addr + bytes)
                            in
                            if lo < hi then None else Some e)
                          fr.alat;
                      Memimage.write st.mem addr bytes data;
                      dcache_warm st addr ~is_float:false
                  | `Nat _ -> raise (Machine_fault "store deferred (impossible)"))
        | Opcode.Br, _, [ Operand.Label l ] -> (
            (* the target block is resolved once at compile time; the
               deposit into [wjump] is a single preallocated store, so a
               warm taken branch costs no exception and no allocation *)
            let jump : t -> unit =
              match Hashtbl.find_opt df.df_by_label l with
              | Some tdb ->
                  let j = Some tdb in
                  fun st -> st.wjump <- j
              | None ->
                  fun _ ->
                    raise (Machine_fault ("branch to unknown label " ^ l))
            in
            match i.Instr.pred with
            | None ->
                Some
                  (fun st _ ->
                    st.c.useful_ops <- st.c.useful_ops + 1;
                    st.c.branches <- st.c.branches + 1;
                    Branch_pred.record_unconditional st.bp;
                    jump st)
            | Some _ ->
                let bid = i.Instr.id in
                Some
                  (fun st _ ->
                    st.c.useful_ops <- st.c.useful_ops + 1;
                    st.c.branches <- st.c.branches + 1;
                    let correct = Branch_pred.predict_and_update st.bp bid true in
                    if not correct then
                      emit st Epic_obs.Trace.Br_mispredict (Int64.of_int bid);
                    jump st))
        | (Opcode.Alloc | Opcode.Nop), _, _ ->
            Some (fun st _ -> st.c.useful_ops <- st.c.useful_ops + 1)
        | _ -> None
      in
      match body_opt with
      | None -> fallback
      | Some body ->
          let guarded : wop =
            match i.Instr.pred with
            | None -> body
            | Some p ->
                let pid = p.Reg.id in
                if pid = 0 then body
                else
                  let squash : wop =
                    match op with
                    | Opcode.Br ->
                        let bid = i.Instr.id in
                        fun st _ ->
                          st.c.squashed_ops <- st.c.squashed_ops + 1;
                          st.c.branches <- st.c.branches + 1;
                          let correct =
                            Branch_pred.predict_and_update st.bp bid false
                          in
                          if not correct then
                            emit st Epic_obs.Trace.Br_mispredict
                              (Int64.of_int bid)
                    | _ ->
                        fun st _ ->
                          st.c.squashed_ops <- st.c.squashed_ops + 1
                  in
                  fun st fr ->
                    if fr.prds.(pid) then body st fr else squash st fr
          in
          (guarded, match op with Opcode.Br -> false | _ -> true))

(* Compiled warm code for a block, built on first warm use and cached on
   the decoded block (decoded tables are per-machine, never shared). *)
and warm_ops_of (df : dfunc) (db : dblock) =
  match db.db_warm with
  | Some w -> w
  | None ->
      let w =
        match db.db_layout with
        | Some bl ->
            Array.map
              (fun (g : Layout.group) ->
                let compiled = List.map (compile_warm df) g.Layout.instrs in
                let wg_ops = Array.of_list (List.map fst compiled) in
                let rec prefix n = function
                  | (_, true) :: tl -> prefix (n + 1) tl
                  | _ -> n
                in
                { wg_ops; wg_prefix = prefix 0 compiled })
              bl.Layout.groups
        | None -> [||]
      in
      db.db_warm <- Some w;
      w

(* Execute a group's instruction list; a top-level walker rather than a
   [List.iter] closure so the per-group hot path allocates nothing. *)
and exec_instrs st fr = function
  | [] -> ()
  | i :: tl ->
      (if st.ck_track then
         match i.Instr.op with
         | Opcode.Br_call -> st.pos_rest <- List.length tl
         | _ -> ());
      exec_instr st fr i;
      exec_instrs st fr tl

(* Execute from [block] until return, navigating the predecoded tables.
   The walk is a loop over a mutable current block (no per-block state is
   allocated); it terminates only by exception ([Returned] for the normal
   return path, or a fault). *)
(* One issue group.  The sampling phase switch and the checkpoint trigger
   fire *before* the group executes (and before the groups counter
   advances), so a group ending in a taken branch cannot skip them and a
   checkpoint's position is exactly "about to execute group [gi]". *)
and exec_group st (fr : frame) (df : dfunc) (db : dblock) (g : Layout.group)
    (gi : int) =
  (match st.sampling with
  | Some sa ->
      sampling_step st sa;
      sa.Sampling.left <- sa.Sampling.left - 1
  | None -> ());
  if st.c.groups >= st.ck_at then save_checkpoint st fr db gi;
  st.c.groups <- st.c.groups + 1;
  if st.ck_track then begin
    st.pos_blk <- db.db_index;
    st.pos_gi <- gi
  end;
  (* fetch: one access per [bundles_per_cycle]-bundle chunk (32 bytes on
     itanium2) of the group's bundles *)
  let bpc = st.desc.Machine_desc.bundles_per_cycle in
  let chunks = max 1 ((g.Layout.n_bundles + bpc - 1) / bpc) in
  if st.warm then begin
    (* warm fetch: one I-side probe per group keeps the instruction
       hierarchy warm; the line filter makes straight-line and tight-loop
       code a single compare *)
    st.warm_ttl <- st.warm_ttl - 1;
    if st.warm_ttl <= 0 then warm_flush_filters st;
    let line = Cache.line_of st.l1i g.Layout.addr in
    let slot = line land (warm_filter_size - 1) in
    if st.warm_l1i_lines.(slot) <> line then begin
      st.warm_l1i_lines.(slot) <- line;
      if not (Cache.access st.l1i g.Layout.addr) then
        if not (Cache.access st.l2 g.Layout.addr) then
          ignore (Cache.access st.l3 g.Layout.addr)
    end
  end
  else
    for k = 0 to chunks - 1 do
      (* k = 0 (almost always the only chunk) reuses the group's
         address box instead of re-adding an offset of zero *)
      let addr =
        if k = 0 then g.Layout.addr
        else Int64.add g.Layout.addr (Int64.of_int (k * bpc * 16))
      in
      let pen = icache_penalty st addr in
      if pen > 0 then begin
        charge st Accounting.Front_end pen;
        advance st pen
      end
    done;
  st.c.nop_ops <- st.c.nop_ops + g.Layout.n_nops;
  (* issue: one cycle per fetch chunk *)
  charge st Accounting.Unstalled chunks;
  advance st chunks;
  (if st.warm then begin
     (* slow warm path (detail->warm flip mid-block): run the compiled
        ops, converting a deposited jump back into the [Taken] exception
        the surrounding detailed block loop expects *)
     let wops = (warm_ops_of df db).(gi).wg_ops in
     let len = Array.length wops in
     let k = ref 0 in
     while !k < len && st.wjump == None do
       if st.fuel <= 0 then raise Out_of_fuel;
       st.fuel <- st.fuel - 1;
       wops.(!k) st fr;
       incr k
     done;
     match st.wjump with
     | Some ndb ->
         st.wjump <- None;
         raise (Taken ndb.db_block.Block.label)
     | None -> ()
   end
   else exec_instrs st fr g.Layout.instrs);
  (* sampling attribution point: this group's cycles (issue, stalls,
     penalties) belong to the current block *)
  sample_tick st

(* Detailed execution of one block starting at group [gi0]; returns the
   next block.  [gi0] > 0 happens when the warm fast path flips to a
   detail phase mid-block and hands the tail over. *)
and exec_detail_block st (fr : frame) (df : dfunc) (db : dblock)
    (bl : Layout.block_layout) (gi0 : int) =
  try
    let groups = bl.Layout.groups in
    for gi = gi0 to Array.length groups - 1 do
      exec_group st fr df db groups.(gi) gi
    done;
    (* fall through *)
    match db.db_fall with
    | Some ndb -> ndb
    | None ->
        raise
          (Machine_fault
             (fr.func.Func.name ^ ": fell off " ^ db.db_block.Block.label))
  with Taken l -> (
    sample_tick st;
    let tgt =
      if l == df.df_hot_label then df.df_hot_target
      else begin
        let t = Hashtbl.find_opt df.df_by_label l in
        df.df_hot_label <- l;
        df.df_hot_target <- t;
        t
      end
    in
    match tgt with
    | Some ndb -> ndb
    | None -> raise (Machine_fault ("branch to unknown label " ^ l)))

(* Warm (fast-forward) execution of one block; returns the next block.
   The per-group harness is inlined: no checkpoint hook (exclusive with
   sampling), no charges or clock (warm no-ops), the sampling countdown
   decremented in place, and taken branches arrive through the [wjump]
   mailbox with their targets already resolved — no exceptions, no label
   hashing.  When the countdown expires the phase flips to detail and the
   rest of the block is handed to [exec_detail_block]. *)
and exec_warm_block st (fr : frame) (df : dfunc) (db : dblock)
    (bl : Layout.block_layout) =
  let sa =
    match st.sampling with Some sa -> sa | None -> assert false
    (* st.warm is only ever set by [sampling_step] *)
  in
  let wgs = warm_ops_of df db in
  let groups = bl.Layout.groups in
  let n = Array.length groups in
  let next = ref None in
  let gi = ref 0 in
  while !next == None do
    if !gi >= n then
      match db.db_fall with
      | Some _ as ndb -> next := ndb
      | None ->
          raise
            (Machine_fault
               (fr.func.Func.name ^ ": fell off " ^ db.db_block.Block.label))
    else if not st.warm then
      (* a callee's execution flipped the phase; finish detailed *)
      next := Some (exec_detail_block st fr df db bl !gi)
    else if sa.Sampling.left <= 0 then
      (* phase boundary: flips to detail, handled by the branch above *)
      sampling_step st sa
    else begin
      sa.Sampling.left <- sa.Sampling.left - 1;
      st.c.groups <- st.c.groups + 1;
      st.warm_ttl <- st.warm_ttl - 1;
      if st.warm_ttl <= 0 then warm_flush_filters st;
      let g = groups.(!gi) in
      (* warm fetch: one I-side probe per group behind the line filter *)
      let line = Cache.line_of st.l1i g.Layout.addr in
      let slot = line land (warm_filter_size - 1) in
      if st.warm_l1i_lines.(slot) <> line then begin
        st.warm_l1i_lines.(slot) <- line;
        if not (Cache.access st.l1i g.Layout.addr) then
          if not (Cache.access st.l2 g.Layout.addr) then
            ignore (Cache.access st.l3 g.Layout.addr)
      end;
      st.c.nop_ops <- st.c.nop_ops + g.Layout.n_nops;
      let wg = Array.unsafe_get wgs !gi in
      let wops = wg.wg_ops in
      let len = Array.length wops in
      let p = wg.wg_prefix in
      (* pure prefix: one fuel gate, no jump checks (the ops cannot
         deposit one); the under-fuelled slow loop keeps the exhaustion
         point exact *)
      if st.fuel >= p then begin
        st.fuel <- st.fuel - p;
        for k = 0 to p - 1 do
          (Array.unsafe_get wops k) st fr
        done
      end
      else begin
        let k = ref 0 in
        while !k < p do
          if st.fuel <= 0 then raise Out_of_fuel;
          st.fuel <- st.fuel - 1;
          (Array.unsafe_get wops !k) st fr;
          incr k
        done
      end;
      (if p < len then begin
         let k = ref p in
         while !k < len && st.wjump == None do
           if st.fuel <= 0 then raise Out_of_fuel;
           st.fuel <- st.fuel - 1;
           (Array.unsafe_get wops !k) st fr;
           incr k
         done
       end);
      match st.wjump with
      | Some _ as j ->
          st.wjump <- None;
          next := j
      | None -> incr gi
    end
  done;
  match !next with Some ndb -> ndb | None -> assert false

and exec_blocks st (fr : frame) (df : dfunc) (block : dblock) =
  let cur = ref block in
  while true do
    let db = !cur in
    match db.db_layout with
    | None ->
        raise (Machine_fault ("no layout for block " ^ db.db_block.Block.label))
    | Some bl ->
        st.cur_block <- db.db_block.Block.label;
        cur :=
          (if st.warm then exec_warm_block st fr df db bl
           else exec_detail_block st fr df db bl 0)
  done

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
    create ?fuel ?trace ?profile ?experiments ?desc ?sampling ?checkpoint_at
      p layout input
  in
  let main_fr = fresh_frame (Program.find_func_exn p p.Program.entry) in
  main_fr.ints.(Reg.sp.Reg.id) <- Int64.sub Program.stack_top 128L;
  let code =
    try
      match exec_call st main_fr p.Program.entry [] with
      | (v, _) :: _ -> Int64.to_int v
      | [] -> 0
    with Exit_program c -> c
  in
  (* settle any samples still owed to the last attribution point *)
  sample_tick st;
  (match st.sampling with
  | Some sa ->
      st.warm <- false;
      st.sample_summary <-
        Some (Sampling.finalize sa st.acc ~total_groups:st.c.groups)
  | None -> ());
  (code, Buffer.contents st.output, st)

let checkpoint st = st.ck_saved
let sample_summary st = st.sample_summary

(* The fused experiments' final accumulators, in the order the experiment
   list was given; [[||]] when the run carried none. *)
let fused_accounts st =
  match st.exps with
  | None -> [||]
  | Some s -> Accounting.set_accounts s

(* --- resume ---------------------------------------------------------------

   Rebuild a machine from a checkpoint and run it to completion.  The
   decoded tables are rebuilt fresh (they hold a mutable hot-label memo,
   so they are never shared between machines), and the checkpoint's deep
   copies are copied *again* into the new machine, so one checkpoint can
   seed any number of resumed runs — including concurrently, from separate
   domains. *)

let rec drop n = function
  | l when n <= 0 -> l
  | [] -> []
  | _ :: tl -> drop (n - 1) tl

(* Continue a function body from mid-block: when [mid], the instruction
   suffix [tail] of group [gi0] runs first (its fetch/issue charges were
   paid before capture); otherwise group [gi0] itself has not started.
   After the first block the walk rejoins [exec_blocks]. *)
let resume_blocks st (fr : frame) (df : dfunc) (db : dblock) (gi0 : int)
    ~(mid : bool) (tail : Instr.t list) =
  let b = db.db_block in
  match db.db_layout with
  | None -> raise (Machine_fault ("no layout for block " ^ b.Block.label))
  | Some bl ->
      st.cur_block <- b.Block.label;
      let next =
        try
          let groups = bl.Layout.groups in
          let start =
            if mid then begin
              exec_instrs st fr tail;
              sample_tick st;
              gi0 + 1
            end
            else gi0
          in
          for gi = start to Array.length groups - 1 do
            exec_group st fr df db groups.(gi) gi
          done;
          (match db.db_fall with
          | Some ndb -> ndb
          | None ->
              raise
                (Machine_fault (fr.func.Func.name ^ ": fell off " ^ b.Block.label)))
        with Taken l -> (
          sample_tick st;
          match Hashtbl.find_opt df.df_by_label l with
          | Some ndb -> ndb
          | None -> raise (Machine_fault ("branch to unknown label " ^ l)))
      in
      exec_blocks st fr df next

(* Rebuild one checkpointed stack level and run it to completion,
   innermost level first.  For a level interrupted by a call ([ke_rest]
   >= 0) the deeper levels run first, then [exec_call]'s exact return
   sequence is replayed — result binding, sample settlement, attribution
   revert, return-overhead and RSE fill charges — so cycles and samples
   land in the same order as an uninterrupted run. *)
let rec resume_entries st ~caller_func ~caller_block = function
  | [] -> invalid_arg "Machine.resume: empty checkpoint stack"
  | (e : ck_entry) :: deeper ->
      let fr = materialize_frame st e.ke_frame in
      let df =
        match Hashtbl.find_opt st.decoded e.ke_frame.kf_func with
        | Some df -> df
        | None ->
            raise
              (Machine_fault
                 ("resume: unknown function " ^ e.ke_frame.kf_func))
      in
      if e.ke_blk < 0 || e.ke_blk >= Array.length df.df_blocks then
        raise (Machine_fault ("resume: bad block index in " ^ e.ke_frame.kf_func));
      let db = df.df_blocks.(e.ke_blk) in
      st.cur_func <- e.ke_frame.kf_func;
      let result =
        try
          (if e.ke_rest < 0 then
             (* innermost: capture fired just before group [ke_gi] *)
             resume_blocks st fr df db e.ke_gi ~mid:false []
           else begin
             (* a call is in flight inside group [ke_gi]: run the callee
                (and everything below it) to completion first *)
             let bl =
               match db.db_layout with
               | Some bl -> bl
               | None ->
                   raise
                     (Machine_fault
                        ("resume: no layout for block " ^ db.db_block.Block.label))
             in
             let instrs = bl.Layout.groups.(e.ke_gi).Layout.instrs in
             let n = List.length instrs in
             let calli = List.nth instrs (n - e.ke_rest - 1) in
             let results =
               resume_entries st ~caller_func:e.ke_frame.kf_func
                 ~caller_block:db.db_block.Block.label deeper
             in
             st.cur_block <- db.db_block.Block.label;
             bind_results fr calli.Instr.dsts results;
             resume_blocks st fr df db e.ke_gi ~mid:true
               (drop (n - e.ke_rest) instrs)
           end);
          []
        with Returned vs -> vs
      in
      release_frame st fr;
      (* replay [exec_call]'s return sequence *)
      sample_tick st;
      st.cur_func <- caller_func;
      st.cur_block <- caller_block;
      charge st Accounting.Unstalled st.desc.Machine_desc.return_overhead;
      advance st st.desc.Machine_desc.return_overhead;
      let fill_cycles = Rse.on_return st.rse in
      if fill_cycles > 0 then begin
        emit st Epic_obs.Trace.Rse_fill 0L;
        charge st Accounting.Rse fill_cycles;
        advance st fill_cycles
      end;
      result

(* Resume a checkpoint against a structurally identical (program, layout)
   pair; returns (exit code, output, state) like [run], with the output
   including the checkpointed prefix.  Each of [experiments] is applied
   both retroactively to the checkpointed accounting and to the remainder
   of the run.  Fuel defaults to the remaining fuel at capture, so a resumed
   run exhausts at the same point as the uninterrupted one. *)
let resume ?fuel ?trace ?profile ?(experiments = []) ?(desc = Itanium.desc ())
    (p : Program.t) (layout : Layout.t) (ck : checkpoint) =
  if not (String.equal (Machine_desc.digest desc) ck.ck_desc_digest) then
    invalid_arg "Machine.resume: machine description differs from capture";
  Program.assign_addresses p;
  let decoded = Hashtbl.create 64 in
  List.iter
    (fun (f : Func.t) ->
      Hashtbl.replace decoded f.Func.name (decode_func layout f))
    p.Program.funcs;
  let acc = Accounting.copy ck.ck_acc in
  (* each fused experiment resumes from its own copy of the prefix
     accounting with the experiment applied retroactively *)
  let exps =
    if experiments = [] then None
    else Some (Accounting.resume_set ~past:ck.ck_acc experiments)
  in
  let output = Buffer.create (max 256 (String.length ck.ck_output)) in
  Buffer.add_string output ck.ck_output;
  let st =
    {
      program = p;
      layout;
      decoded;
      mem = Memimage.copy ck.ck_mem;
      heap = ck.ck_heap;
      output;
      input = Array.copy ck.ck_input;
      l1i = Cache.copy ck.ck_l1i;
      l1d = Cache.copy ck.ck_l1d;
      l2 = Cache.copy ck.ck_l2;
      l3 = Cache.copy ck.ck_l3;
      dtlb = Tlb.copy ck.ck_dtlb;
      bp = Branch_pred.copy ck.ck_bp;
      rse = Rse.copy ck.ck_rse;
      desc;
      acc;
      c = { ck.ck_counters with useful_ops = ck.ck_counters.useful_ops };
      cycle = ck.ck_cycle;
      sb_work = ck.ck_sb_work;
      sb_last_cycle = ck.ck_sb_last_cycle;
      fuel = (match fuel with Some f -> f | None -> ck.ck_fuel);
      cur_func = "main";
      cur_block = "entry";
      trace;
      prof = profile;
      onat = false;
      ld_extra = 0;
      cur_bins = [||];
      cur_bins_for = "\000";
      exps;
      cur_xbins =
        (match exps with
        | None -> [||]
        | Some s -> Array.make (Accounting.set_size s) [||]);
      syms = Hashtbl.create 32;
      free_frames = [];
      warm = false;
      sampling = None;
      sample_summary = None;
      warm_tlb_pages = Array.make warm_filter_size (-1);
      warm_l1d_lines = Array.make warm_filter_size (-1);
      warm_l2_lines = Array.make warm_filter_size (-1);
      warm_l1i_lines = Array.make warm_filter_size (-1);
      wjump = None;
      warm_ttl = 0;
      ck_track = false;
      ck_at = max_int;
      ck_saved = None;
      ck_stack = [];
      pos_blk = -1;
      pos_gi = 0;
      pos_rest = 0;
    }
  in
  let code =
    try
      match
        resume_entries st ~caller_func:"main" ~caller_block:"entry" ck.ck_calls
      with
      | (v, _) :: _ -> Int64.to_int v
      | [] -> 0
    with Exit_program c -> c
  in
  sample_tick st;
  (code, Buffer.contents st.output, st)
