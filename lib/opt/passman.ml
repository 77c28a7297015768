(* The pass manager: every transform of the Figure-4 pipeline is a
   registered pass declaring the analyses it preserves.  The
   manager owns the per-function analysis cache (Epic_analysis.Cache), a
   dirty-function set driving the classical fixed point's worklist, and the
   per-phase instrumentation (wall time, rounds, IR deltas, cache hit/miss
   counters) flowing into Epic_obs.Passes. *)

open Epic_ir
module Cache = Epic_analysis.Cache

type changes =
  | Unchanged
  | Changed of string list (* names of the functions mutated *)
  | Changed_all

type func_pass = {
  fp_name : string;
  fp_preserves : Cache.kind list;
  fp_run : Cache.t -> Func.t -> bool;
}

let func_pass ?(preserves = []) name run =
  { fp_name = name; fp_preserves = preserves; fp_run = run }

type t = {
  program : Program.t;
  cache : Cache.t;
  obs : Epic_obs.Passes.t;
  registry : (string, func_pass) Hashtbl.t;
  dirty : (string, unit) Hashtbl.t;
}

let create ~obs program =
  let t =
    {
      program;
      cache = Cache.create ();
      obs;
      registry = Hashtbl.create 32;
      dirty = Hashtbl.create 16;
    }
  in
  (* everything starts dirty: nothing has reached a fixed point yet *)
  List.iter
    (fun (f : Func.t) -> Hashtbl.replace t.dirty f.Func.name ())
    program.Program.funcs;
  t

let cache t = t.cache
let program t = t.program

let register t pass =
  let name = pass.fp_name in
  if Hashtbl.mem t.registry name then
    invalid_arg ("Passman.register: duplicate pass " ^ name);
  Hashtbl.replace t.registry name pass

let find t name =
  match Hashtbl.find_opt t.registry name with
  | Some p -> p
  | None -> invalid_arg ("Passman.find: unregistered pass " ^ name)

(* --- dirty-function tracking -------------------------------------------- *)

let mark_dirty t fname = Hashtbl.replace t.dirty fname ()

let mark_all_dirty t =
  List.iter
    (fun (f : Func.t) -> Hashtbl.replace t.dirty f.Func.name ())
    t.program.Program.funcs

let mark_clean t fname = Hashtbl.remove t.dirty fname

let is_dirty t fname = Hashtbl.mem t.dirty fname

(* Dirty functions, in program (definition) order for determinism. *)
let dirty_funcs t =
  List.filter
    (fun (f : Func.t) -> Hashtbl.mem t.dirty f.Func.name)
    t.program.Program.funcs

(* Record a pass's reported mutations: drop the non-preserved analysis
   entries of every changed function and put it on the dirty worklist. *)
let note_changes t ~preserves = function
  | Unchanged -> ()
  | Changed names ->
      List.iter
        (fun n ->
          Cache.invalidate t.cache ~preserve:preserves n;
          mark_dirty t n)
        names
  | Changed_all ->
      Cache.invalidate_all t.cache ~preserve:preserves ();
      mark_all_dirty t

(* --- instrumentation ----------------------------------------------------- *)

(* IR-size measurement: instruction and block counts, plus estimated code
   bytes (16-byte bundles at the architectural 3-ops-per-bundle density —
   exact only after layout). *)
let ir_measure (p : Program.t) =
  let instrs = Program.instr_count p in
  let blocks =
    List.fold_left
      (fun acc (f : Func.t) -> acc + List.length f.Func.blocks)
      0 p.Program.funcs
  in
  (instrs, blocks, (instrs + 2) / 3 * 16)

(* Run [f] as a named, instrumented phase: wall time, IR deltas, the cache
   hit/miss counters it incurred, and the fixed-point rounds extracted from
   its result by [rounds_of].  The returned [changes] are applied under
   [preserves]. *)
let phase t ~name ?(rounds_of = fun _ -> 1) ?(preserves = []) f =
  let i0, b0, y0 = ir_measure t.program in
  let c0 = Cache.stats t.cache in
  let t0 = Unix.gettimeofday () in
  let r, changes = f t in
  let dt = Unix.gettimeofday () -. t0 in
  let i1, b1, y1 = ir_measure t.program in
  note_changes t ~preserves changes;
  Epic_obs.Passes.add t.obs ~name ~wall_s:dt ~rounds:(rounds_of r)
    ~instrs:(i0, i1) ~blocks:(b0, b1) ~bytes:(y0, y1)
    ~cache:(Cache.diff_rows c0 (Cache.stats t.cache))
    ();
  r

(* Run one registered pass over the whole program as an instrumented phase.
   A function pass visits every function and reports per-function
   Changed/Unchanged; the manager invalidates and dirties exactly the
   changed ones. *)
let run_pass t name =
  let fp = find t name in
  phase t ~name:fp.fp_name ~preserves:fp.fp_preserves (fun t ->
      let changed =
        List.filter_map
          (fun (f : Func.t) ->
            if fp.fp_run t.cache f then Some f.Func.name else None)
          t.program.Program.funcs
      in
      match changed with
      | [] -> (Unchanged, Unchanged)
      | l -> (Changed l, Changed l))

(* --- the classical fixed point as a dirty-function worklist -------------- *)

(* Run the registered [cleanup] function passes to a per-function fixed
   point — but only over the functions currently on the dirty worklist.  A
   function no pass has touched since it last reached its fixed point is
   skipped entirely: re-running the cleanup passes on it would be the
   identity.  The [licm] pass then visits every function (LICM is not
   skippable for clean functions: a second run can hoist chain tails whose
   defining instruction the first run's scan order visited too late),
   followed by up to [post_rounds] more cleanup rounds where it moved code.
   A function gets at most [max_rounds] cleanup rounds before LICM.

   Processing is per-function (each function runs to its own fixed point
   before the next starts); since every cleanup pass is intra-procedural
   this reaches exactly the same IR as the classic whole-program rounds.  A
   function whose round budget ran out while it was still changing stays on
   the dirty worklist for the next fixed point to finish.

   Returns the instrumented round count: max cleanup rounds over the dirty
   functions plus max post-LICM rounds over the functions LICM changed —
   the same count the classic whole-program iteration reports. *)
let max_rounds = 8
let post_rounds = 3

let fixed_point t ~name ~cleanup ~licm =
  let cleanup_passes = List.map (find t) cleanup in
  let licm_pass = find t licm in
  let run_one (fp : func_pass) (f : Func.t) =
    let changed = fp.fp_run t.cache f in
    if changed then
      Cache.invalidate t.cache ~preserve:fp.fp_preserves f.Func.name;
    changed
  in
  let cleanup_round f =
    List.fold_left (fun acc fp -> run_one fp f || acc) false cleanup_passes
  in
  (* Iterate cleanup rounds on [f]; counts rounds into [rounds].  Returns
     true when [f] stabilized (a round ran without changes), false when the
     budget ran out first. *)
  let rec go f rounds budget =
    if budget = 0 then false
    else if cleanup_round f then begin
      incr rounds;
      go f rounds (budget - 1)
    end
    else true
  in
  phase t ~name ~rounds_of:(fun r -> r) (fun t ->
      let max_a = ref 0 and max_b = ref 0 in
      (* phase A: cleanup fixed point over the dirty worklist only *)
      List.iter
        (fun (f : Func.t) ->
          let rounds = ref 0 in
          let stable = go f rounds max_rounds in
          if stable then mark_clean t f.Func.name;
          if !rounds > !max_a then max_a := !rounds)
        (dirty_funcs t);
      (* phase B: LICM over every function, then — exactly as the classic
         pipeline gated its post-LICM rounds on "did LICM move anything
         anywhere" — cleanup over whatever is dirty: the functions LICM
         changed plus any whose phase-A budget ran out *)
      let moved_any = ref false in
      List.iter
        (fun (f : Func.t) ->
          if run_one licm_pass f then begin
            moved_any := true;
            mark_dirty t f.Func.name
          end)
        t.program.Program.funcs;
      if !moved_any then
        List.iter
          (fun (f : Func.t) ->
            let rounds = ref 0 in
            let stable = go f rounds post_rounds in
            if stable then mark_clean t f.Func.name;
            if !rounds > !max_b then max_b := !rounds)
          (dirty_funcs t);
      (!max_a + !max_b, Unchanged))
