(* The pass manager: every transform of the Figure-4 pipeline is a
   registered pass declaring the analyses it requires and preserves.  The
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
  fp_requires : Cache.kind list;
  fp_preserves : Cache.kind list;
  fp_run : Cache.t -> Func.t -> bool;
}

type prog_pass = {
  pp_name : string;
  pp_requires : Cache.kind list;
  pp_preserves : Cache.kind list;
  pp_run : Cache.t -> Program.t -> changes;
}

type pass = Func_pass of func_pass | Prog_pass of prog_pass

let pass_name = function
  | Func_pass p -> p.fp_name
  | Prog_pass p -> p.pp_name

let func_pass ?(requires = []) ?(preserves = []) name run =
  Func_pass
    { fp_name = name; fp_requires = requires; fp_preserves = preserves; fp_run = run }

let prog_pass ?(requires = []) ?(preserves = []) name run =
  Prog_pass
    { pp_name = name; pp_requires = requires; pp_preserves = preserves; pp_run = run }

type t = {
  program : Program.t;
  cache : Cache.t;
  obs : Epic_obs.Passes.t;
  registry : (string, pass) Hashtbl.t;
  order : string list ref; (* registration order, for introspection *)
  dirty : (string, unit) Hashtbl.t;
}

let create ?obs program =
  let obs = match obs with Some o -> o | None -> Epic_obs.Passes.create () in
  let t =
    {
      program;
      cache = Cache.create ();
      obs;
      registry = Hashtbl.create 32;
      order = ref [];
      dirty = Hashtbl.create 16;
    }
  in
  (* everything starts dirty: nothing has reached a fixed point yet *)
  List.iter
    (fun (f : Func.t) -> Hashtbl.replace t.dirty f.Func.name ())
    program.Program.funcs;
  t

let cache t = t.cache
let obs t = t.obs
let program t = t.program

let register t pass =
  let name = pass_name pass in
  if Hashtbl.mem t.registry name then
    invalid_arg ("Passman.register: duplicate pass " ^ name);
  Hashtbl.replace t.registry name pass;
  t.order := name :: !(t.order)

let find t name =
  match Hashtbl.find_opt t.registry name with
  | Some p -> p
  | None -> invalid_arg ("Passman.find: unregistered pass " ^ name)

let registered t = List.rev !(t.order)

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
  match find t name with
  | Func_pass fp ->
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
  | Prog_pass pp ->
      phase t ~name:pp.pp_name ~preserves:pp.pp_preserves (fun t ->
          let ch = pp.pp_run t.cache t.program in
          (ch, ch))

(* --- the classical fixed point as a dirty-function worklist -------------- *)

(* Run the registered [cleanup] function passes to a per-function fixed
   point — but only over the functions currently on the dirty worklist.  A
   function no pass has touched since it last reached its fixed point is
   skipped entirely: re-running the cleanup passes on it would be the
   identity.  The optional [licm] pass then visits every function (LICM is
   not skippable for clean functions: a second run can hoist chain tails
   whose defining instruction the first run's scan order visited too late),
   followed by up to [post_rounds] more cleanup rounds where it moved code.

   Processing is per-function (each function runs to its own fixed point
   before the next starts); since every cleanup pass is intra-procedural
   this reaches exactly the same IR as the classic whole-program rounds.  A
   function whose round budget ran out while it was still changing stays on
   the dirty worklist for the next fixed point to finish.

   Returns the instrumented round count: max cleanup rounds over the dirty
   functions plus max post-LICM rounds over the functions LICM changed —
   the same count the classic whole-program iteration reports. *)
let fixed_point t ~name ?(max_rounds = 8) ?(post_rounds = 3) ~cleanup ?licm ()
    =
  let as_func_pass n =
    match find t n with
    | Func_pass fp -> fp
    | Prog_pass _ -> invalid_arg ("Passman.fixed_point: not a function pass: " ^ n)
  in
  let cleanup_passes = List.map as_func_pass cleanup in
  let licm_pass = Option.map as_func_pass licm in
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
      (match licm_pass with
      | Some lp ->
          let moved_any = ref false in
          List.iter
            (fun (f : Func.t) ->
              if run_one lp f then begin
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
              (dirty_funcs t)
      | None -> ());
      (!max_a + !max_b, Unchanged))
