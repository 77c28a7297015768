(* Cycle accounting into the paper's nine categories (Figure 5), globally
   and binned per function (the Pfmon-style address sampling behind
   Figure 10). *)

type category =
  | Unstalled (* unstalled execution *)
  | Float_scoreboard
  | Misc (* int scoreboard, misc scoreboard, exception flush *)
  | Int_load_bubble (* data cache stall on integer loads *)
  | Micropipe (* memory-subsystem micro-stalls: DTLB walks, store buffer *)
  | Front_end (* instruction cache / fetch bubbles *)
  | Br_mispredict (* branch misprediction flush *)
  | Rse (* register stack engine traffic *)
  | Kernel (* OS time: wild-load page walks, faults *)

let all_categories =
  [
    Unstalled; Float_scoreboard; Misc; Int_load_bubble; Micropipe; Front_end;
    Br_mispredict; Rse; Kernel;
  ]

let index = function
  | Unstalled -> 0
  | Float_scoreboard -> 1
  | Misc -> 2
  | Int_load_bubble -> 3
  | Micropipe -> 4
  | Front_end -> 5
  | Br_mispredict -> 6
  | Rse -> 7
  | Kernel -> 8

let name = function
  | Unstalled -> "unstalled"
  | Float_scoreboard -> "fp-scoreboard"
  | Misc -> "misc"
  | Int_load_bubble -> "int-load-bubble"
  | Micropipe -> "micropipe"
  | Front_end -> "front-end"
  | Br_mispredict -> "br-mispredict"
  | Rse -> "rse"
  | Kernel -> "kernel"

let category_of_name s =
  List.find_opt (fun c -> name c = s) all_categories

(* A causal-profiling virtual speedup (COZ-style): scale the cycles charged
   to one target — a function or a stall category — by [1 - speedup],
   leaving the clock and every model's state untouched.  The experiment
   lives here, at the accounting layer, so the simulator's hot path needs
   no knowledge of it beyond the one [exp_keep] comparison in
   [charge_bins]. *)
type target =
  | Target_func of string
  | Target_category of category
  | Target_func_category of string * category

type experiment = {
  target : target;
  speedup : float;
      (* fraction of the target's charged cycles virtually removed,
         in [0, 1]; 1.0 = the target becomes free (a perfect-* run) *)
}

type t = {
  totals : float array; (* length 9 *)
  by_func : (string, float array) Hashtbl.t;
  (* Experiment state, decomposed for the hot path: [exp_keep] is the
     charge multiplier (1.0 = no experiment: [charge_bins] pays one float
     comparison and nothing else), [exp_cat] the targeted category index
     (-1 = every category), and a function target is matched by physical
     equality against its bins array ([exp_all_funcs] = no function
     filter), so the active-experiment path is allocation-free too. *)
  mutable exp_keep : float;
  mutable exp_cat : int;
  mutable exp_all_funcs : bool;
  mutable exp_bins : float array;
}

let create () =
  {
    totals = Array.make 9 0.;
    by_func = Hashtbl.create 32;
    exp_keep = 1.0;
    exp_cat = -1;
    exp_all_funcs = true;
    exp_bins = [||];
  }

let bins t (func : string) =
  match Hashtbl.find_opt t.by_func func with
  | Some b -> b
  | None ->
      let b = Array.make 9 0. in
      Hashtbl.replace t.by_func func b;
      b

let set_experiment t = function
  | None ->
      t.exp_keep <- 1.0;
      t.exp_cat <- -1;
      t.exp_all_funcs <- true;
      t.exp_bins <- [||]
  | Some { target; speedup } ->
      if not (speedup >= 0. && speedup <= 1.) then
        invalid_arg "Accounting.set_experiment: speedup must be in [0, 1]";
      (* a 0% speedup leaves exp_keep at 1.0: the no-op experiment takes
         the inactive fast path and is bit-identical to no experiment *)
      t.exp_keep <- 1.0 -. speedup;
      (match target with
      | Target_category cat ->
          t.exp_cat <- index cat;
          t.exp_all_funcs <- true;
          t.exp_bins <- [||]
      | Target_func f ->
          t.exp_cat <- -1;
          t.exp_all_funcs <- false;
          (* pin the target's bins now: matching is then one physical
             equality against the array the caller already holds *)
          t.exp_bins <- bins t f
      | Target_func_category (f, cat) ->
          (* both filters at once; [charge_bins] already conjoins them *)
          t.exp_cat <- index cat;
          t.exp_all_funcs <- false;
          t.exp_bins <- bins t f)

let experiment_active t = t.exp_keep <> 1.0

(* Deep copy for checkpointing: totals and every per-function bin get
   private arrays; the experiment state is reset to inactive (the resumer
   installs its own with [set_experiment]).  [Hashtbl.copy] preserves the
   table's internal layout, so a resumed run that adds the same functions
   in the same order folds in the same order as the uninterrupted one. *)
let copy t =
  let by_func = Hashtbl.copy t.by_func in
  Hashtbl.filter_map_inplace (fun _ b -> Some (Array.copy b)) by_func;
  {
    totals = Array.copy t.totals;
    by_func;
    exp_keep = 1.0;
    exp_cat = -1;
    exp_all_funcs = true;
    exp_bins = [||];
  }

(* Retroactively apply an experiment to already-charged cycles: scale the
   target's bins (and the totals they contributed) by [1 - speedup], as if
   every matching past charge had gone through the active experiment.
   Used when resuming a checkpointed prefix under an experiment the prefix
   was simulated without; exact in real arithmetic, within an ulp or two
   of the straight-through run in floats (and bit-exact at speedup 0 and,
   for the bins themselves, at speedup 1). *)
let apply_experiment_to_past t { target; speedup } =
  let keep = 1.0 -. speedup in
  if keep <> 1.0 then begin
    let adjust (b : float array) k =
      let old = b.(k) in
      if old <> 0. then begin
        let nw = old *. keep in
        t.totals.(k) <- t.totals.(k) -. old +. nw;
        b.(k) <- nw
      end
    in
    match target with
    | Target_category cat ->
        let k = index cat in
        Hashtbl.iter (fun _ b -> adjust b k) t.by_func
    | Target_func f -> (
        match Hashtbl.find_opt t.by_func f with
        | None -> ()
        | Some b ->
            for k = 0 to 8 do
              adjust b k
            done)
    | Target_func_category (f, cat) -> (
        match Hashtbl.find_opt t.by_func f with
        | None -> ()
        | Some b -> adjust b (index cat))
  end

(* --- fused experiment sets ------------------------------------------------
   N concurrent virtual-speedup experiments over one simulated instruction
   stream.  Each experiment owns a full accumulator with the experiment
   installed through the ordinary [set_experiment], but a charge is routed
   only to the experiments that can change it: those whose filter admits
   its category ([exp_keep <> 1.0] and [exp_cat] = -1 or the charge's
   category).  Every charge also goes, unscaled and once, to [base].

   That stays bit-exact because of what a serial run of one experiment
   puts into a category it does not route: only unscaled
   [float_of_int cycles] charges, so each such column (its total and every
   function's bin) is an integer sum — exact in any order below 2^53 —
   and therefore equal to [base]'s column bit for bit.  [set_accounts],
   the only way to read the set, copies [base]'s unrouted columns over
   first; a sampled run extrapolates [base] alongside the experiments
   (see [Sampling.attach]).  A routed column sees exactly the charge
   sequence the lone accumulator sees, through the same [charge_bins].
   The host accumulator (the machine's own) is charged as usual and stays
   bit-identical to a run with no experiments at all. *)
type exp_set = {
  xexps : experiment array;
  xacc : t array; (* one accumulator per experiment, same order *)
  base : t; (* every charge, unscaled *)
  mutable base_bins : float array; (* [base]'s bins for the current function *)
  route : int array array;
      (* [route.(k)]: the experiments a category-[k] charge can change *)
  unrouted : int array array;
      (* [unrouted.(i)]: the categories experiment [i] takes from [base] *)
}

let routes (a : t) k = a.exp_keep <> 1.0 && (a.exp_cat = -1 || a.exp_cat = k)

let set_of ~base (xexps : experiment array) (xacc : t array) =
  let pick n keep = Array.of_list (List.filter keep (List.init n Fun.id)) in
  let n = Array.length xacc in
  {
    xexps;
    xacc;
    base;
    base_bins = [||];
    route = Array.init 9 (fun k -> pick n (fun i -> routes xacc.(i) k));
    unrouted =
      Array.map (fun a -> pick 9 (fun k -> not (routes a k))) xacc;
  }

let make_set (exps : experiment list) =
  let xexps = Array.of_list exps in
  let xacc =
    Array.map
      (fun e ->
        let a = create () in
        set_experiment a (Some e);
        a)
      xexps
  in
  set_of ~base:(create ()) xexps xacc

(* A set for resuming a checkpointed prefix: each accumulator starts from
   a private copy of the prefix accounting with the experiment applied
   retroactively — within an ulp of the straight-through fused run, for
   the same reason [apply_experiment_to_past] is (see above).  [base]
   starts from a plain copy: the retroactive scaling touches only routed
   columns, so the unrouted ones still equal the prefix's. *)
let resume_set ~(past : t) (exps : experiment list) =
  let xexps = Array.of_list exps in
  let xacc =
    Array.map
      (fun e ->
        let a = copy past in
        set_experiment a (Some e);
        apply_experiment_to_past a e;
        a)
      xexps
  in
  set_of ~base:(copy past) xexps xacc

let set_size (s : exp_set) = Array.length s.xacc
let set_experiments (s : exp_set) = s.xexps
let set_base (s : exp_set) = s.base

(* Copy [base]'s unrouted categories, totals and every function's bins,
   into each experiment's accumulator: after this each equals the lone
   accumulator of its serial run. *)
let set_accounts (s : exp_set) =
  Array.iteri
    (fun i (a : t) ->
      Array.iter (fun k -> a.totals.(k) <- s.base.totals.(k)) s.unrouted.(i))
    s.xacc;
  Hashtbl.iter
    (fun f (bb : float array) ->
      Array.iteri
        (fun i a ->
          let ks = s.unrouted.(i) in
          if Array.length ks > 0 then begin
            let b = bins a f in
            Array.iter (fun k -> b.(k) <- bb.(k)) ks
          end)
        s.xacc)
    s.base.by_func;
  s.xacc

(* Refill the caller's per-experiment bins scratch for [func]: slot [i]
   becomes [func]'s live bins array in experiment [i]'s accumulator.  The
   bins are created on demand in every accumulator, routed or not, exactly
   as a serial run's first charge under [func] would create them — so
   each accumulator's [by_func] layout (and fold order) is the serial
   one. *)
let set_bins (s : exp_set) (bs : float array array) (func : string) =
  s.base_bins <- bins s.base func;
  for i = 0 to Array.length s.xacc - 1 do
    bs.(i) <- bins s.xacc.(i) func
  done

(* Hot-path variant: the caller has already fetched (and may cache) the
   function's bins, so a charge is two array updates with no string
   hashing.  [charge] below remains the convenience form.  With no (or a
   no-op) experiment the only overhead over the seed is the [exp_keep]
   comparison; [c] stays the exact [float_of_int cycles], so inactive runs
   are bit-identical to pre-hook accounting. *)
let charge_bins t (b : float array) (cat : category) (cycles : int) =
  if cycles > 0 then begin
    let k = index cat in
    let c = float_of_int cycles in
    let c =
      if t.exp_keep = 1.0 then c
      else if
        (t.exp_cat = -1 || t.exp_cat = k)
        && (t.exp_all_funcs || t.exp_bins == b)
      then c *. t.exp_keep
      else c
    in
    t.totals.(k) <- t.totals.(k) +. c;
    b.(k) <- b.(k) +. c
  end

let charge t (func : string) (cat : category) (cycles : int) =
  if cycles > 0 then charge_bins t (bins t func) cat cycles

(* Fused hot path: one simulator charge goes to [base] and, through the
   ordinary [charge_bins], to the experiments routed for its category,
   each against its own cached bins for the current function (see
   [set_bins]).  A speedup-0.0 experiment is routed nowhere. *)
let charge_set (s : exp_set) (bs : float array array) (cat : category)
    (cycles : int) =
  if cycles > 0 then begin
    charge_bins s.base s.base_bins cat cycles;
    let r = s.route.(index cat) in
    for j = 0 to Array.length r - 1 do
      let i = r.(j) in
      charge_bins s.xacc.(i) bs.(i) cat cycles
    done
  end

let total t = Array.fold_left ( +. ) 0. t.totals
let get t cat = t.totals.(index cat)

(* The paper's "planned" cycles (footnote 4): unstalled plus the scoreboard
   components — everything the compiler could statically anticipate. *)
let planned t = get t Unstalled +. get t Float_scoreboard +. get t Misc

let func_total t fname =
  match Hashtbl.find_opt t.by_func fname with
  | Some b -> Array.fold_left ( +. ) 0. b
  | None -> 0.

let functions t = Hashtbl.fold (fun f _ acc -> f :: acc) t.by_func []

let pp ppf t =
  List.iter
    (fun c -> Fmt.pf ppf "%-16s %12.0f@." (name c) (get t c))
    all_categories;
  Fmt.pf ppf "%-16s %12.0f@." "TOTAL" (total t)
