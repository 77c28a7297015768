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
   leaving the clock and every model's state untouched.  Nothing in the
   simulation reads the accounting, so an experiment is a function of the
   plain run's bins, evaluated when it is read ([apply]); the charge path
   knows nothing of it. *)
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
}

let create () = { totals = Array.make 9 0.; by_func = Hashtbl.create 32 }

let bins t (func : string) =
  match Hashtbl.find_opt t.by_func func with
  | Some b -> b
  | None ->
      let b = Array.make 9 0. in
      Hashtbl.replace t.by_func func b;
      b

(* Deep copy: totals and every per-function bin get private arrays.
   [Hashtbl.copy] preserves the table's internal layout, so a resumed run
   that adds the same functions in the same order folds in the same order
   as the uninterrupted one. *)
let copy t =
  let by_func = Hashtbl.copy t.by_func in
  Hashtbl.filter_map_inplace (fun _ b -> Some (Array.copy b)) by_func;
  { totals = Array.copy t.totals; by_func }

(* An experiment read off a finished (or running) accounting: a fresh
   accounting equal to what charging every matching cycle scaled by
   [keep = 1 - speedup] would have added up.  Every charge is a whole
   number of cycles, so each bin and total is an integer sum, exact in
   any order below 2^53; scaling that sum once is exact for a dyadic
   [keep] and otherwise rounds once, where scaling each charge rounds
   once per charge.  A function target's bins are created (as zeros if it
   never charged), as a run carrying the experiment would have. *)
let apply t { target; speedup } =
  if not (speedup >= 0. && speedup <= 1.) then
    invalid_arg "Accounting.apply: speedup must be in [0, 1]";
  let keep = 1.0 -. speedup in
  let r = copy t in
  (* one (function, category) bin: the total loses what the bin loses *)
  let scale_bin (b : float array) k =
    r.totals.(k) <- r.totals.(k) -. b.(k) +. (keep *. b.(k));
    b.(k) <- keep *. b.(k)
  in
  (match target with
  | Target_category cat ->
      let k = index cat in
      r.totals.(k) <- keep *. r.totals.(k);
      Hashtbl.iter (fun _ (b : float array) -> b.(k) <- keep *. b.(k)) r.by_func
  | Target_func f ->
      let b = bins r f in
      for k = 0 to 8 do
        scale_bin b k
      done
  | Target_func_category (f, cat) -> scale_bin (bins r f) (index cat));
  r

(* Attribute [cycles] to [cat], globally and in [func]'s bins.  The
   simulator's charge path ([Machine.charge]) makes the same two additions
   on bins it keeps in hand, with no string hashing. *)
let charge t (func : string) (cat : category) (cycles : int) =
  if cycles > 0 then begin
    let b = bins t func in
    let k = index cat in
    let c = float_of_int cycles in
    t.totals.(k) <- t.totals.(k) +. c;
    b.(k) <- b.(k) +. c
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
