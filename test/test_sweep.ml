(* Machine-description plumbing and the sensitivity-sweep subsystem:
   non-default geometries must actually change the component models in the
   expected direction, the default description must reproduce the seed
   behaviour exactly, and the sweep matrix's perfect-* cells — category
   suppressions riding their ablation's itanium2 simulation — must zero
   exactly the targeted accounting category. *)

open Epic_sim
module Md = Epic_mach.Machine_desc
module Sweep = Epic_sweep.Sweep

(* Halving the L1I size halves the sets: a round-robin stream of 24
   distinct lines fits the full 32-line cache (cold misses only) but
   thrashes the halved 16-line one (LRU round-robin always evicts the
   next line needed). *)
let test_cache_geometry () =
  let stream cache =
    Cache.reset cache;
    for _round = 1 to 50 do
      for k = 0 to 23 do
        ignore (Cache.access_line cache (Cache.line_of cache (Int64.of_int (k * 64))))
      done
    done;
    cache.Cache.misses
  in
  let g = Md.itanium2.Md.l1i in
  let full =
    Cache.create ~name:"l1i" ~size:g.Md.size ~line:g.Md.line ~assoc:g.Md.assoc
  in
  let half =
    Cache.create ~name:"l1i/2" ~size:(g.Md.size / 2) ~line:g.Md.line
      ~assoc:g.Md.assoc
  in
  let m_full = stream full and m_half = stream half in
  Alcotest.(check int) "full cache: cold misses only" 24 m_full;
  Alcotest.(check bool)
    (Printf.sprintf "half cache misses at least doubles (%d vs %d)" m_half
       m_full)
    true
    (m_half >= 2 * m_full)

(* A 4-entry DTLB thrashes on an 8-page round-robin that a 32-entry one
   absorbs after the cold misses. *)
let test_tlb_geometry () =
  let stream tlb =
    Tlb.reset tlb;
    for _round = 1 to 50 do
      for p = 0 to 7 do
        let addr = Int64.of_int (p * 1 lsl 20) in
        if not (Tlb.lookup_page tlb (Tlb.page_of addr)) then Tlb.fill_page tlb (Tlb.page_of addr)
      done
    done;
    tlb.Tlb.misses
  in
  let big = Tlb.create ~entries:Md.itanium2.Md.dtlb_entries () in
  let tiny = Tlb.create ~entries:4 () in
  let m_big = stream big and m_tiny = stream tiny in
  Alcotest.(check int) "32 entries: cold misses only" 8 m_big;
  Alcotest.(check bool)
    (Printf.sprintf "4 entries thrash (%d vs %d)" m_tiny m_big)
    true
    (m_tiny >= 2 * m_big)

(* A small table aliases biased sites that the full table keeps apart:
   64 sites whose (fixed) outcome is their bit 4, which a 16-entry index
   discards — aliased sites disagree and thrash the shared counter, while
   the 4096-entry table gives every site its own.  History is disabled on
   both so the comparison isolates table size. *)
let test_predictor_geometry () =
  let stream bp =
    for _round = 1 to 100 do
      for site = 0 to 63 do
        let taken = site land 16 <> 0 in
        ignore (Branch_pred.predict_and_update bp site taken)
      done
    done;
    bp.Branch_pred.mispredictions
  in
  let big =
    Branch_pred.create ~bits:Md.itanium2.Md.bp_bits ~history_bits:0 ()
  in
  let small = Branch_pred.create ~bits:4 ~history_bits:0 () in
  let m_big = stream big and m_small = stream small in
  Alcotest.(check bool)
    (Printf.sprintf "small table mispredicts at least as much (%d vs %d)"
       m_small m_big)
    true
    (m_small >= m_big)

(* The default description is the single source of the seed's machine
   constants: compiling and simulating under an explicit
   [Machine_desc.itanium2] must reproduce the default-run metrics JSON
   byte-for-byte (wall-clock normalized). *)
let test_default_desc_identity () =
  let w = Epic_workloads.Suite.find_exn "gzip" in
  let norm r =
    Epic_obs.Json.to_string ~pretty:true
      (Epic_core.Export.normalize_time (Epic_core.Export.run_to_json r))
  in
  let implicit = Epic_core.Experiments.run_one w Epic_core.Config.ILP_CS in
  let explicit_ =
    Epic_core.Experiments.run_one ~desc:Md.itanium2 w Epic_core.Config.ILP_CS
  in
  Alcotest.(check string)
    "explicit itanium2 desc == default" (norm implicit) (norm explicit_)

(* Matrix smoke: two workloads x (itanium2 + three variants) x (ILP-CS,
   no-peel).  Each perfect-* cell is its ablation's itanium2 simulation
   with one category's charges zeroed: the targeted category is exactly
   0.0 and the other eight are bitwise the itanium2 cell's, for the
   baseline ablation and for no-peel alike, and every such cell is
   fused.  Doubling memory latency can never be faster. *)
let test_sweep_matrix () =
  let variants =
    List.map
      (fun n -> Option.get (Sweep.find_variant n))
      [ "itanium2"; "perfect-icache"; "perfect-predictor"; "2x-mem-latency" ]
  in
  let ablations =
    List.map (fun n -> Option.get (Sweep.find_ablation n)) [ "ILP-CS"; "no-peel" ]
  in
  let r =
    Sweep.run ~variants ~ablations ~workloads:[ "gzip"; "twolf" ]
      (Epic_core.Matrix.direct ~jobs:2)
  in
  (* per workload: 4 variants x 2 ablations, less the baseline cell *)
  Alcotest.(check int) "cells" 14 (List.length r.Sweep.r_cells);
  Alcotest.(check (list pass)) "no mismatches" [] (Sweep.mismatches r);
  Alcotest.(check int) "fused cells: 2 suppressions x 2 ablations x 2 workloads"
    8 r.Sweep.r_fused_cells;
  Alcotest.(check int) "sims: (itanium2, 2x-mem-latency) x 2 ablations x 2 workloads"
    8 r.Sweep.r_sims;
  let itanium2_cell w a =
    if a = Sweep.baseline_ablation.Sweep.a_name then Sweep.baseline_of r w
    else
      List.find
        (fun (c : Sweep.cell) ->
          c.Sweep.c_workload = w && c.Sweep.c_variant = "itanium2"
          && c.Sweep.c_ablation = a)
        r.Sweep.r_cells
  in
  List.iter
    (fun (c : Sweep.cell) ->
      let h = itanium2_cell c.Sweep.c_workload c.Sweep.c_ablation in
      let name =
        Printf.sprintf "%s/%s/%s" c.Sweep.c_workload c.Sweep.c_variant
          c.Sweep.c_ablation
      in
      let suppressed target =
        Alcotest.(check bool) (name ^ ": fused") true c.Sweep.c_fused;
        Alcotest.(check bool) (name ^ ": never slower") true
          (c.Sweep.c_cycles <= h.Sweep.c_cycles);
        Alcotest.(check bool)
          (name ^ ": targeted category charged on itanium2")
          true
          (h.Sweep.c_categories.(Accounting.index target) > 0.);
        List.iter
          (fun cat ->
            let k = Accounting.index cat in
            if cat = target then
              Alcotest.(check int64)
                (Printf.sprintf "%s: %s exactly 0.0" name (Accounting.name cat))
                (Int64.bits_of_float 0.0)
                (Int64.bits_of_float c.Sweep.c_categories.(k))
            else
              Alcotest.(check int64)
                (Printf.sprintf "%s: %s bitwise itanium2's" name
                   (Accounting.name cat))
                (Int64.bits_of_float h.Sweep.c_categories.(k))
                (Int64.bits_of_float c.Sweep.c_categories.(k)))
          Accounting.all_categories
      in
      match c.Sweep.c_variant with
      | "perfect-icache" -> suppressed Accounting.Front_end
      | "perfect-predictor" -> suppressed Accounting.Br_mispredict
      | "2x-mem-latency" ->
          Alcotest.(check bool) (name ^ ": not fused") false c.Sweep.c_fused;
          Alcotest.(check bool) (name ^ ": never faster") true
            (c.Sweep.c_cycles >= h.Sweep.c_cycles)
      | "itanium2" ->
          Alcotest.(check bool) (name ^ ": not fused") false c.Sweep.c_fused
      | v -> Alcotest.failf "unexpected variant %s" v)
    r.Sweep.r_cells;
  (* the tornado covers every (variant, ablation) combo exactly once *)
  Alcotest.(check int) "tornado rows" 7 (List.length r.Sweep.r_tornado)

let suite =
  [
    Alcotest.test_case "cache: halved L1I doubles conflict misses" `Quick
      test_cache_geometry;
    Alcotest.test_case "tlb: tiny DTLB thrashes" `Quick test_tlb_geometry;
    Alcotest.test_case "predictor: small table aliases" `Quick
      test_predictor_geometry;
    Alcotest.test_case "default desc reproduces seed metrics" `Slow
      test_default_desc_identity;
    Alcotest.test_case "sweep matrix: signs and confinement" `Slow
      test_sweep_matrix;
  ]
