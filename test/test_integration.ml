(* Integration and property-based tests.

   The centerpiece is differential testing: randomly generated mini-C
   programs are compiled at every optimization level and executed both by
   the reference interpreter and by the machine simulator; all observable
   behaviour (exit code, printed output) must agree.  This exercises the
   whole stack — parser, lowering, classical opts, structural transforms,
   speculation, register allocation, scheduling, bundling and the
   simulator — against a single oracle. *)

let check = Alcotest.check
let ci = Alcotest.int
let cs = Alcotest.string
let cb = Alcotest.bool

(* --- differential property (generator shared with bin/fuzz.ml) --------- *)

let qcheck_differential =
  QCheck.Test.make ~count:25
    ~name:"random programs behave identically at every level (interp + machine)"
    (QCheck.make ~print:(fun s -> s) Epic_core.Random_program.Gen.program)
    (fun src -> Epic_core.Random_program.agrees src [| 5L |])

let reference_behaviour src input =
  let p = Epic_frontend.Lower.compile_source src in
  let code, out, _ = Epic_ir.Interp.run ~fuel:4_000_000 p input in
  (code, out)

(* --- workload integration ------------------------------------------------- *)

let test_all_workloads_parse_and_run () =
  List.iter
    (fun (w : Epic_workloads.Workload.t) ->
      let p = Epic_frontend.Lower.compile_source w.Epic_workloads.Workload.source in
      Epic_ir.Verify.check_program p;
      let code, out, _ = Epic_ir.Interp.run p w.Epic_workloads.Workload.train in
      check ci (w.Epic_workloads.Workload.short ^ " exits 0") 0 code;
      check cb (w.Epic_workloads.Workload.short ^ " prints") true (String.length out > 0);
      (* deterministic: a second run gives identical output *)
      let _, out2, _ = Epic_ir.Interp.run p w.Epic_workloads.Workload.train in
      check cs (w.Epic_workloads.Workload.short ^ " deterministic") out out2)
    Epic_workloads.Suite.all

let test_workload_inputs_differ () =
  (* train and reference inputs must exercise different behaviour *)
  List.iter
    (fun (w : Epic_workloads.Workload.t) ->
      let p = Epic_frontend.Lower.compile_source w.Epic_workloads.Workload.source in
      let _, out_t, _ = Epic_ir.Interp.run p w.Epic_workloads.Workload.train in
      let _, out_r, _ = Epic_ir.Interp.run p w.Epic_workloads.Workload.reference in
      check cb (w.Epic_workloads.Workload.short ^ " inputs differ") true (out_t <> out_r))
    Epic_workloads.Suite.all

let test_workload_end_to_end name =
  let w = Epic_workloads.Suite.find_exn name in
  let expected =
    reference_behaviour w.Epic_workloads.Workload.source w.Epic_workloads.Workload.reference
  in
  List.iter
    (fun level ->
      let config =
        {
          (Epic_core.Config.make level) with
          Epic_core.Config.pointer_analysis = w.Epic_workloads.Workload.pointer_analysis;
        }
      in
      let compiled =
        Epic_core.Driver.compile ~config ~train:w.Epic_workloads.Workload.train
          w.Epic_workloads.Workload.source
      in
      let code, out, _ = Epic_core.Driver.run compiled w.Epic_workloads.Workload.reference in
      check (Alcotest.pair ci cs)
        (Printf.sprintf "%s@%s end-to-end" name (Epic_core.Config.level_name level))
        expected (code, out))
    [ Epic_core.Config.O_NS; Epic_core.Config.ILP_CS ]

let test_vortex_end_to_end () = test_workload_end_to_end "vortex"
let test_gcc_end_to_end () = test_workload_end_to_end "gcc"
let test_twolf_end_to_end () = test_workload_end_to_end "twolf"

let test_ilp_speeds_up_compute_kernel () =
  (* the headline claim in miniature: ILP-CS beats O-NS on a regular,
     branchy kernel *)
  let src =
    {|
int a[256];
int main() {
  int i; int r; int s;
  for (i = 0; i < 256; i = i + 1) { a[i] = (i * 7) % 23 - 11; }
  s = 0;
  for (r = 0; r < 80; r = r + 1) {
    for (i = 0; i < 256; i = i + 1) {
      if (a[i] > 0) { s = s + a[i] * 3; } else { s = s - 1; }
    }
  }
  print_int(s);
  return 0;
}
|}
  in
  let cycles config =
    let compiled = Epic_core.Driver.compile ~config ~train:[||] src in
    let _, _, st = Epic_core.Driver.run compiled [||] in
    Epic_sim.Accounting.total st.Epic_sim.Machine.acc
  in
  let base = cycles Epic_core.Config.o_ns in
  let ilp = cycles Epic_core.Config.ilp_cs in
  check cb
    (Printf.sprintf "ILP-CS (%.0f) at least 15%% faster than O-NS (%.0f)" ilp base)
    true
    (ilp < 0.85 *. base)

let test_profile_variation_direction () =
  (* Training on the evaluation input usually helps (Section 4.6); the
     effect is not monotone in our scaled model (a different profile can
     promote a load that then goes wild), so this is a sanity bound, not a
     direction assertion — the direction per benchmark is reported by
     bench/main.exe profvar and recorded in EXPERIMENTS.md. *)
  let w = Epic_workloads.Suite.find_exn "perlbmk" in
  let cycles ~train =
    let config =
      { Epic_core.Config.ilp_cs with Epic_core.Config.pointer_analysis = false }
    in
    let compiled = Epic_core.Driver.compile ~config ~train w.Epic_workloads.Workload.source in
    let _, _, st = Epic_core.Driver.run compiled w.Epic_workloads.Workload.reference in
    Epic_sim.Accounting.total st.Epic_sim.Machine.acc
  in
  let t = cycles ~train:w.Epic_workloads.Workload.train in
  let r = cycles ~train:w.Epic_workloads.Workload.reference in
  check cb "self-trained within 2x of cross-trained" true (r <= t *. 2.0 && t <= r *. 2.0)

(* The register-pressure fallback: a 70-deep chain of nested if/else
   hammocks, with the hyperblock guards lifted so that if-conversion would
   need more predicates than the file holds.  The compile must land on the
   no-unroll-no-hyperblock level and still match the reference. *)
let test_fallback_recompile () =
  let depth = 70 in
  let b = Buffer.create 4096 in
  Buffer.add_string b "int main() {\n  int x; int a; int b;\n  x = input(0); a = 0; b = 0;\n";
  for i = 0 to depth - 1 do
    Printf.bprintf b "  if (x > %d) { a = a + %d;\n" i i
  done;
  for i = depth - 1 downto 0 do
    Printf.bprintf b "  } else { b = b + %d; }\n" i
  done;
  Buffer.add_string b "  print_int(a); print_int(b);\n  return 0;\n}\n";
  let src = Buffer.contents b in
  let config =
    {
      Epic_core.Config.ilp_cs with
      Epic_core.Config.hyperblock =
        {
          Epic_ilp.Hyperblock.max_block_predicates = 100000;
          max_path_instrs = 100000;
          max_height_diff = 100000;
          min_path_ratio = 0.0;
        };
    }
  in
  let compiled = Epic_core.Driver.compile ~config ~train:[| 40L |] src in
  let s = compiled.Epic_core.Driver.transform_stats in
  check (Alcotest.option cs) "fallback level" (Some "no-unroll-no-hyperblock")
    s.Epic_core.Driver.fallback;
  check ci "no hyperblocks at the fallback level" 0 s.Epic_core.Driver.hyperblocks;
  List.iter
    (fun x ->
      let input = [| x |] in
      let code, out, _ = Epic_core.Driver.run compiled input in
      check (Alcotest.pair ci cs)
        (Printf.sprintf "x = %Ld matches the reference" x)
        (reference_behaviour src input) (code, out))
    [ 40L; 7L; 100L ]

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_differential;
    ("all workloads parse and run", `Quick, test_all_workloads_parse_and_run);
    ("workload inputs differ", `Quick, test_workload_inputs_differ);
    ("vortex end-to-end", `Slow, test_vortex_end_to_end);
    ("gcc end-to-end", `Slow, test_gcc_end_to_end);
    ("twolf end-to-end", `Slow, test_twolf_end_to_end);
    ("ILP speeds up kernels", `Slow, test_ilp_speeds_up_compute_kernel);
    ("profile variation direction", `Slow, test_profile_variation_direction);
    ("register-pressure fallback", `Quick, test_fallback_recompile);
  ]
