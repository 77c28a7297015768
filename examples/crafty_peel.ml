(* The paper's Section 2.4 motivating example: crafty's Evaluate() contains
   sequential while loops whose bodies typically execute exactly once (each
   side usually has one queen).  This example shows the transformation
   pipeline of Figure 3 on exactly that shape — loop peeling pulls the
   single iteration out, and region formation then merges the peeled code
   into one scheduling region.

   Run with:  dune exec examples/crafty_peel.exe *)

let source =
  {|
int board[64];

// Figure 3's two sequential loops: each typically runs exactly once.
int eval_queens(int side) {
  int sq; int s;
  s = 0;
  sq = 0;
  while (sq < 64 && board[sq] != 5 + side) { sq = sq + 1; }
  while (sq < 64) {
    s = s + 90;
    if (sq > 26 && sq < 37) { s = s + 5; }
    sq = sq + 64;
  }
  return s;
}

int rng;
int rand_next() {
  rng = rng * 1103515245 + 12345;
  return (rng >> 16) & 32767;
}

int main() {
  int m; int total; int i;
  rng = input(0);
  total = 0;
  for (m = 0; m < 300; m = m + 1) {
    for (i = 0; i < 64; i = i + 1) { board[i] = 0; }
    board[rand_next() & 63] = 5;
    board[rand_next() & 63] = 13;
    total = total + eval_queens(0) - eval_queens(8);
  }
  print_int(total);
  return 0;
}
|}

let () =
  let input = [| 11L |] in
  (* Show what peeling does to the IR. *)
  let p = Epic_frontend.Lower.compile_source source in
  ignore (Epic_analysis.Profile.profile_and_annotate p input);
  ignore (Epic_opt.Pipeline.run_classical_pm (Epic_opt.Pipeline.manager p) ~name:"classical");
  Epic_analysis.Profile.reprofile p input;
  let f = Epic_ir.Program.find_func_exn p "eval_queens" in
  Fmt.pr "=== eval_queens before peeling: %d blocks ===@."
    (List.length f.Epic_ir.Func.blocks);
  let loops = Epic_analysis.Natural_loops.compute f in
  List.iter
    (fun (l : Epic_analysis.Natural_loops.loop) ->
      Fmt.pr "  loop at %s: average trip count %.2f@." l.Epic_analysis.Natural_loops.header
        l.Epic_analysis.Natural_loops.avg_trips)
    loops.Epic_analysis.Natural_loops.loops;
  let peeled = Epic_ilp.Peel.run p in
  Fmt.pr "@.peeled %d loops; eval_queens now has %d blocks "
    peeled
    (List.length f.Epic_ir.Func.blocks);
  Fmt.pr "(the remainder loops are laid out cold)@.@.";
  (* And measure the end-to-end effect. *)
  Fmt.pr "%-8s %10s %10s %14s@." "config" "cycles" "branches" "front-end stalls";
  List.iter
    (fun level ->
      let config = Epic_core.Config.make level in
      let compiled = Epic_core.Driver.compile ~config ~train:input source in
      let _, _, st = Epic_core.Driver.run compiled input in
      let open Epic_sim in
      Fmt.pr "%-8s %10.0f %10d %14.0f@."
        (Epic_core.Config.level_name level)
        (Accounting.total st.Machine.acc)
        st.Machine.c.Machine.branches
        (Accounting.get st.Machine.acc Accounting.Front_end))
    [ Epic_core.Config.O_NS; Epic_core.Config.ILP_NS; Epic_core.Config.ILP_CS ]
