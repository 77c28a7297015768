(* Random mini-C program generation and whole-pipeline differential
   checking.  Used by the qcheck property in the test suite and by the
   standalone fuzzer (bin/fuzz.ml): a generated program is compiled at
   every optimization level and executed both by the reference interpreter
   and by the machine simulator, and all observable behaviour (exit code,
   printed output) must agree with the unoptimized program's.

   Generated programs always terminate: loops are bounded counted loops,
   division and modulus take non-zero constant divisors, and all array
   indices are masked into range. *)

module Gen = struct
  open QCheck.Gen

  let var n = Printf.sprintf "v%d" n

  let rec expr depth st =
    let atom =
      oneof
        [
          (let* k = int_range (-50) 99 in
           return (string_of_int k));
          (let* v = int_range 0 3 in
           return (var v));
          (let* i = int_range 0 31 in
           return (Printf.sprintf "g[%d]" i));
          return "input(0)";
        ]
    in
    if depth <= 0 then atom st
    else
      (oneof
         [
           atom;
           (let* a = expr (depth - 1) and* b = expr (depth - 1) in
            let* op = oneofl [ "+"; "-"; "*"; "&"; "|"; "^" ] in
            return (Printf.sprintf "(%s %s %s)" a op b));
           (let* a = expr (depth - 1) in
            (* safe division / modulus: constant non-zero divisor *)
            let* op = oneofl [ "/"; "%" ] in
            let* k = int_range 2 9 in
            return (Printf.sprintf "(%s %s %d)" a op k));
           (let* a = expr (depth - 1) and* b = expr (depth - 1) in
            let* op = oneofl [ "<"; ">"; "=="; "!=" ] in
            return (Printf.sprintf "(%s %s %s)" a op b));
           (let* a = expr (depth - 1) in
            return (Printf.sprintf "helper(%s)" a));
           (let* args = list_repeat 10 atom in
            return (Printf.sprintf "wide(%s)" (String.concat ", " args)));
         ])
        st

  (* The body of [wide]: its ten parameters summed in a random order, some
     scaled.  Inlined at a call with constant arguments, this is a long
     accumulator chain for height reduction. *)
  let wide_sum =
    let term i =
      let* k = int_range 1 5 in
      return (if k = 1 then Printf.sprintf "p%d" i else Printf.sprintf "p%d * %d" i k)
    in
    let* terms = flatten_l (List.init 10 term) in
    let* terms = shuffle_l terms in
    return (String.concat " + " terms)

  let assign =
    let* v = int_range 0 3 in
    let* e = expr 2 in
    return (Printf.sprintf "%s = %s;" (var v) e)

  let array_store =
    let* i = int_range 0 3 in
    let* e = expr 2 in
    return (Printf.sprintf "g[(%s & 31)] = %s;" (var i) e)

  let rec stmt depth st =
    (if depth <= 0 then oneof [ assign; array_store ]
     else
       frequency
         [
           (3, assign);
           (2, array_store);
           ( 2,
             let* c = expr 2 in
             let* a = block (depth - 1) and* b = block (depth - 1) in
             return (Printf.sprintf "if (%s) {\n%s\n} else {\n%s\n}" c a b) );
           ( 1,
             let* n = int_range 1 12 in
             let* body = block (depth - 1) in
             let* v = int_range 4 5 in
             return
               (Printf.sprintf "for (%s = 0; %s < %d; %s = %s + 1) {\n%s\n}"
                  (var v) (var v) n (var v) (var v) body) );
         ])
      st

  and block depth st =
    (let* n = int_range 1 4 in
     let* stmts = list_size (return n) (stmt depth) in
     return (String.concat "\n" stmts))
      st

  let program =
    let* body = block 3 in
    let* helper_body = expr 2 in
    let* wide_body = wide_sum in
    let* seed = int_range 0 1000 in
    return
      (Printf.sprintf
         {|
int g[32];
int v0; int v1; int v2; int v3; int v4; int v5;
int helper(int x) {
  int v0; int v1; int v2; int v3;
  v0 = x; v1 = x * 3; v2 = 7; v3 = 1;
  return (%s) %% 100000;
}
int wide(int p0, int p1, int p2, int p3, int p4, int p5, int p6, int p7, int p8,
         int p9) {
  return (%s) %% 100000;
}
int main() {
  int i;
  for (i = 0; i < 32; i = i + 1) { g[i] = (i * %d + 3) %% 101 - 20; }
  v0 = 1; v1 = 2; v2 = 3; v3 = 4; v4 = 0; v5 = 0;
%s
  print_int(v0); print_int(v1); print_int(v2); print_int(v3);
  print_int(g[5]); print_int(g[17]);
  return 0;
}
|}
         helper_body wide_body seed body)
end

(** The configurations a program is checked under: the paper's four levels
    plus the sentinel-speculation and data-speculation variants. *)
let configs =
  [
    ("gcc", Config.gcc_like);
    ("o-ns", Config.o_ns);
    ("ilp-ns", Config.ilp_ns);
    ("ilp-cs", Config.ilp_cs);
    ( "ilp-cs-sentinel",
      { (Config.make Config.ILP_CS) with Config.spec_model = Epic_ilp.Speculate.Sentinel } );
    ( "ilp-cs-dataspec",
      { (Config.make Config.ILP_CS) with Config.enable_data_speculation = true } );
  ]

type outcome =
  | Agree  (** every configuration matched the reference *)
  | Skipped  (** the reference run exhausted its fuel; nothing to compare *)
  | Mismatch of { config : string; ir_ok : bool; machine_ok : bool }
  | Crash of { config : string; exn : string }

let reference ?(fuel = 4_000_000) (src : string) (input : int64 array) =
  let p = Epic_frontend.Lower.compile_source src in
  let code, out, _ = Epic_ir.Interp.run ~fuel p input in
  (code, out)

(* A sampling plan small enough that phases flip mid-block and inside
   callees on programs of a few hundred groups. *)
let tiny_plan = { Epic_sim.Sampling.interval = 64; detail = 8; warmup = 8 }

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

(* The machine's own equivalences on a run that already agrees with the
   reference: the clock equals the accounted cycles (in a sampled run at
   [tiny_plan], the cycles measured in its detail phases, so a stall that
   leaks into a warm phase shows); the sampled run keeps exit code and
   output; and a checkpoint at half the groups, resumed, reproduces the
   full run's cycles and category totals bit for bit.  Returns the failing
   leg. *)
let machine_legs ~fuel compiled input (code, out, (st : Epic_sim.Machine.t)) =
  let open Epic_sim in
  let sc, so, sst = Driver.run ~fuel ~sampling:tiny_plan compiled input in
  let measured =
    match Machine.sample_summary sst with
    | Some su -> su.Sampling.s_measured_cycles
    | None -> nan
  in
  if float_of_int st.Machine.cycle <> Accounting.total st.Machine.acc then Some "clock"
  else if (sc, so) <> (code, out) then Some ("sampled " ^ Sampling.key_fragment tiny_plan)
  else if float_of_int sst.Machine.cycle <> measured then Some "sampled clock"
  else
    let _, _, cst =
      Driver.run ~fuel ~checkpoint_at:(st.Machine.c.Machine.groups / 2) compiled input
    in
    match Machine.checkpoint cst with
    | None -> Some "checkpoint not captured"
    | Some ck ->
        let rc, ro, rst = Driver.resume compiled ck in
        if
          (rc, ro) = (code, out)
          && rst.Machine.cycle = st.Machine.cycle
          && same_bits rst.Machine.acc.Accounting.totals st.Machine.acc.Accounting.totals
        then None
        else Some "checkpoint resume"

(* The interpreter's fuel on the compiled IR, whose [executed] run took
   [n] instructions: fuel [n] must finish and [n - 1] run out.  Predicated
   ILP-CS hyperblocks put guarded branches and returns in the middle of
   blocks, where the interpreter's per-segment charging has to stop. *)
let fuel_boundary_holds (compiled : Driver.compiled) input n =
  let finishes fuel =
    match Epic_ir.Interp.run ~fuel compiled.Driver.program input with
    | _ -> true
    | exception Epic_ir.Interp.Out_of_fuel -> false
  in
  finishes n && (n = 0 || not (finishes (n - 1)))

(* Check one source at every configuration, both through the interpreter
   (IR semantics after all transforms) and through the machine, then the
   interpreter's fuel boundary and the machine's clock, sampled and
   checkpoint-resume legs. *)
let check ?(fuel = 8_000_000) (src : string) (input : int64 array) : outcome =
  match reference src input with
  | exception Epic_ir.Interp.Out_of_fuel -> Skipped
  | expected ->
      let rec go = function
        | [] -> Agree
        | (name, config) :: rest -> (
            match Driver.compile ~config ~train:input src with
            | exception Epic_ir.Interp.Out_of_fuel -> Skipped
            | exception e -> Crash { config = name; exn = Printexc.to_string e }
            | compiled -> (
                match
                  ( Epic_ir.Interp.run ~fuel compiled.Driver.program input,
                    Driver.run ~fuel compiled input )
                with
                | exception Epic_ir.Interp.Out_of_fuel -> Skipped
                | exception e -> Crash { config = name; exn = Printexc.to_string e }
                | (ic, io, ist), ((mc, mo, _) as full) -> (
                    let ir_ok = (ic, io) = expected in
                    let machine_ok = (mc, mo) = expected in
                    if not (ir_ok && machine_ok) then
                      Mismatch { config = name; ir_ok; machine_ok }
                    else if not (fuel_boundary_holds compiled input ist.Epic_ir.Interp.executed)
                    then
                      Mismatch
                        { config = name ^ ", fuel boundary"; ir_ok = false; machine_ok = true }
                    else
                      match machine_legs ~fuel compiled input full with
                      | None -> go rest
                      | Some leg ->
                          Mismatch
                            { config = name ^ ", " ^ leg; ir_ok = true; machine_ok = false }
                      | exception e ->
                          Crash { config = name; exn = Printexc.to_string e })))
      in
      go configs

(** True when the program agrees everywhere (Skipped counts as success for
    property testing — the case is vacuous). *)
let agrees ?fuel src input =
  match check ?fuel src input with
  | Agree | Skipped -> true
  | Mismatch _ | Crash _ -> false
