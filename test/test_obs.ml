(* Observability-layer tests: JSON emitter/parser round-trips, trace ring
   invariants, sampling-profiler attribution against the exact accounting,
   the per-function/total accounting invariant, and the Metrics edge cases
   (empty geomean, zero-prediction branch rate). *)

open Epic_obs

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool
let cs = Alcotest.string
let cf = Alcotest.float 1e-9

(* --- JSON ----------------------------------------------------------------- *)

let roundtrip v =
  match Json.of_string (Json.to_string v) with
  | Ok v' -> v'
  | Error m -> Alcotest.failf "parse error on emitted JSON: %s" m

let test_json_string_escaping () =
  (* Every character class the emitter must escape: quote, backslash,
     control characters, plus multi-byte UTF-8 passed through verbatim. *)
  let nasty = "he said \"hi\\bye\"\n\ttab\r\x0c\x08 \x01 caf\xc3\xa9" in
  (match roundtrip (Json.Str nasty) with
  | Json.Str s -> check cs "escaped string round-trips" nasty s
  | _ -> Alcotest.fail "string did not parse back as a string");
  (* the emitted form must be ASCII-clean for control characters *)
  let emitted = Json.to_string (Json.Str "\x01\n") in
  check cs "control chars escaped" {|"\u0001\n"|} emitted

let test_json_unicode_escapes () =
  (* \uXXXX escapes, including a surrogate pair, decode to UTF-8. *)
  (match Json.of_string {|"\u0041\u00e9"|} with
  | Ok (Json.Str s) -> check cs "BMP escapes" "A\xc3\xa9" s
  | _ -> Alcotest.fail "unicode escape parse failed");
  match Json.of_string {|"\ud83d\ude00"|} with
  | Ok (Json.Str s) -> check cs "surrogate pair" "\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "surrogate pair parse failed"

(* Malformed input is an [Error] naming a position, never an exception. *)
let test_json_malformed () =
  List.iter
    (fun (text, want) ->
      match Json.of_string text with
      | Ok _ -> Alcotest.failf "%S parsed" text
      | Error m -> check cs text want m
      | exception e -> Alcotest.failf "%S raised %s" text (Printexc.to_string e))
    [
      ({|"abc|}, "at offset 4: unterminated string");
      ({|"ab\|}, "at offset 4: bad escape");
      ({|"a\qb"|}, "at offset 3: bad escape");
      ({|"\u12"|}, "at offset 3: truncated \\u escape");
      ({|"\u12_3"|}, "at offset 3: bad \\u escape");
      ({|"\uZZZZ"|}, "at offset 3: bad \\u escape");
      ({|"\ud83d\u0041"|}, "at offset 13: invalid low surrogate");
      ("", "at offset 0: unexpected end of input");
      ("[1,", "at offset 3: unexpected end of input");
      ({|{"a" 1}|}, "at offset 5: expected ':'");
      ("1\0002", "at offset 1: trailing garbage");
    ];
  (* runs of plain bytes around escapes, and a raw NUL inside a string *)
  match Json.of_string "\"ab\\\"cd\\\\ef\\ngh\xc3\xa9i\000j\"" with
  | Ok (Json.Str s) -> check cs "runs and escapes" "ab\"cd\\ef\ngh\xc3\xa9i\000j" s
  | _ -> Alcotest.fail "mixed string parse failed"

(* Splicing stored bytes as the last member emits what the whole tree
   emits. *)
let test_json_encoded_member () =
  let fields = [ ("id", Json.Int 3); ("k\"ey", Json.Str "v\n") ] in
  let v = Json.Obj [ ("x", Json.List [ Json.Float 0.1; Json.Null ]) ] in
  check cs "spliced equals emitted"
    (Json.to_string (Json.Obj (fields @ [ ("result", v) ])))
    (Json.to_string_with_encoded fields "result" (Json.to_string v));
  check cs "no leading fields" {|{"r":[]}|}
    (Json.to_string_with_encoded [] "r" "[]")

let test_json_numbers () =
  (match roundtrip (Json.Float 0.1) with
  | Json.Float f -> check cf "0.1 round-trips" 0.1 f
  | _ -> Alcotest.fail "float did not parse back as float");
  (match roundtrip (Json.Int (-123456789)) with
  | Json.Int n -> check ci "int round-trips" (-123456789) n
  | _ -> Alcotest.fail "int did not parse back as int");
  (* Non-finite floats have no JSON representation: emitted as null. *)
  check cs "nan is null" "null" (Json.to_string (Json.Float Float.nan));
  check cs "inf is null" "null" (Json.to_string (Json.Float Float.infinity))

let test_json_structures () =
  let v =
    Json.Obj
      [
        ("a", Json.List [ Json.Int 1; Json.Bool true; Json.Null ]);
        ("b", Json.Obj [ ("nested", Json.Str "x") ]);
      ]
  in
  let v' = roundtrip v in
  (match Json.member "a" v' with
  | Some (Json.List [ Json.Int 1; Json.Bool true; Json.Null ]) -> ()
  | _ -> Alcotest.fail "list member mangled");
  match Json.member "b" v' with
  | Some b -> (
      match Option.bind (Json.member "nested" b) Json.to_string_opt with
      | Some "x" -> ()
      | _ -> Alcotest.fail "nested member mangled")
  | None -> Alcotest.fail "missing member"

(* --- trace ring ----------------------------------------------------------- *)

let test_trace_ring_wrap () =
  let tr = Trace.create ~capacity:4 () in
  for i = 1 to 10 do
    Trace.record tr ~cycle:i ~kind:Trace.L1d_miss ~func:"f" ~addr:(Int64.of_int i)
  done;
  Trace.record tr ~cycle:11 ~kind:Trace.Br_mispredict ~func:"f" ~addr:0L;
  check ci "total counts every event" 11 (Trace.total tr);
  check ci "dropped = total - capacity" 7 (Trace.dropped tr);
  check ci "window bounded" 4 (List.length (Trace.events tr));
  (* counters stay exact even though the ring dropped most events *)
  check ci "per-kind count exact" 10 (Trace.count tr Trace.L1d_miss);
  check ci "other kind exact" 1 (Trace.count tr Trace.Br_mispredict);
  check ci "distinct kinds" 2 (Trace.distinct_kinds tr);
  (* oldest-first, and the retained window is the most recent events *)
  match Trace.events tr with
  | { Trace.cycle = 8; _ } :: _ -> ()
  | e :: _ -> Alcotest.failf "window starts at cycle %d, wanted 8" e.Trace.cycle
  | [] -> Alcotest.fail "empty window"

(* --- profiler attribution arithmetic -------------------------------------- *)

let test_profile_interval_attribution () =
  let p = Profile.create ~period:10 () in
  (* (0, 25] covers sample points 10 and 20 -> two samples for f *)
  Profile.tick p ~cycle:25 ~func:"f" ~block:"b0";
  check ci "two points in (0,25]" 2 (Profile.samples p);
  (* (25, 29] covers nothing *)
  Profile.tick p ~cycle:29 ~func:"g" ~block:"b0";
  check ci "no point in (25,29]" 2 (Profile.samples p);
  (* (29, 30] covers exactly 30 -> attributed to g *)
  Profile.tick p ~cycle:30 ~func:"g" ~block:"b1";
  check ci "boundary point lands" 3 (Profile.samples p);
  check cf "f share" (2. /. 3.) (Profile.func_share p "f");
  check cf "g cycles estimate" 10. (Profile.func_cycles_est p "g")

(* --- whole-system properties (one shared compile+run) --------------------- *)

let source =
  {|
int data[256];

int sum_if_positive() {
  int i; int s;
  s = 0;
  for (i = 0; i < 256; i = i + 1) {
    if (data[i] > 0) { s = s + data[i]; } else { s = s - 1; }
  }
  return s;
}

int main() {
  int i; int r; int total;
  for (i = 0; i < 256; i = i + 1) { data[i] = (i * 37 + input(0)) % 19 - 6; }
  total = 0;
  for (r = 0; r < 100; r = r + 1) { total = total + sum_if_positive(); }
  print_int(total);
  return 0;
}
|}

let input = [| 7L |]

(* One instrumented run shared by the system-level tests below. *)
let instrumented =
  lazy
    (let compiled =
       Epic_core.Driver.compile ~config:Epic_core.Config.ilp_cs ~train:input source
     in
     let trace = Trace.create () in
     let profile = Profile.create ~period:97 () in
     let code, out, st = Epic_core.Driver.run ~trace ~profile compiled input in
     let run =
       Epic_core.Metrics.of_machine ~workload:"quickstart" ~profile compiled st
         ~output_matches:true
     in
     (compiled, trace, profile, st, run, code, out))

let test_by_func_sums_to_totals () =
  let _, _, _, st, _, _, _ = Lazy.force instrumented in
  let open Epic_sim in
  let acc = st.Machine.acc in
  let n = Array.length acc.Accounting.totals in
  let sums = Array.make n 0. in
  Hashtbl.iter
    (fun _ bins -> Array.iteri (fun i v -> sums.(i) <- sums.(i) +. v) bins)
    acc.Accounting.by_func;
  List.iter
    (fun c ->
      let i = Accounting.index c in
      check (Alcotest.float 1e-6)
        (Printf.sprintf "category %s: per-function sum = total" (Accounting.name c))
        acc.Accounting.totals.(i) sums.(i))
    Accounting.all_categories

let test_run_json_roundtrip () =
  let _, _, _, _, run, _, _ = Lazy.force instrumented in
  let doc = roundtrip (Epic_core.Export.run_to_json run) in
  (match Option.bind (Json.member "workload" doc) Json.to_string_opt with
  | Some w -> check cs "workload survives" "quickstart" w
  | None -> Alcotest.fail "workload missing");
  let cats =
    match Json.member "categories" doc with
    | Some (Json.Obj kvs) -> kvs
    | _ -> Alcotest.fail "categories missing or not an object"
  in
  check ci "all 9 categories present" 9 (List.length cats);
  let open Epic_sim in
  List.iter
    (fun c ->
      match List.assoc_opt (Accounting.name c) cats with
      | Some v ->
          let f = Option.get (Json.to_float_opt v) in
          check (Alcotest.float 1e-6)
            (Printf.sprintf "category %s value survives" (Accounting.name c))
            run.Epic_core.Metrics.categories.(Accounting.index c)
            f
      | None -> Alcotest.failf "category %s missing" (Accounting.name c))
    Accounting.all_categories;
  (* spot-check a counter and the pass records through the round-trip *)
  (match
     Option.bind (Json.member "counters" doc) (Json.member "useful_ops")
   with
  | Some (Json.Int n) -> check ci "useful_ops survives" run.Epic_core.Metrics.useful_ops n
  | _ -> Alcotest.fail "useful_ops missing");
  match Option.bind (Json.member "passes" doc) Json.to_list_opt with
  | Some passes ->
      check cb "pass records present" true (List.length passes > 3);
      List.iter
        (fun p ->
          match Option.bind (Json.member "wall_s" p) Json.to_float_opt with
          | Some w -> check cb "pass wall time non-negative" true (w >= 0.)
          | None -> Alcotest.fail "pass missing wall_s")
        passes
  | None -> Alcotest.fail "passes missing"

let test_sampled_shares_match_exact () =
  let _, _, profile, st, _, _, _ = Lazy.force instrumented in
  let open Epic_sim in
  let acc = st.Machine.acc in
  let total = Accounting.total acc in
  let exact_share f =
    match Hashtbl.find_opt acc.Accounting.by_func f with
    | Some bins -> Array.fold_left ( +. ) 0. bins /. total
    | None -> 0.
  in
  let funcs = Hashtbl.fold (fun f _ l -> f :: l) acc.Accounting.by_func [] in
  check cb "run produced samples" true (Profile.samples profile > 100);
  List.iter
    (fun f ->
      let e = exact_share f in
      let s = Profile.func_share profile f in
      if abs_float (e -. s) > 0.05 then
        Alcotest.failf "%s: sampled share %.4f vs exact %.4f differs by > 5%%" f s e)
    funcs

let test_trace_events_emitted () =
  let _, trace, _, _, _, _, _ = Lazy.force instrumented in
  check cb "trace saw events" true (Trace.total trace > 0);
  check cb "several event kinds fire on quickstart" true
    (Trace.distinct_kinds trace >= 5);
  (* every retained event belongs to a simulated function *)
  List.iter
    (fun (e : Trace.event) ->
      check cb "event has a function" true (String.length e.Trace.func > 0))
    (Trace.events trace)

let test_disabled_observability_is_free () =
  (* Same program, no trace/profile: identical cycle count and output —
     observability off must not perturb the simulation. *)
  let compiled, _, _, st, _, code, out = Lazy.force instrumented in
  let code', out', st' = Epic_core.Driver.run compiled input in
  check ci "exit code unchanged" code code';
  check cs "output unchanged" out out';
  check (Alcotest.float 0.)
    "cycles identical with observability off"
    (Epic_sim.Accounting.total st.Epic_sim.Machine.acc)
    (Epic_sim.Accounting.total st'.Epic_sim.Machine.acc)

(* --- metrics edge cases --------------------------------------------------- *)

let test_geomean_edges () =
  check (Alcotest.float 1e-9) "geomean [2;8] = 4" 4.0
    (Epic_core.Metrics.geomean [ 2.; 8. ]);
  Alcotest.check_raises "geomean [] raises"
    (Invalid_argument "Metrics.geomean: empty list") (fun () ->
      ignore (Epic_core.Metrics.geomean []))

let test_branch_rate_no_predictions () =
  let _, _, _, _, run, _, _ = Lazy.force instrumented in
  let vacuous = { run with Epic_core.Metrics.predictions = 0; mispredictions = 0 } in
  check (Alcotest.float 0.) "no predictions -> vacuously perfect" 1.0
    (Epic_core.Metrics.branch_prediction_rate vacuous);
  check cb "real run rate is in (0,1]" true
    (let r = Epic_core.Metrics.branch_prediction_rate run in
     r > 0. && r <= 1.)

let suite =
  [
    Alcotest.test_case "json: string escaping" `Quick test_json_string_escaping;
    Alcotest.test_case "json: unicode escapes" `Quick test_json_unicode_escapes;
    Alcotest.test_case "json: malformed input is an error" `Quick
      test_json_malformed;
    Alcotest.test_case "json: spliced encoded member" `Quick
      test_json_encoded_member;
    Alcotest.test_case "json: numbers" `Quick test_json_numbers;
    Alcotest.test_case "json: structures" `Quick test_json_structures;
    Alcotest.test_case "trace: ring wrap keeps exact counts" `Quick test_trace_ring_wrap;
    Alcotest.test_case "profile: interval attribution" `Quick
      test_profile_interval_attribution;
    Alcotest.test_case "sim: per-function sums = totals" `Quick
      test_by_func_sums_to_totals;
    Alcotest.test_case "sim: run JSON round-trip" `Quick test_run_json_roundtrip;
    Alcotest.test_case "sim: sampled shares within 5% of exact" `Quick
      test_sampled_shares_match_exact;
    Alcotest.test_case "sim: trace events emitted" `Quick test_trace_events_emitted;
    Alcotest.test_case "sim: disabled observability is free" `Quick
      test_disabled_observability_is_free;
    Alcotest.test_case "metrics: geomean edge cases" `Quick test_geomean_edges;
    Alcotest.test_case "metrics: branch rate with no predictions" `Quick
      test_branch_rate_no_predictions;
  ]
