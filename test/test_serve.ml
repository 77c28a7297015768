(* The session/service layer: the machine-description digest is pinned
   (cache keys must not drift silently), the LRU evicts in recency order,
   the session caches hit/miss/evict exactly as specified, a cache hit is
   byte-identical to the cold compile+run, and concurrent requests for
   one key compile exactly once. *)

module Session = Epic_serve.Session
module Lru = Epic_serve.Lru
module Protocol = Epic_serve.Protocol
module Desc = Epic_mach.Machine_desc
module Json = Epic_obs.Json

(* --- Machine_desc.digest ------------------------------------------------ *)

(* Pinned values: a digest change means every persisted cache key and
   cross-run comparison silently invalidates — so changing the
   serialization (or the description's contents) must show up here as a
   deliberate test update, never as an accident.  (Adding a field to
   Machine_desc.t without extending [digest] is already a compile error:
   the digest destructures the full record.) *)
let test_digest_pinned () =
  Alcotest.(check string) "itanium2" "3235b29d200ae466" (Desc.digest Desc.itanium2);
  Alcotest.(check string) "2x-mem-latency" "69dad0d75a804c4f"
    (Desc.digest { Desc.itanium2 with Desc.mem_latency = 280 });
  Alcotest.(check string) "tiny-dtlb" "010c4039d2541171"
    (Desc.digest { Desc.itanium2 with Desc.dtlb_entries = 4 })

(* The digest is content-addressed: the display name is not content. *)
let test_digest_name_invariant () =
  Alcotest.(check string) "renaming does not change the digest"
    (Desc.digest Desc.itanium2)
    (Desc.digest { Desc.itanium2 with Desc.name = "anything-else" });
  Alcotest.(check bool) "a real knob does" false
    (Desc.digest Desc.itanium2
    = Desc.digest { Desc.itanium2 with Desc.issue_width = 4 })

(* --- Lru ---------------------------------------------------------------- *)

let test_lru_eviction_order () =
  let c = Lru.create ~capacity:3 in
  Alcotest.(check (option (pair string int))) "a fits" None (Lru.add c "a" 1);
  Alcotest.(check (option (pair string int))) "b fits" None (Lru.add c "b" 2);
  Alcotest.(check (option (pair string int))) "c fits" None (Lru.add c "c" 3);
  Alcotest.(check (list string)) "MRU order" [ "c"; "b"; "a" ]
    (Lru.keys_mru_first c);
  (* touching a makes b the LRU *)
  Alcotest.(check (option int)) "find a" (Some 1) (Lru.find c "a");
  Alcotest.(check (option (pair string int))) "d evicts b" (Some ("b", 2))
    (Lru.add c "d" 4);
  Alcotest.(check (list string)) "b gone" [ "d"; "a"; "c" ]
    (Lru.keys_mru_first c);
  Alcotest.(check (option (pair string int))) "e evicts c"
    (Some ("c", 3))
    (Lru.add c "e" 5);
  Alcotest.(check int) "evictions counted" 2 (Lru.evictions c);
  Alcotest.(check int) "length at capacity" 3 (Lru.length c)

let test_lru_replace () =
  let c = Lru.create ~capacity:2 in
  ignore (Lru.add c "a" 1);
  ignore (Lru.add c "b" 2);
  (* replacing is not an insert: no eviction, value updated, a now MRU *)
  Alcotest.(check (option (pair string int))) "replace a" None (Lru.add c "a" 9);
  Alcotest.(check (option int)) "new value" (Some 9) (Lru.find c "a");
  Alcotest.(check int) "no eviction" 0 (Lru.evictions c);
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Lru.create: capacity must be >= 1") (fun () ->
      ignore (Lru.create ~capacity:0))

(* --- Session caches ----------------------------------------------------- *)

let prog_a = "int main() { int i; int s; s = 0; for (i = 0; i < 40; i = i + 1) { s = s + i; } return s % 7; }"
let prog_b = "int main() { int i; int s; s = 1; for (i = 0; i < 30; i = i + 1) { s = s + 2 * i; } return s % 5; }"

let ilp_cs = Epic_core.Config.ilp_cs

let test_session_counters () =
  let s = Session.create () in
  let _, k1, h1 = Session.compile s ~config:ilp_cs ~desc:None ~train:[||] prog_a in
  let _, k2, h2 = Session.compile s ~config:ilp_cs ~desc:None ~train:[||] prog_a in
  Alcotest.(check bool) "cold is a miss" false h1;
  Alcotest.(check bool) "repeat is a hit" true h2;
  Alcotest.(check string) "same key" k1 k2;
  (* the default desc and an explicit itanium2 are the same content *)
  let _, k3, h3 =
    Session.compile s ~config:ilp_cs ~desc:(Some Desc.itanium2) ~train:[||] prog_a
  in
  Alcotest.(check string) "explicit itanium2 shares the key" k1 k3;
  Alcotest.(check bool) "and hits" true h3;
  (* any key ingredient changing misses: config, train, desc, source *)
  let _, k4, h4 =
    Session.compile s ~config:Epic_core.Config.gcc_like ~desc:None ~train:[||] prog_a
  in
  let _, k5, h5 = Session.compile s ~config:ilp_cs ~desc:None ~train:[| 3L |] prog_a in
  let _, k6, h6 =
    Session.compile s ~config:ilp_cs
      ~desc:(Some { Desc.itanium2 with Desc.mem_latency = 280 })
      ~train:[||] prog_a
  in
  let _, k7, h7 = Session.compile s ~config:ilp_cs ~desc:None ~train:[||] prog_b in
  List.iter
    (fun (what, k, h) ->
      Alcotest.(check bool) (what ^ " misses") false h;
      Alcotest.(check bool) (what ^ " has a fresh key") true (k <> k1))
    [ ("config", k4, h4); ("train", k5, h5); ("desc", k6, h6); ("source", k7, h7) ];
  let st = Session.stats s in
  Alcotest.(check int) "compile hits" 2 st.Session.st_compile_hits;
  Alcotest.(check int) "compile misses" 5 st.Session.st_compile_misses;
  Alcotest.(check int) "no evictions at capacity 64" 0 st.Session.st_compile_evictions

let test_session_eviction () =
  let s = Session.create ~compile_capacity:1 () in
  let _ = Session.compile s ~config:ilp_cs ~desc:None ~train:[||] prog_a in
  let _ = Session.compile s ~config:ilp_cs ~desc:None ~train:[||] prog_b in
  let _ = Session.compile s ~config:ilp_cs ~desc:None ~train:[||] prog_a in
  let st = Session.stats s in
  Alcotest.(check int) "b evicted a, a evicted b" 2 st.Session.st_compile_evictions;
  Alcotest.(check int) "so the re-request missed" 3 st.Session.st_compile_misses;
  Alcotest.(check int) "entries bounded" 1 st.Session.st_compile_entries

(* A run-cache hit must be byte-identical to the cold compile+run — the
   whole exported document, not just the totals — even before
   normalize_time, because served outcomes carry no host section. *)
let run_doc (served : Session.served) =
  Json.to_string ~pretty:true
    (Epic_core.Export.run_to_json served.Session.s_outcome.Session.o_metrics)

let test_run_cache_byte_identity () =
  let s = Session.create () in
  let go () =
    Session.compile_and_run s ~workload:"prog" ~config:ilp_cs ~desc:None
      ~train:[| 5L |] ~input:[| 5L |] prog_a
  in
  let cold = go () in
  let warm = go () in
  Alcotest.(check bool) "cold missed" false cold.Session.s_run_hit;
  Alcotest.(check bool) "warm hit" true warm.Session.s_run_hit;
  Alcotest.(check bool) "warm compile hit too" true warm.Session.s_compile_hit;
  Alcotest.(check string) "byte-identical documents" (run_doc cold) (run_doc warm);
  (* a different workload label for the same content still hits, and the
     label is patched into the served document *)
  let relabeled =
    Session.compile_and_run s ~workload:"other-name" ~config:ilp_cs ~desc:None
      ~train:[| 5L |] ~input:[| 5L |] prog_a
  in
  Alcotest.(check bool) "relabel hits" true relabeled.Session.s_run_hit;
  Alcotest.(check string) "label patched" "other-name"
    relabeled.Session.s_outcome.Session.o_metrics.Epic_core.Metrics.workload

(* A relabeled run-cache hit splices its label in front of the stored
   bytes: the result equals, byte for byte, the document encoded afresh
   for the relabeled metrics — labels that need escaping included. *)
let test_relabeled_hit_splices () =
  let s = Session.create () in
  let go workload =
    Session.compile_and_run s ~workload ~config:ilp_cs ~desc:None
      ~train:[| 5L |] ~input:[| 5L |] prog_a
  in
  let m = (go "prog").Session.s_outcome.Session.o_metrics in
  List.iter
    (fun workload ->
      let served = go workload in
      Alcotest.(check bool) (workload ^ ": hit") true served.Session.s_run_hit;
      Alcotest.(check string)
        (workload ^ ": spliced bytes = encoded document")
        (Json.to_string
           (Epic_core.Export.run_to_json
              { m with Epic_core.Metrics.workload }))
        served.Session.s_outcome.Session.o_result)
    [ "other-name"; "x"; "quote\" and \\ newline\n"; "prog" ]

(* Property: for random programs, a session cache hit returns the same
   bytes as the cold path.  (The cold path itself is the plain Driver, so
   this pins served == batch on arbitrary inputs, not just the suite.) *)
let qcheck_cold_vs_hit =
  QCheck.Test.make ~count:8 ~name:"session hit is byte-identical to cold run"
    (QCheck.make Epic_core.Random_program.Gen.program)
    (fun src ->
      (* the session layer has no fuel guard (real workloads terminate), so
         skip generated programs whose reference run isn't quickly bounded *)
      match Epic_core.Random_program.reference ~fuel:200_000 src [| 3L |] with
      | exception _ -> true
      | _ ->
          let s = Session.create () in
          let go () =
            Session.compile_and_run s ~workload:"fuzz" ~config:ilp_cs ~desc:None
              ~train:[| 3L |] ~input:[| 3L |] src
          in
          let cold = go () in
          let warm = go () in
          if not warm.Session.s_run_hit then
            QCheck.Test.fail_report "second request did not hit the run cache";
          if run_doc cold <> run_doc warm then
            QCheck.Test.fail_report "hit diverged from cold bytes";
          true)

(* Trace runs bypass the run cache and count as its uncached runs. *)
let test_trace_bypass () =
  let s = Session.create () in
  let compiled, key, _ =
    Session.compile s ~config:ilp_cs ~desc:None ~train:[| 5L |] prog_a
  in
  let reference, _ = Session.reference s ~source:prog_a ~input:[| 5L |] in
  let _, h =
    Session.run s ~workload:"prog" ~reference ~key compiled [| 5L |]
  in
  Alcotest.(check bool) "cold run misses" false h;
  let st = Session.stats s in
  Alcotest.(check int) "no uncached runs yet" 0 st.Session.st_run_uncached;
  let trace = Epic_obs.Trace.create ~capacity:8 () in
  let _ =
    Session.run s ~trace ~workload:"prog" ~reference ~key compiled [| 5L |]
  in
  let st = Session.stats s in
  Alcotest.(check int) "trace run bypasses" 1 st.Session.st_run_uncached

(* One counter of one kind's block in the stats JSON. *)
let kind_counter s kind counter =
  match Json.member kind (Session.stats_to_json s) with
  | Some block -> (
      match Json.member counter block with
      | Some (Json.Int n) -> n
      | _ -> Alcotest.failf "%s.%s missing" kind counter)
  | None -> Alcotest.failf "%s block missing" kind

(* [run_capacity] bounds the reference kind too: two inputs through a
   one-entry store evict once per kind and keep one entry. *)
let test_run_capacity_bounds_every_run_kind () =
  let s = Session.create ~run_capacity:1 () in
  let serve input =
    ignore
      (Session.compile_and_run s ~workload:"prog" ~config:ilp_cs ~desc:None
         ~train:[| 5L |] ~input prog_a)
  in
  serve [| 5L |];
  serve [| 6L |];
  List.iter
    (fun kind ->
      Alcotest.(check int) (kind ^ " misses") 2 (kind_counter s kind "misses");
      Alcotest.(check int) (kind ^ " evictions") 1
        (kind_counter s kind "evictions");
      Alcotest.(check int) (kind ^ " entries") 1 (kind_counter s kind "entries");
      Alcotest.(check int) (kind ^ " capacity") 1
        (kind_counter s kind "capacity"))
    [ "run"; "reference" ]

(* Concurrency: N pool jobs demanding one key must compile exactly once —
   one miss, N-1 hits, every job handed the same physical artifact. *)
let test_concurrent_hammer () =
  let s = Session.create ~jobs:4 () in
  let results =
    Session.map s
      (fun _ -> Session.compile s ~config:ilp_cs ~desc:None ~train:[||] prog_a)
      (Array.init 8 Fun.id)
  in
  let first, _, _ = results.(0) in
  Array.iter
    (fun (c, k, _) ->
      Alcotest.(check bool) "same physical compiled value" true (c == first);
      let _, k0, _ = results.(0) in
      Alcotest.(check string) "same key" k0 k)
    results;
  let st = Session.stats s in
  Alcotest.(check int) "compiled exactly once" 1 st.Session.st_compile_misses;
  Alcotest.(check int) "everyone else hit" 7 st.Session.st_compile_hits

(* Key pins: hex literals recorded before the keys were derived from one
   source hash per request.  A change here silently invalidates every warm
   cache, so it must be a deliberate test update. *)
let test_keys_pinned () =
  let k1 =
    Session.compile_key ~config:ilp_cs ~desc:None ~train:[| 5L |] prog_a
  in
  Alcotest.(check string) "compile key" "2bbe39f87fd4bb2a" k1;
  let k2 =
    Session.compile_key ~config:Epic_core.Config.gcc_like
      ~desc:(Some { Desc.itanium2 with Desc.mem_latency = 280 })
      ~train:[||] prog_a
  in
  Alcotest.(check string) "compile key, gcc level and 2x memory latency"
    "8302066729c0cf35" k2;
  Alcotest.(check string) "compile key, wide train values" "9b8ec9322d59057c"
    (Session.compile_key ~config:ilp_cs ~desc:None
       ~train:[| -3L; 0L; 1234567890123L |] prog_a);
  let s = Session.create () in
  let line =
    Json.to_string
      (Json.Obj
         [
           ("op", Json.Str "run");
           ("source", Json.Str prog_a);
           ("input", Json.List [ Json.Int 5 ]);
         ])
  in
  match Json.of_string (Protocol.execute s (Protocol.parse line)) with
  | Ok j ->
      Alcotest.(check bool) "run response key" true
        (Json.member "key" j = Some (Json.Str "2bbe39f87fd4bb2a"))
  | Error e -> Alcotest.fail e

(* A [run] response splices the outcome's stored result bytes into its
   envelope.  Each response must equal the envelope emitted from the
   whole tree: cold, hit, relabeled hit, normalized, and sampled (cold and
   hit).  The tree comes from repeating the request through
   [Session.compile_and_run], which hits the outcome the response served
   (pass records carry wall times, so a second session's tree would
   differ). *)
let test_served_bytes () =
  let s = Session.create () in
  let check what ?(workload = "prog") ?sampling ?(normalize = false)
      ~compile_hit ~run_hit id =
    let line =
      Json.to_string
        (Json.Obj
           ([
              ("id", Json.Int id);
              ("op", Json.Str "run");
              ("source", Json.Str prog_a);
              ("workload", Json.Str workload);
              ("input", Json.List [ Json.Int 5 ]);
            ]
           @ (match sampling with
             | None -> []
             | Some spec -> [ ("sampling", Json.Str spec) ])
           @ if normalize then [ ("normalize_time", Json.Bool true) ] else []))
    in
    let got = Protocol.execute s (Protocol.parse line) in
    let served =
      Session.compile_and_run s
        ?sampling:(Option.map Epic_sim.Sampling.parse_spec sampling)
        ~workload ~config:ilp_cs ~desc:None ~train:[| 5L |] ~input:[| 5L |]
        prog_a
    in
    Alcotest.(check bool) (what ^ ": outcome cached") true
      served.Session.s_run_hit;
    let o = served.Session.s_outcome in
    let doc = Epic_core.Export.run_to_json o.Session.o_metrics in
    let expected =
      Json.to_string
        (Json.Obj
           [
             ("id", Json.Int id);
             ("ok", Json.Bool true);
             ("op", Json.Str "run");
             ("cached", Json.Bool run_hit);
             ("compile_cached", Json.Bool compile_hit);
             ("key", Json.Str served.Session.s_key);
             ("exit_code", Json.Int o.Session.o_code);
             ("output", Json.Str o.Session.o_output);
             ( "result",
               if normalize then Epic_core.Export.normalize_time doc else doc );
           ])
    in
    Alcotest.(check string) what expected got
  in
  check "cold run" ~compile_hit:false ~run_hit:false 1;
  check "hit" ~compile_hit:true ~run_hit:true 2;
  check "relabeled hit" ~workload:"other-name" ~compile_hit:true ~run_hit:true 3;
  check "normalize_time" ~normalize:true ~compile_hit:true ~run_hit:true 4;
  check "sampled run" ~sampling:"64:16:8" ~compile_hit:true ~run_hit:false 5;
  check "sampled hit" ~sampling:"64:16:8" ~compile_hit:true ~run_hit:true 6

(* --- Protocol ----------------------------------------------------------- *)

let test_protocol_envelopes () =
  let s = Session.create () in
  let exec line = Protocol.execute s (Protocol.parse line) in
  (match Json.of_string (exec {|{"id": 7, "op": "ping"}|}) with
  | Ok j ->
      Alcotest.(check bool) "id echoed" true (Json.member "id" j = Some (Json.Int 7));
      Alcotest.(check bool) "ok" true (Json.member "ok" j = Some (Json.Bool true));
      Alcotest.(check bool) "pong" true
        (Json.member "result" j = Some (Json.Str "pong"))
  | Error e -> Alcotest.fail e);
  (match Json.of_string (exec {|{"id": 8, "op": "no-such-op"}|}) with
  | Ok j ->
      Alcotest.(check bool) "not ok" true (Json.member "ok" j = Some (Json.Bool false));
      Alcotest.(check bool) "id still echoed" true
        (Json.member "id" j = Some (Json.Int 8))
  | Error e -> Alcotest.fail e);
  (match Json.of_string (exec "this is not json") with
  | Ok j ->
      Alcotest.(check bool) "bad JSON is an error response, not a crash" true
        (Json.member "ok" j = Some (Json.Bool false))
  | Error e -> Alcotest.fail e);
  (* a stats response carries the counter tree the CI smoke asserts on *)
  match Json.of_string (exec {|{"op": "stats"}|}) with
  | Ok j ->
      let result = Option.get (Json.member "result" j) in
      List.iter
        (fun kind ->
          match Json.member kind result with
          | Some (Json.Obj _ as block) ->
              List.iter
                (fun counter ->
                  Alcotest.(check bool) (kind ^ "." ^ counter ^ " present") true
                    (match Json.member counter block with
                    | Some (Json.Int _) -> true
                    | _ -> false))
                [ "hits"; "misses"; "evictions"; "entries"; "capacity" ]
          | _ -> Alcotest.fail (kind ^ " block missing"))
        [ "compile"; "run"; "reference" ]
  | Error e -> Alcotest.fail e

(* A malformed \u escape is a parse error, never an exception (epicd
   parses outside any handler), and it takes exactly four hex digits. *)
let test_protocol_bad_unicode_escape () =
  let s = Session.create () in
  List.iter
    (fun line ->
      match Protocol.parse line with
      | exception e ->
          Alcotest.failf "%s raised %s" line (Printexc.to_string e)
      | r -> (
          match Json.of_string (Protocol.execute s r) with
          | Ok j ->
              Alcotest.(check bool) (line ^ " is an error response") true
                (Json.member "ok" j = Some (Json.Bool false))
          | Error e -> Alcotest.fail e))
    [ {|{"op":"ping","id":"\uZZZZ"}|}; {|{"op":"ping","id":"\u12_3"}|} ];
  Alcotest.(check bool) "four hex digits still decode" true
    (Json.of_string {|"\u00e9\u00C9"|} = Ok (Json.Str "\xc3\xa9\xc3\x89"))

(* A program that faults reaches the client as plain text ("fault: ..."),
   not as the OCaml path of the exception. *)
let test_protocol_fault_is_plain_text () =
  let s = Session.create () in
  let line =
    {|{"op":"run","source":"int main() { int *p; p = 0; print_int(*p); return 0; }"}|}
  in
  match Json.of_string (Protocol.execute s (Protocol.parse line)) with
  | Ok j -> (
      Alcotest.(check bool) "not ok" true (Json.member "ok" j = Some (Json.Bool false));
      match Json.member "error" j with
      | Some (Json.Str msg) ->
          let rec has_path i =
            i + 5 <= String.length msg && (String.sub msg i 5 = "Epic_" || has_path (i + 1))
          in
          Alcotest.(check bool) ("a fault: " ^ msg) true (String.starts_with ~prefix:"fault: " msg);
          Alcotest.(check bool) ("no module path: " ^ msg) false (has_path 0)
      | _ -> Alcotest.fail "no error message")
  | Error e -> Alcotest.fail e

let test_protocol_heaviness () =
  Alcotest.(check bool) "run is light" false
    (Protocol.is_heavy (Protocol.parse {|{"op":"run","source":"int main(){return 0;}"}|}));
  Alcotest.(check bool) "suite is heavy" true
    (Protocol.is_heavy (Protocol.parse {|{"op":"suite"}|}));
  Alcotest.(check bool) "shutdown recognized" true
    (Protocol.is_shutdown (Protocol.parse {|{"op":"shutdown"}|}));
  (* unknown fields are ignored: a client still sending the retired
     sweep "fuse" flag gets an ordinary (heavy) sweep, not a Bad request *)
  Alcotest.(check bool) "stale sweep fuse field ignored" true
    (Protocol.is_heavy
       (Protocol.parse {|{"op":"sweep","workloads":["gzip"],"fuse":false}|}))

(* A batch runs in wire order: a stats request pipelined after a suite
   in one batch sees the suite's reference interpretation, and a ping
   before it is answered too. *)
let test_batch_wire_order () =
  let s = Session.create ~jobs:2 () in
  let resps =
    Protocol.execute_batch s
      (Array.map Protocol.parse
         [|
           {|{"id":1,"op":"ping"}|};
           {|{"id":2,"op":"suite","workloads":["gzip"]}|};
           {|{"id":3,"op":"stats"}|};
         |])
  in
  Alcotest.(check int) "one response per request" 3 (Array.length resps);
  let field name line =
    match Json.of_string line with
    | Ok j -> Json.member name j
    | Error e -> Alcotest.fail e
  in
  Array.iteri
    (fun i line ->
      Alcotest.(check bool) (Printf.sprintf "response %d ok" i) true
        (field "ok" line = Some (Json.Bool true));
      Alcotest.(check bool) (Printf.sprintf "response %d in order" i) true
        (field "id" line = Some (Json.Int (i + 1))))
    resps;
  let misses =
    Option.bind (field "result" resps.(2)) (fun r ->
        Option.bind (Json.member "reference" r) (Json.member "misses"))
  in
  Alcotest.(check bool) "stats sees the suite's reference miss" true
    (match misses with Some (Json.Int n) -> n >= 1 | _ -> false)

(* One session, three matrices over the same two workloads: a suite
   subset, a sweep and a causal matrix all read the reference input of
   gzip and twolf, and the session's reference store interprets each
   (source, input) pair exactly once. *)
let test_matrices_share_references () =
  let s = Session.create ~jobs:2 () in
  let backend = Session.backend s in
  let workloads = [ "gzip"; "twolf" ] in
  ignore
    (Epic_core.Experiments.run_suite
       ~workloads:(List.map Epic_workloads.Suite.find_exn workloads)
       backend);
  ignore
    (Epic_sweep.Sweep.run
       ~variants:(List.filter_map Epic_sweep.Sweep.find_variant [ "perfect-icache" ])
       ~workloads backend);
  ignore
    (Epic_causal.Causal.run
       ~targets:[ Epic_causal.Causal.Target_category Epic_sim.Accounting.Front_end ]
       ~factors:[ 1.0 ] ~workloads backend);
  Alcotest.(check int) "one reference miss per (source, input)" 2
    (kind_counter s "reference" "misses");
  (* the sweep and the causal baselines read them again; the causal grid
     is read off those baselines and looks nothing up *)
  Alcotest.(check int) "every later matrix hits" 4 (kind_counter s "reference" "hits")

let suite =
  [
    Alcotest.test_case "machine-desc digest is pinned" `Quick test_digest_pinned;
    Alcotest.test_case "digest ignores the name, sees the knobs" `Quick
      test_digest_name_invariant;
    Alcotest.test_case "lru evicts in recency order" `Quick test_lru_eviction_order;
    Alcotest.test_case "lru replace and capacity validation" `Quick test_lru_replace;
    Alcotest.test_case "compile cache hit/miss per key ingredient" `Slow
      test_session_counters;
    Alcotest.test_case "bounded cache evicts and recounts" `Quick
      test_session_eviction;
    Alcotest.test_case "run-cache hit is byte-identical to cold" `Slow
      test_run_cache_byte_identity;
    Alcotest.test_case "relabeled run-cache hit splices its label" `Quick
      test_relabeled_hit_splices;
    QCheck_alcotest.to_alcotest qcheck_cold_vs_hit;
    Alcotest.test_case "trace runs bypass the run cache" `Quick
      test_trace_bypass;
    Alcotest.test_case "run capacity bounds the reference and run kinds"
      `Slow test_run_capacity_bounds_every_run_kind;
    Alcotest.test_case "concurrent same-key requests compile once" `Quick
      test_concurrent_hammer;
    Alcotest.test_case "protocol envelopes and error paths" `Quick
      test_protocol_envelopes;
    Alcotest.test_case "protocol op classification" `Quick test_protocol_heaviness;
    Alcotest.test_case "a program fault is a plain-text error" `Quick
      test_protocol_fault_is_plain_text;
    Alcotest.test_case "bad \\u escapes are error responses" `Quick
      test_protocol_bad_unicode_escape;
    Alcotest.test_case "session and response keys are pinned" `Quick
      test_keys_pinned;
    Alcotest.test_case "served run bytes equal the tree-built envelope" `Quick
      test_served_bytes;
    Alcotest.test_case "suite, sweep and causal share one interpretation"
      `Slow test_matrices_share_references;
    Alcotest.test_case "a batch runs heavy requests at their wire position"
      `Slow test_batch_wire_order;
  ]
