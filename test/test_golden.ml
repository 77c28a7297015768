(* Golden compile and simulation pins.  For every suite workload at O-NS
   and ILP-CS:

   - compile: the final code size and an MD5 digest of the final IR — its
     text plus every block weight, instruction weight and branch taken
     probability printed exactly ([%h]).  The weights come from the
     train-input profile runs of the reference interpreter, so a change to
     what the profiler counts, or to what the compiler does with the
     counts, moves a pin.
   - simulation, on the reference input: exit code, an MD5 of the output,
     total cycles ([%h]) and an MD5 of the full detailed-run record (the
     nine category totals in [%h], every counter, the cache and DTLB
     access/miss counts, RSE spills and fills); the default-plan sampled
     estimate ([%h]) and its detailed group count.  A checkpoint taken at
     half the groups and resumed must reproduce the full run's record
     exactly, and so must the run that captured it.

   gzip@ILP-CS additionally pins the trace event counts, the PC-sample
   profile at period 97, and the category totals of five virtual-speedup
   experiments, full and sampled.  A failing simulation pin prints the full record
   of the run, so the moved field is visible in the test log. *)

open Epic_ir
open Epic_core
open Epic_sim

let ir_digest (p : Program.t) =
  let b = Buffer.create 65536 in
  Buffer.add_string b (Program.to_string p);
  List.iter
    (fun (f : Func.t) ->
      List.iter
        (fun (bl : Block.t) ->
          Printf.bprintf b "%s/%s %h\n" f.Func.name bl.Block.label bl.Block.weight;
          List.iter
            (fun (i : Instr.t) ->
              Printf.bprintf b " %d %h %h\n" i.Instr.id i.Instr.attrs.Instr.weight
                i.Instr.attrs.Instr.taken_prob)
            bl.Block.instrs)
        f.Func.blocks)
    p.Program.funcs;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Every [transform_stats] field, in declaration order. *)
let stats_line (s : Driver.transform_stats) =
  Printf.sprintf
    "frontend %d classical %d final %d inlined %d specialized %d peeled %d unrolled %d \
     hyperblocks %d superblocks %d tail_dup %d peel_instrs %d promoted %d marked %d \
     advanced %d bundles %d bytes %d fallback %s"
    s.Driver.instrs_after_frontend s.Driver.instrs_after_classical s.Driver.instrs_final
    s.Driver.inlined_sites s.Driver.specialized_calls s.Driver.peeled_loops
    s.Driver.unrolled_loops s.Driver.hyperblocks s.Driver.superblocks
    s.Driver.tail_dup_instrs s.Driver.peel_instrs s.Driver.promoted_loads
    s.Driver.marked_spec_loads s.Driver.advanced_loads s.Driver.static_bundles
    s.Driver.code_bytes
    (Option.value s.Driver.fallback ~default:"none")

(* (workload, level, code bytes, IR digest) *)
let pins =
  [
    ("gzip", Config.O_NS, 1600, "ebeceffbdc9d455d82e4c510cf3c9fbe");
    ("gzip", Config.ILP_CS, 2048, "a3c6e0a36655681431d4d846be2bfa14");
    ("vpr", Config.O_NS, 2112, "14b81a0b8823c5fc670bf2de74d8d0cc");
    ("vpr", Config.ILP_CS, 2944, "0bf4658313376d79331dccca56cc1e58");
    ("gcc", Config.O_NS, 2688, "7475dc66bee617385413fa4adc21be4c");
    ("gcc", Config.ILP_CS, 2560, "c3b1f0417027e18decaa4ad0e5798c2b");
    ("mcf", Config.O_NS, 1216, "f1d15267f10ebdf6ed7bb20190db1b89");
    ("mcf", Config.ILP_CS, 1984, "bb4d2fcf891b779335aa0dc591794f23");
    ("crafty", Config.O_NS, 3776, "72699805d3260d38aecfd90a71b60e27");
    ("crafty", Config.ILP_CS, 5952, "7eae0c000ed3cc703df06c442c52a8b8");
    ("parser", Config.O_NS, 2560, "fc8ce8148bb459c386980876303cfc4d");
    ("parser", Config.ILP_CS, 3200, "02c7896cd98b9e1d8b76d2e6ad2b9cbe");
    ("eon", Config.O_NS, 1984, "c2234fb17aeed3db5d1c54b404d4b478");
    ("eon", Config.ILP_CS, 2176, "a95dc2c0cc803bded565b5dc8e9d80ef");
    ("perlbmk", Config.O_NS, 2304, "e189f890c720d56f9e21b702f3661feb");
    ("perlbmk", Config.ILP_CS, 2304, "7ab63d23ba13259e1c3dfb922a76c693");
    ("gap", Config.O_NS, 1472, "ff8cbd4fcac03f71a3044b2342e5728c");
    ("gap", Config.ILP_CS, 1984, "def362940b6d901e44c8d523995004bb");
    ("vortex", Config.O_NS, 2880, "492c30e2055a984372eeabf5e58382be");
    ("vortex", Config.ILP_CS, 3328, "d6526dba9d6175c8a9d76172211922e5");
    ("bzip2", Config.O_NS, 1920, "992a4cc83185724e042c544000795465");
    ("bzip2", Config.ILP_CS, 3264, "9cfd553f7a46f2d5f3e8bb6f3bee72d8");
    ("twolf", Config.O_NS, 1600, "06806f0b1f36f93492a2a1cadfb89ca2");
    ("twolf", Config.ILP_CS, 1856, "67e498c229d57c56e08f5f8df06cdeca");
  ]

(* The full record of a finished run: everything a simulation pin covers
   except the sampled estimate. *)
let sim_record (code, out, (st : Machine.t)) =
  let b = Buffer.create 1024 in
  let c = st.Machine.c in
  Printf.bprintf b "exit %d output %s cycle %d total %h\n" code
    (Digest.to_hex (Digest.string out))
    st.Machine.cycle
    (Accounting.total st.Machine.acc);
  Array.iter (fun v -> Printf.bprintf b "cat %h\n" v) st.Machine.acc.Accounting.totals;
  Printf.bprintf b
    "useful %d squashed %d nop %d kernel %d branches %d groups %d wild %d spec %d \
     chk %d nat %d calls %d\n"
    c.Machine.useful_ops c.Machine.squashed_ops c.Machine.nop_ops c.Machine.kernel_ops
    c.Machine.branches c.Machine.groups c.Machine.wild_loads c.Machine.spec_loads
    c.Machine.chk_recoveries c.Machine.nat_consumed c.Machine.calls;
  List.iter
    (fun (n, (k : Cache.t)) ->
      Printf.bprintf b "%s %d/%d\n" n k.Cache.misses k.Cache.accesses)
    [
      ("l1i", st.Machine.l1i); ("l1d", st.Machine.l1d); ("l2", st.Machine.l2);
      ("l3", st.Machine.l3);
    ];
  Printf.bprintf b "dtlb %d/%d rse %d/%d\n" st.Machine.dtlb.Tlb.misses
    st.Machine.dtlb.Tlb.accesses st.Machine.rse.Rse.spills st.Machine.rse.Rse.fills;
  Buffer.contents b

type sim_pin = {
  exit_code : int;
  output_md5 : string;
  cycles : string;  (** total cycles, [%h] *)
  record_md5 : string;  (** MD5 of [sim_record] *)
  sampled_est : string;  (** default-plan [s_est_cycles], [%h] *)
  sampled_detail : int;  (** default-plan [s_detail_groups] *)
  small_est : string;
      (** [s_est_cycles] at [small_plan], [%h]: phases flip every few
          groups, so warm/detail flips land inside callees *)
}

let small_plan = { Sampling.interval = 200; detail = 13; warmup = 0 }

let check_sim what (c : Driver.compiled) (w : Epic_workloads.Workload.t) pin =
  let input = w.Epic_workloads.Workload.reference in
  let ((code, out, st) as full) = Driver.run c input in
  let record = sim_record full in
  let sampled_code, sampled_out, sst =
    Driver.run ~sampling:Sampling.default_plan c input
  in
  let su = Option.get (Machine.sample_summary sst) in
  let _, _, small = Driver.run ~sampling:small_plan c input in
  let small_su = Option.get (Machine.sample_summary small) in
  let got =
    {
      exit_code = code;
      output_md5 = Digest.to_hex (Digest.string out);
      cycles = Printf.sprintf "%h" (Accounting.total st.Machine.acc);
      record_md5 = Digest.to_hex (Digest.string record);
      sampled_est = Printf.sprintf "%h" su.Sampling.s_est_cycles;
      sampled_detail = su.Sampling.s_detail_groups;
      small_est = Printf.sprintf "%h" small_su.Sampling.s_est_cycles;
    }
  in
  if got <> pin then
    Alcotest.failf
      "%s simulation pin moved; got@.  { exit_code = %d; output_md5 = %S; cycles = %S;@.    \
       record_md5 = %S; sampled_est = %S; sampled_detail = %d; small_est = %S }@.\
       full record:@.%s"
      what got.exit_code got.output_md5 got.cycles got.record_md5 got.sampled_est
      got.sampled_detail got.small_est record;
  Alcotest.(check (pair int string))
    (what ^ " sampled output") (code, out) (sampled_code, sampled_out);
  let half = st.Machine.c.Machine.groups / 2 in
  let ((_, _, cst) as captured) = Driver.run ~checkpoint_at:half c input in
  Alcotest.(check string) (what ^ " capturing run") record (sim_record captured);
  let ck = Option.get (Machine.checkpoint cst) in
  Alcotest.(check int) (what ^ " checkpoint position") half (Machine.checkpoint_groups ck);
  Alcotest.(check string) (what ^ " resumed run") record (sim_record (Driver.resume c ck))

(* Generated at the commit that introduced them, before any change to the
   simulator engine. *)
let sim_pins : ((string * Config.level) * sim_pin) list =
  [
    ( ("gzip", Config.O_NS),
      { exit_code = 0; output_md5 = "8a0393b6427f408330b9874ddbdd541b"; cycles = "0x1.29162p+21";
        record_md5 = "46ba4f81c186c66ef70f9a091ef0ca6b"; sampled_est = "0x1.300e6cb569696p+21"; sampled_detail = 39424;
        small_est = "0x1.26e4c3d6f3ec1p+21" } );
    ( ("gzip", Config.ILP_CS),
      { exit_code = 0; output_md5 = "8a0393b6427f408330b9874ddbdd541b"; cycles = "0x1.00a458p+21";
        record_md5 = "578fb98f21124b98075751e46aecd15c"; sampled_est = "0x1.078c301a92492p+21"; sampled_detail = 26112;
        small_est = "0x1.0175673dc27a2p+21" } );
    ( ("vpr", Config.O_NS),
      { exit_code = 0; output_md5 = "8105ec62286c126a45b9300d8d256268"; cycles = "0x1.3fd78p+20";
        record_md5 = "464a5825bf8883be0e2a4220e4cb75df"; sampled_est = "0x1.3ff8d1318b3a6p+20"; sampled_detail = 33792;
        small_est = "0x1.3f6d9f6a366f1p+20" } );
    ( ("vpr", Config.ILP_CS),
      { exit_code = 0; output_md5 = "8105ec62286c126a45b9300d8d256268"; cycles = "0x1.00d2p+20";
        record_md5 = "02735d916f95a1c2ec339b7112f49d5c"; sampled_est = "0x1.00f52796aaaabp+20"; sampled_detail = 32256;
        small_est = "0x1.ff0cdab1a586dp+19" } );
    ( ("gcc", Config.O_NS),
      { exit_code = 0; output_md5 = "a00ab7338733c6d036c91d46167fd253"; cycles = "0x1.afb76p+20";
        record_md5 = "79ff6888a8567b1018b69ccc440877d2"; sampled_est = "0x1.abadf6ce66667p+20"; sampled_detail = 32768;
        small_est = "0x1.ab61298216608p+20" } );
    ( ("gcc", Config.ILP_CS),
      { exit_code = 0; output_md5 = "a00ab7338733c6d036c91d46167fd253"; cycles = "0x1.f24d8p+20";
        record_md5 = "f027c66f421d04229b982d99aba8433e"; sampled_est = "0x1.f5372308p+20"; sampled_detail = 36352;
        small_est = "0x1.ed0ec9fd1673dp+20" } );
    ( ("mcf", Config.O_NS),
      { exit_code = 0; output_md5 = "26e603822f8adcc482e0342e2cfc4ae4"; cycles = "0x1.93b1p+22";
        record_md5 = "137d4186f32620bb679fe2cd46646241"; sampled_est = "0x1.9a62bf2799999p+22"; sampled_detail = 25088;
        small_est = "0x1.97e0347b82fcp+22" } );
    ( ("mcf", Config.ILP_CS),
      { exit_code = 0; output_md5 = "26e603822f8adcc482e0342e2cfc4ae4"; cycles = "0x1.983e0cp+22";
        record_md5 = "612bec7082e93da9ff2fb7a851fbc41a"; sampled_est = "0x1.9a9858b7ca1bp+22"; sampled_detail = 24064;
        small_est = "0x1.88763d38eaf7bp+22" } );
    ( ("crafty", Config.O_NS),
      { exit_code = 0; output_md5 = "bd1fbbb4a8add965a2bc8ac16975db98"; cycles = "0x1.95aa6p+20";
        record_md5 = "6b394665f833952f30c6b2c4721bbf2e"; sampled_est = "0x1.91aa54b777778p+20"; sampled_detail = 50688;
        small_est = "0x1.955a46053c28fp+20" } );
    ( ("crafty", Config.ILP_CS),
      { exit_code = 0; output_md5 = "bd1fbbb4a8add965a2bc8ac16975db98"; cycles = "0x1.f4b7cp+19";
        record_md5 = "e31cab18eaa3de638c5fb53c578d508e"; sampled_est = "0x1.efb4a9c7711ddp+19"; sampled_detail = 26624;
        small_est = "0x1.f73a4deed19c5p+19" } );
    ( ("parser", Config.O_NS),
      { exit_code = 0; output_md5 = "660f9e41b0c91af52aa4d45908b16986"; cycles = "0x1.0a15d4p+22";
        record_md5 = "f09df9cbc13d7a546e458b92bda374ee"; sampled_est = "0x1.0af857dd64ac9p+22"; sampled_detail = 95744;
        small_est = "0x1.07e388de14725p+22" } );
    ( ("parser", Config.ILP_CS),
      { exit_code = 0; output_md5 = "660f9e41b0c91af52aa4d45908b16986"; cycles = "0x1.05fe7p+22";
        record_md5 = "2ea7cca19733083435654d3d02b42be6"; sampled_est = "0x1.05e1bd699999ap+22"; sampled_detail = 78848;
        small_est = "0x1.043e0cca67f02p+22" } );
    ( ("eon", Config.O_NS),
      { exit_code = 0; output_md5 = "60b105c402cb0e996ff5eefa86416261"; cycles = "0x1.ef60ep+19";
        record_md5 = "ea3059f9bbb243046748cdaeaa1232c5"; sampled_est = "0x1.ef7cea838e38ep+19"; sampled_detail = 32256;
        small_est = "0x1.eb1aac9dd261dp+19" } );
    ( ("eon", Config.ILP_CS),
      { exit_code = 0; output_md5 = "60b105c402cb0e996ff5eefa86416261"; cycles = "0x1.5c02ap+19";
        record_md5 = "74e5466f38af4dfc815bb904b2c2585d"; sampled_est = "0x1.5b49dae94a529p+19"; sampled_detail = 20480;
        small_est = "0x1.575297a30c62ap+19" } );
    ( ("perlbmk", Config.O_NS),
      { exit_code = 0; output_md5 = "7dffaa43b15654910397a43c0e50acfe"; cycles = "0x1.393bdp+20";
        record_md5 = "d87292d8d56e7372b3b226d4a2eb7ae6"; sampled_est = "0x1.39340c1f49249p+20"; sampled_detail = 33280;
        small_est = "0x1.386d651fa32b7p+20" } );
    ( ("perlbmk", Config.ILP_CS),
      { exit_code = 0; output_md5 = "7dffaa43b15654910397a43c0e50acfe"; cycles = "0x1.0ca4fp+20";
        record_md5 = "d2bea50fd760f191be573d722eb74eae"; sampled_est = "0x1.0cd2222db6db7p+20"; sampled_detail = 26112;
        small_est = "0x1.0b46d539ed1a6p+20" } );
    ( ("gap", Config.O_NS),
      { exit_code = 0; output_md5 = "2cfe768a50ffddecc159f8ed7dca9db6"; cycles = "0x1.16c66p+19";
        record_md5 = "893202bbca2350451f47669aadd90b4f"; sampled_est = "0x1.14fb16caaaaabp+19"; sampled_detail = 16896;
        small_est = "0x1.150f7c2b3563cp+19" } );
    ( ("gap", Config.ILP_CS),
      { exit_code = 0; output_md5 = "2cfe768a50ffddecc159f8ed7dca9db6"; cycles = "0x1.ec77p+18";
        record_md5 = "6316700e9fdf7fcb08333608a383dc94"; sampled_est = "0x1.e44d6d2p+18"; sampled_detail = 14848;
        small_est = "0x1.e75e3c70d39a2p+18" } );
    ( ("vortex", Config.O_NS),
      { exit_code = 0; output_md5 = "efd3140f994391bb1d88b05a659f8399"; cycles = "0x1.48ca8p+19";
        record_md5 = "af3cfdff45b903aefa497c98157367a9"; sampled_est = "0x1.4c652e5e147aep+19"; sampled_detail = 17408;
        small_est = "0x1.46ecfad6e6fcap+19" } );
    ( ("vortex", Config.ILP_CS),
      { exit_code = 0; output_md5 = "efd3140f994391bb1d88b05a659f8399"; cycles = "0x1.37cb2p+19";
        record_md5 = "0ea12df3584caf3188c23a42f0525bc3"; sampled_est = "0x1.37760b5ae147bp+19"; sampled_detail = 17408;
        small_est = "0x1.368085be8f872p+19" } );
    ( ("bzip2", Config.O_NS),
      { exit_code = 0; output_md5 = "d6ac926b870eb0c4d07e732c40bf6fc8"; cycles = "0x1.309aep+20";
        record_md5 = "3361fc074e8035939a5aeffaf1294b8c"; sampled_est = "0x1.318598f19999ap+20"; sampled_detail = 37888;
        small_est = "0x1.2e6e5e3a334e2p+20" } );
    ( ("bzip2", Config.ILP_CS),
      { exit_code = 0; output_md5 = "d6ac926b870eb0c4d07e732c40bf6fc8"; cycles = "0x1.df312p+19";
        record_md5 = "3ca343711bf0f9fad8b6fd4eac85d62b"; sampled_est = "0x1.e0a86d8p+19"; sampled_detail = 28160;
        small_est = "0x1.db2c0d0e7d95bp+19" } );
    ( ("twolf", Config.O_NS),
      { exit_code = 0; output_md5 = "b6c3cec291678e227ca5d913784b139d"; cycles = "0x1.0009p+19";
        record_md5 = "e22c458a501c400552cfd04ff4df88e6"; sampled_est = "0x1.039c443ae8ba2p+19"; sampled_detail = 15872;
        small_est = "0x1.fc6715dea5fe5p+18" } );
    ( ("twolf", Config.ILP_CS),
      { exit_code = 0; output_md5 = "b6c3cec291678e227ca5d913784b139d"; cycles = "0x1.afff4p+18";
        record_md5 = "f5f54254c3070b340c12a32cc38132d9"; sampled_est = "0x1.ae6dd19999999p+18"; sampled_detail = 14848;
        small_est = "0x1.abd5d55dcedabp+18" } );
  ]

(* Generated from the per-domain pass counters, before the passes returned
   their counts as values. *)
let stats_pins : ((string * Config.level) * string) list =
  [
    ( ("gzip", Config.O_NS),
      "frontend 210 classical 240 final 240 inlined 4 specialized 0 peeled 0 unrolled 0 hyperblocks 0 superblocks 0 tail_dup 0 peel_instrs 0 promoted 0 marked 0 advanced 0 bundles 97 bytes 1600 fallback none" );
    ( ("gzip", Config.ILP_CS),
      "frontend 210 classical 240 final 307 inlined 4 specialized 0 peeled 1 unrolled 2 hyperblocks 2 superblocks 6 tail_dup 11 peel_instrs 17 promoted 3 marked 10 advanced 0 bundles 126 bytes 2048 fallback none" );
    ( ("vpr", Config.O_NS),
      "frontend 226 classical 285 final 285 inlined 8 specialized 0 peeled 0 unrolled 0 hyperblocks 0 superblocks 0 tail_dup 0 peel_instrs 0 promoted 0 marked 0 advanced 0 bundles 123 bytes 2112 fallback none" );
    ( ("vpr", Config.ILP_CS),
      "frontend 226 classical 285 final 401 inlined 8 specialized 0 peeled 0 unrolled 2 hyperblocks 5 superblocks 5 tail_dup 0 peel_instrs 0 promoted 4 marked 17 advanced 0 bundles 176 bytes 2944 fallback none" );
    ( ("gcc", Config.O_NS),
      "frontend 281 classical 360 final 360 inlined 7 specialized 0 peeled 0 unrolled 0 hyperblocks 0 superblocks 0 tail_dup 0 peel_instrs 0 promoted 0 marked 0 advanced 0 bundles 158 bytes 2688 fallback none" );
    ( ("gcc", Config.ILP_CS),
      "frontend 281 classical 360 final 357 inlined 7 specialized 0 peeled 0 unrolled 1 hyperblocks 6 superblocks 4 tail_dup 0 peel_instrs 0 promoted 3 marked 1 advanced 0 bundles 154 bytes 2560 fallback none" );
    ( ("mcf", Config.O_NS),
      "frontend 161 classical 174 final 174 inlined 4 specialized 0 peeled 0 unrolled 0 hyperblocks 0 superblocks 0 tail_dup 0 peel_instrs 0 promoted 0 marked 0 advanced 0 bundles 73 bytes 1216 fallback none" );
    ( ("mcf", Config.ILP_CS),
      "frontend 161 classical 174 final 287 inlined 4 specialized 0 peeled 0 unrolled 2 hyperblocks 1 superblocks 5 tail_dup 0 peel_instrs 0 promoted 12 marked 1 advanced 0 bundles 116 bytes 1984 fallback none" );
    ( ("crafty", Config.O_NS),
      "frontend 419 classical 529 final 529 inlined 11 specialized 0 peeled 0 unrolled 0 hyperblocks 0 superblocks 0 tail_dup 0 peel_instrs 0 promoted 0 marked 0 advanced 0 bundles 224 bytes 3776 fallback none" );
    ( ("crafty", Config.ILP_CS),
      "frontend 419 classical 529 final 856 inlined 11 specialized 0 peeled 3 unrolled 9 hyperblocks 9 superblocks 17 tail_dup 21 peel_instrs 48 promoted 0 marked 7 advanced 0 bundles 359 bytes 5952 fallback none" );
    ( ("parser", Config.O_NS),
      "frontend 299 classical 367 final 367 inlined 7 specialized 0 peeled 0 unrolled 0 hyperblocks 0 superblocks 0 tail_dup 0 peel_instrs 0 promoted 0 marked 0 advanced 0 bundles 146 bytes 2560 fallback none" );
    ( ("parser", Config.ILP_CS),
      "frontend 299 classical 367 final 465 inlined 7 specialized 0 peeled 2 unrolled 1 hyperblocks 1 superblocks 11 tail_dup 14 peel_instrs 42 promoted 0 marked 9 advanced 0 bundles 190 bytes 3200 fallback none" );
    ( ("eon", Config.O_NS),
      "frontend 177 classical 242 final 242 inlined 4 specialized 1 peeled 0 unrolled 0 hyperblocks 0 superblocks 0 tail_dup 0 peel_instrs 0 promoted 0 marked 0 advanced 0 bundles 115 bytes 1984 fallback none" );
    ( ("eon", Config.ILP_CS),
      "frontend 177 classical 242 final 266 inlined 4 specialized 1 peeled 0 unrolled 0 hyperblocks 0 superblocks 4 tail_dup 35 peel_instrs 0 promoted 0 marked 9 advanced 0 bundles 126 bytes 2176 fallback none" );
    ( ("perlbmk", Config.O_NS),
      "frontend 284 classical 335 final 335 inlined 4 specialized 0 peeled 0 unrolled 0 hyperblocks 0 superblocks 0 tail_dup 0 peel_instrs 0 promoted 0 marked 0 advanced 0 bundles 140 bytes 2304 fallback none" );
    ( ("perlbmk", Config.ILP_CS),
      "frontend 284 classical 335 final 325 inlined 4 specialized 0 peeled 0 unrolled 0 hyperblocks 8 superblocks 7 tail_dup 30 peel_instrs 0 promoted 1 marked 11 advanced 0 bundles 136 bytes 2304 fallback none" );
    ( ("gap", Config.O_NS),
      "frontend 174 classical 192 final 192 inlined 5 specialized 1 peeled 0 unrolled 0 hyperblocks 0 superblocks 0 tail_dup 0 peel_instrs 0 promoted 0 marked 0 advanced 0 bundles 81 bytes 1472 fallback none" );
    ( ("gap", Config.ILP_CS),
      "frontend 174 classical 192 final 283 inlined 5 specialized 1 peeled 0 unrolled 2 hyperblocks 4 superblocks 4 tail_dup 6 peel_instrs 0 promoted 0 marked 5 advanced 0 bundles 114 bytes 1984 fallback none" );
    ( ("vortex", Config.O_NS),
      "frontend 298 classical 393 final 393 inlined 9 specialized 0 peeled 0 unrolled 0 hyperblocks 0 superblocks 0 tail_dup 0 peel_instrs 0 promoted 0 marked 0 advanced 0 bundles 168 bytes 2880 fallback none" );
    ( ("vortex", Config.ILP_CS),
      "frontend 298 classical 393 final 458 inlined 9 specialized 0 peeled 0 unrolled 1 hyperblocks 3 superblocks 2 tail_dup 18 peel_instrs 0 promoted 0 marked 2 advanced 0 bundles 193 bytes 3328 fallback none" );
    ( ("bzip2", Config.O_NS),
      "frontend 220 classical 281 final 281 inlined 4 specialized 0 peeled 0 unrolled 0 hyperblocks 0 superblocks 0 tail_dup 0 peel_instrs 0 promoted 0 marked 0 advanced 0 bundles 116 bytes 1920 fallback none" );
    ( ("bzip2", Config.ILP_CS),
      "frontend 220 classical 281 final 471 inlined 4 specialized 0 peeled 0 unrolled 6 hyperblocks 0 superblocks 10 tail_dup 21 peel_instrs 0 promoted 0 marked 4 advanced 0 bundles 196 bytes 3264 fallback none" );
    ( ("twolf", Config.O_NS),
      "frontend 180 classical 239 final 239 inlined 4 specialized 0 peeled 0 unrolled 0 hyperblocks 0 superblocks 0 tail_dup 0 peel_instrs 0 promoted 0 marked 0 advanced 0 bundles 98 bytes 1600 fallback none" );
    ( ("twolf", Config.ILP_CS),
      "frontend 180 classical 239 final 266 inlined 4 specialized 0 peeled 2 unrolled 0 hyperblocks 7 superblocks 4 tail_dup 1 peel_instrs 55 promoted 0 marked 5 advanced 0 bundles 112 bytes 1856 fallback none" );
  ]

let test_pins name () =
  let w = Epic_workloads.Suite.find_exn name in
  List.iter
    (fun (n, level, bytes, digest) ->
      if n = name then begin
        let c =
          Driver.compile ~config:(Experiments.config_for w level)
            ~train:w.Epic_workloads.Workload.train w.Epic_workloads.Workload.source
        in
        let what = Printf.sprintf "%s@%s" name (Config.level_name level) in
        Alcotest.(check int) (what ^ " code bytes") bytes
          c.Driver.transform_stats.Driver.code_bytes;
        Alcotest.(check string) (what ^ " IR digest") digest (ir_digest c.Driver.program);
        Alcotest.(check string) (what ^ " transform stats") (List.assoc (name, level) stats_pins)
          (stats_line c.Driver.transform_stats);
        check_sim what c w (List.assoc (name, level) sim_pins)
      end)
    pins

(* gzip@ILP-CS with the observability instruments on: exact per-kind trace
   event counts, and the PC-sample profile at period 97 — its sample total
   plus an MD5 of the per-(function, block) sample counts. *)
let trace_pin =
  [
    ("l1i-miss", 25); ("l1d-miss", 69642); ("l2-miss", 32838); ("dtlb-walk", 31184);
    ("wild-load", 825); ("br-mispredict", 17336); ("rse-spill", 0); ("rse-fill", 0);
    ("spec-load", 164871); ("chk-recovery", 0); ("nat-deferral", 392);
  ]

let profile_pin = (21674, "2e6f05d4745d396cc469dfbb9f02d5be")

let test_observed () =
  let w = Epic_workloads.Suite.find_exn "gzip" in
  let c =
    Driver.compile ~config:(Experiments.config_for w Config.ILP_CS)
      ~train:w.Epic_workloads.Workload.train w.Epic_workloads.Workload.source
  in
  let trace = Epic_obs.Trace.create () in
  let profile = Epic_obs.Profile.create ~period:97 () in
  ignore (Driver.run ~trace ~profile c w.Epic_workloads.Workload.reference);
  let counts =
    List.map
      (fun k -> (Epic_obs.Trace.kind_name k, Epic_obs.Trace.count trace k))
      Epic_obs.Trace.all_kinds
  in
  let blocks =
    String.concat "\n"
      (List.map
         (fun ((f, b), n) -> Printf.sprintf "%s/%s %d" f b n)
         (Epic_obs.Profile.by_block profile))
  in
  let got = (Epic_obs.Profile.samples profile, Digest.to_hex (Digest.string blocks)) in
  Alcotest.(check (list (pair string int))) "trace event counts" trace_pin counts;
  Alcotest.(check (pair int string)) "profile samples and blocks" profile_pin got

(* gzip@ILP-CS under virtual-speedup experiments of every target kind,
   plus a speedup-0.0 one: the nine category totals ([%h]) of each
   experiment's accounting, in full detail and under a small sampling plan
   that switches phase many times.  Pinned from runs that carried one
   experiment each and scaled every matching charge as it was made; the
   speedups are dyadic, so each scaled charge and every sum of them is
   exact and any correct evaluation reproduces these bits. *)
let experiment_set =
  Accounting.
    [
      { target = Target_category Front_end; speedup = 1.0 };
      { target = Target_category Br_mispredict; speedup = 0.5 };
      { target = Target_func "deflate"; speedup = 0.25 };
      { target = Target_func_category ("deflate", Unstalled); speedup = 0.75 };
      { target = Target_category Int_load_bubble; speedup = 0.0 };
    ]

let experiment_pins =
  [
    ( "full",
      [
        [ "0x1.744e2p+19"; "0x0p+0"; "0x1.a5ccp+14"; "0x1.6033cp+18"; "0x1.7d0cp+19"; "0x0p+0";
          "0x1.965p+16"; "0x0p+0"; "0x1.01dp+16" ];
        [ "0x1.744e2p+19"; "0x0p+0"; "0x1.a5ccp+14"; "0x1.6033cp+18"; "0x1.7d0cp+19"; "0x1.d6p+10";
          "0x1.965p+15"; "0x0p+0"; "0x1.01dp+16" ];
        [ "0x1.218b08p+19"; "0x0p+0"; "0x1.a5ccp+14"; "0x1.08299p+18"; "0x1.1e4858p+19";
          "0x1.96ep+10"; "0x1.30ed8p+16"; "0x0p+0"; "0x1.82b8p+15" ];
        [ "0x1.f0136p+17"; "0x0p+0"; "0x1.a5ccp+14"; "0x1.6033cp+18"; "0x1.7d0cp+19"; "0x1.d6p+10";
          "0x1.965p+16"; "0x0p+0"; "0x1.01dp+16" ];
        [ "0x1.744e2p+19"; "0x0p+0"; "0x1.a5ccp+14"; "0x1.6033cp+18"; "0x1.7d0cp+19"; "0x1.d6p+10";
          "0x1.965p+16"; "0x0p+0"; "0x1.01dp+16" ];
      ] );
    ( "4096:256:1024",
      [
        [ "0x1.74f48acfcfcfdp+19"; "0x0p+0"; "0x1.8e408c9696969p+14"; "0x1.70cda42d2d2d3p+18";
          "0x1.8aee6b86c6c6cp+19"; "0x0p+0"; "0x1.a5a476ccccccdp+16"; "0x0p+0";
          "0x1.097cff8787879p+16" ];
        [ "0x1.74f48acfcfcfdp+19"; "0x0p+0"; "0x1.8e408c9696969p+14"; "0x1.70cda42d2d2d3p+18";
          "0x1.8aee6b86c6c6cp+19"; "0x1.22p+9"; "0x1.a5a476ccccccdp+15"; "0x0p+0";
          "0x1.097cff8787879p+16" ];
        [ "0x1.2173ba19ededfp+19"; "0x0p+0"; "0x1.8e408c9696969p+14"; "0x1.149a3b21e1e1ep+18";
          "0x1.28bfb1809c9cap+19"; "0x1.22p+9"; "0x1.3c5ae46bababap+16"; "0x0p+0";
          "0x1.8e3b7f4b4b4b5p+15" ];
        [ "0x1.e9c862b8a8a8bp+17"; "0x0p+0"; "0x1.8e408c9696969p+14"; "0x1.70cda42d2d2d3p+18";
          "0x1.8aee6b86c6c6cp+19"; "0x1.22p+9"; "0x1.a5a476ccccccdp+16"; "0x0p+0";
          "0x1.097cff8787879p+16" ];
        [ "0x1.74f48acfcfcfdp+19"; "0x0p+0"; "0x1.8e408c9696969p+14"; "0x1.70cda42d2d2d3p+18";
          "0x1.8aee6b86c6c6cp+19"; "0x1.22p+9"; "0x1.a5a476ccccccdp+16"; "0x0p+0";
          "0x1.097cff8787879p+16" ];
      ] );
  ]

let test_experiments () =
  let w = Epic_workloads.Suite.find_exn "gzip" in
  let c =
    Driver.compile ~config:(Experiments.config_for w Config.ILP_CS)
      ~train:w.Epic_workloads.Workload.train w.Epic_workloads.Workload.source
  in
  List.iter
    (fun (plan, pins) ->
      let sampling = if plan = "full" then None else Some (Sampling.parse_spec plan) in
      let _, _, st =
        Driver.run ?sampling ~experiments:experiment_set c w.Epic_workloads.Workload.reference
      in
      let got =
        Array.to_list
          (Array.map
             (fun (a : Accounting.t) ->
               List.map (Printf.sprintf "%h") (Array.to_list a.Accounting.totals))
             (Machine.fused_accounts st))
      in
      Alcotest.(check (list (list string))) (plan ^ " experiment totals") pins got)
    experiment_pins

let slow = [ "gcc"; "parser"; "crafty" ]

let suite =
  List.map
    (fun name ->
      ( name ^ " O-NS/ILP-CS pins",
        (if List.mem name slow then `Slow else `Quick),
        test_pins name ))
    Epic_workloads.Suite.names
  @ [
      ("gzip ILP-CS trace and profile pins", `Quick, test_observed);
      ("gzip ILP-CS experiment pins", `Quick, test_experiments);
    ]
