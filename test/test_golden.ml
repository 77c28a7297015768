(* Golden compile pins.  For every suite workload at O-NS and ILP-CS: the
   final code size and an MD5 digest of the final IR — its text plus every
   block weight, instruction weight and branch taken probability printed
   exactly ([%h]).  The weights come from the train-input profile runs of
   the reference interpreter, so a change to what the profiler counts, or
   to what the compiler does with the counts, moves a pin. *)

open Epic_ir
open Epic_core

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
        Alcotest.(check string) (what ^ " IR digest") digest (ir_digest c.Driver.program)
      end)
    pins

let slow = [ "gcc"; "parser"; "crafty" ]

let suite =
  List.map
    (fun name ->
      ( name ^ " O-NS/ILP-CS pins",
        (if List.mem name slow then `Slow else `Quick),
        test_pins name ))
    Epic_workloads.Suite.names
