(* Whole programs: functions plus global data.  Global variables live at
   fixed addresses assigned by [assign_addresses]; the simulator and the
   high-level interpreter share this layout. *)

type global = {
  gname : string;
  size : int; (* bytes *)
  init : int64 array option; (* initial 8-byte words, zero if absent *)
  mutable address : int64; (* assigned by [assign_addresses] *)
}

type t = {
  mutable funcs : Func.t list; (* definition order *)
  mutable globals : global list;
  mutable entry : string; (* entry function, normally "main" *)
}

let create () = { funcs = []; globals = []; entry = "main" }

let add_func p f = p.funcs <- p.funcs @ [ f ]

(* A structural deep copy: fresh functions, blocks, instructions and global
   descriptors (initializer arrays are read-only and stay shared).  Lets the
   driver snapshot a program before destructive transformation and retry
   compilation from the snapshot instead of re-parsing the source.
   Instruction ids are preserved ([Instr.clone]): the snapshot is the same
   program, and taking it must not advance the global id counter. *)
let copy p =
  {
    funcs = List.map Func.copy p.funcs;
    globals = List.map (fun g -> { g with gname = g.gname }) p.globals;
    entry = p.entry;
  }

let add_global p ?init gname ~size =
  let g = { gname; size; init; address = 0L } in
  p.globals <- p.globals @ [ g ];
  g

let find_func p name = List.find_opt (fun f -> f.Func.name = name) p.funcs

let find_func_exn p name =
  match find_func p name with
  | Some f -> f
  | None -> invalid_arg ("Program.find_func: no function " ^ name)

let find_global p name = List.find_opt (fun g -> g.gname = name) p.globals

(* Data segment base; the zero page is reserved as the architected NaT page
   used to absorb speculative NULL dereferences cheaply (paper footnote 8). *)
let data_base = 0x10000L
let heap_base = 0x200000L
let stack_top = 0x800000L
let code_base = 0x4000L

(* Functions have stable "addresses" so that function pointers can be stored
   in memory (indirect calls in eon- and gap-like workloads). *)
let func_address p name =
  let rec go i = function
    | [] -> invalid_arg ("Program.func_address: no function " ^ name)
    | f :: _ when f.Func.name = name -> Int64.add code_base (Int64.of_int (i * 64))
    | _ :: tl -> go (i + 1) tl
  in
  go 0 p.funcs

let func_at_address p (a : int64) =
  let off = Int64.to_int (Int64.sub a code_base) in
  if off < 0 || off mod 64 <> 0 then None
  else List.nth_opt p.funcs (off / 64) |> Option.map (fun f -> f.Func.name)

let assign_addresses p =
  let addr = ref data_base in
  List.iter
    (fun g ->
      g.address <- !addr;
      let sz = Int64.of_int ((g.size + 15) / 16 * 16) in
      addr := Int64.add !addr sz)
    p.globals

let iter_instrs p f =
  List.iter (fun fn -> Func.iter_instrs fn f) p.funcs

let instr_count p =
  List.fold_left (fun n f -> n + Func.instr_count f) 0 p.funcs

let pp ppf p =
  List.iter
    (fun g -> Fmt.pf ppf "global @%s : %dB @@ 0x%Lx@." g.gname g.size g.address)
    p.globals;
  List.iter (fun f -> Fmt.pf ppf "@.%a" Func.pp f) p.funcs

