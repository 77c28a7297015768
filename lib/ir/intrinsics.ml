(* Runtime intrinsics: the small set of externally-provided operations the
   mini-C runtime offers.  They stand in for the gcc-compiled system
   libraries the paper observes (Section 4.5) and are therefore never
   optimized by the compiler.  Their semantics live here, once: the
   high-level interpreter and the machine simulator both run [call], and
   the machine adds only its timing around it. *)

type kind =
  | Print_int (* print_int(x): append "<x>\n" to program output *)
  | Print_char (* print_char(c) *)
  | Malloc (* malloc(bytes) -> pointer; bump allocator *)
  | Input (* input(i) -> i-th word of the input vector, 0 past the end *)
  | Input_len (* input_len() -> number of input words *)
  | Memcpy (* memcpy(dst, src, bytes) *)
  | Memset (* memset(dst, byte, bytes) *)
  | Exit (* exit(code): stop the program *)

let all =
  [
    ("print_int", Print_int);
    ("print_char", Print_char);
    ("malloc", Malloc);
    ("input", Input);
    ("input_len", Input_len);
    ("memcpy", Memcpy);
    ("memset", Memset);
    ("exit", Exit);
  ]

let of_name n = List.assoc_opt n all
let is_intrinsic n = of_name n <> None

(* Latency charged by the timing model for one intrinsic call, standing in
   for the unoptimizable gcc-compiled library code of Section 4.5.  memcpy
   and memset additionally pay a per-byte cost in the simulator. *)
let base_cost = function
  | Print_int | Print_char -> 40
  | Malloc -> 60
  | Input | Input_len -> 10
  | Memcpy | Memset -> 30
  | Exit -> 1

exception Exit_program of int

type runtime = { mutable heap : int64; output : Buffer.t; input : int64 array }

let arity = function Input_len -> 0 | Memcpy | Memset -> 3 | _ -> 1
let results = function Malloc | Input | Input_len -> 1 | _ -> 0
let arg args nats n j = if j >= n || nats.(j) then 0L else Bytes.get_int64_ne args (8 * j)

let nat_args k nats n =
  let c = ref 0 in
  for j = 0 to min n (arity k) - 1 do
    if nats.(j) then incr c
  done;
  !c

let call rt mem k args nats n =
  let x j = arg args nats n j in
  let result v =
    Bytes.set_int64_ne args 0 v;
    nats.(0) <- false
  in
  match k with
  | Print_int -> Buffer.add_string rt.output (Int64.to_string (x 0) ^ "\n")
  | Print_char -> Buffer.add_char rt.output (Char.chr (Int64.to_int (x 0) land 0xff))
  | Malloc ->
      let bytes = max 8 ((Int64.to_int (x 0) + 15) / 16 * 16) in
      let addr = rt.heap in
      rt.heap <- Int64.add addr (Int64.of_int bytes);
      Memimage.map_range mem addr bytes;
      result addr
  | Input ->
      let i = Int64.to_int (x 0) in
      result (if i >= 0 && i < Array.length rt.input then rt.input.(i) else 0L)
  | Input_len -> result (Int64.of_int (Array.length rt.input))
  | Memcpy -> Memimage.blit mem ~src:(x 1) ~dst:(x 0) (Int64.to_int (x 2))
  | Memset -> Memimage.fill mem (x 0) (Int64.to_int (x 2)) (Char.chr (Int64.to_int (x 1) land 0xff))
  | Exit -> raise (Exit_program (Int64.to_int (x 0)))
