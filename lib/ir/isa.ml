(* The architectural rules of the modelled IA-64 subset that both engines
   apply — the reference interpreter and the machine simulator — kept in
   one place so a rule fixed here is fixed in both. *)

let malformed i = "malformed instruction: " ^ Instr.to_string i

let access_fault (spec : Opcode.spec_kind) (acc : Memimage.access) addr =
  match (acc, spec) with
  | Memimage.Ok, _ | _, (Opcode.Spec_general | Opcode.Spec_sentinel) -> None
  | Memimage.Null_page, _ -> Some (Printf.sprintf "NULL page access 0x%Lx" addr)
  | Memimage.Unmapped, _ -> Some (Printf.sprintf "unmapped access 0x%Lx" addr)

type recovery = Reloaded | Nat_address | Recovery_fault of string

let recover mem ~nat addr ~size buf o =
  if nat then Nat_address
  else
    match access_fault Opcode.Nonspec (Memimage.classify mem addr) addr with
    | Some m -> Recovery_fault m
    | None ->
        Memimage.read_into mem addr size buf o;
        Reloaded

module Alat = struct
  (* Entry [i] of [count] is [e.(3i)], the register key, and the bytes
     [e.(3i+1)] to [e.(3i+2)] (exclusive) of its load.  Entries are
     unordered: a removal moves the last one into the gap. *)
  type t = { mutable count : int; mutable e : int array }

  let create () = { count = 0; e = Array.make 24 0 }

  let key (cls : Reg.cls) reg =
    (3 * reg) + match cls with Reg.Int | Reg.Brr -> 0 | Reg.Flt -> 1 | Reg.Prd -> 2

  let rec find t key i =
    if i >= t.count then -1 else if t.e.(3 * i) = key then i else find t key (i + 1)

  let mem t key = find t key 0 >= 0

  let insert t key addr size =
    let i = find t key 0 in
    let i =
      if i >= 0 then i
      else begin
        if 3 * t.count = Array.length t.e then t.e <- Array.append t.e t.e;
        t.count <- t.count + 1;
        t.count - 1
      end
    in
    t.e.(3 * i) <- key;
    t.e.((3 * i) + 1) <- addr;
    t.e.((3 * i) + 2) <- addr + size

  let snoop t addr size =
    let i = ref 0 in
    while !i < t.count do
      let j = 3 * !i in
      if max t.e.(j + 1) addr < min t.e.(j + 2) (addr + size) then begin
        t.count <- t.count - 1;
        Array.blit t.e (3 * t.count) t.e j 3
      end
      else incr i
    done

  let flush t = t.count <- 0
  let copy t = { t with e = Array.copy t.e }
end
