(* Register Stack Engine model (Section 4.4).  Each call pushes the callee's
   stacked-register frame; when the cumulative resident count exceeds the
   physical stacked registers (96 on Itanium 2), the RSE must spill the
   oldest frames to the backing store (and fill them back on return),
   costing bus cycles that the paper's Figure 5 shows as "register stack
   engine" time.  The geometry and per-register cost come from the machine
   description at creation time. *)

type frame = { size : int; mutable resident : int }

type t = {
  physical : int;
  cost_per_reg : int; (* cycles per mandatory spill/fill *)
  mutable frames : frame list; (* innermost first *)
  mutable resident_total : int;
  mutable spills : int;
  mutable fills : int;
}

let create ?(physical = Epic_mach.Machine_desc.itanium2.Epic_mach.Machine_desc.rse_physical)
    ?(cost_per_reg =
      Epic_mach.Machine_desc.itanium2.Epic_mach.Machine_desc.rse_spill_cost_per_reg)
    () =
  { physical; cost_per_reg; frames = []; resident_total = 0; spills = 0; fills = 0 }

(* Push a frame of [size] stacked registers; returns the spill cycles. *)
let on_call t size =
  let fr = { size; resident = size } in
  t.frames <- fr :: t.frames;
  t.resident_total <- t.resident_total + size;
  let spilled = ref 0 in
  (* spill oldest frames until we fit *)
  let rec spill_oldest = function
    | [] -> ()
    | _ when t.resident_total <= t.physical -> ()
    | [ oldest ] ->
        let take = min oldest.resident (t.resident_total - t.physical) in
        oldest.resident <- oldest.resident - take;
        t.resident_total <- t.resident_total - take;
        spilled := !spilled + take
    | x :: tl ->
        spill_oldest tl;
        if t.resident_total > t.physical then begin
          let take = min x.resident (t.resident_total - t.physical) in
          x.resident <- x.resident - take;
          t.resident_total <- t.resident_total - take;
          spilled := !spilled + take
        end
  in
  (match t.frames with _cur :: rest -> spill_oldest rest | [] -> ());
  t.spills <- t.spills + !spilled;
  !spilled * t.cost_per_reg

(* Pop the current frame; the caller's frame must be fully resident again.
   Returns the fill cycles. *)
let on_return t =
  match t.frames with
  | [] -> 0
  | cur :: rest ->
      t.frames <- rest;
      t.resident_total <- t.resident_total - cur.resident;
      let fills =
        match rest with
        | caller :: _ ->
            let need = caller.size - caller.resident in
            caller.resident <- caller.size;
            t.resident_total <- t.resident_total + need;
            need
        | [] -> 0
      in
      t.fills <- t.fills + fills;
      fills * t.cost_per_reg

(* Deep copy for checkpointing: the frame list's cells are mutable, so each
   is duplicated (order preserved — innermost first). *)
let copy t =
  {
    t with
    frames = List.map (fun f -> { size = f.size; resident = f.resident }) t.frames;
  }
