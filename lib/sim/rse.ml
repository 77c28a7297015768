(* Register Stack Engine model (Section 4.4).  Each call pushes the callee's
   stacked-register frame; when the cumulative resident count exceeds the
   physical stacked registers (96 on Itanium 2), the RSE must spill the
   oldest frames to the backing store (and fill them back on return),
   costing bus cycles that the paper's Figure 5 shows as "register stack
   engine" time.  The geometry and per-register cost come from the machine
   description at creation time.

   Spills take the oldest registers first and a return refills its caller
   whole, so the resident frames are always a contiguous innermost run:
   every frame below [lo] is spilled entirely, the frame at [lo] may be
   partly spilled, and every frame above it is resident.  A call spills
   upward from [lo] and moves it past the frames it empties; a return
   lowers it to the caller it refills.  Neither allocates. *)

type t = {
  physical : int;
  cost_per_reg : int; (* cycles per mandatory spill/fill *)
  mutable size : int array; (* frame sizes, outermost first *)
  mutable resident : int array; (* resident registers of each frame *)
  mutable depth : int; (* frames on the stack *)
  mutable lo : int; (* oldest frame that may hold resident registers *)
  mutable resident_total : int;
  mutable spills : int;
  mutable fills : int;
}

let create ?(physical = Epic_mach.Machine_desc.itanium2.Epic_mach.Machine_desc.rse_physical)
    ?(cost_per_reg =
      Epic_mach.Machine_desc.itanium2.Epic_mach.Machine_desc.rse_spill_cost_per_reg)
    () =
  {
    physical;
    cost_per_reg;
    size = Array.make 16 0;
    resident = Array.make 16 0;
    depth = 0;
    lo = 0;
    resident_total = 0;
    spills = 0;
    fills = 0;
  }

let grow a = Array.append a (Array.make (Array.length a) 0)

(* Push a frame of [size] stacked registers; returns the spill cycles.  The
   new frame itself is never spilled. *)
let on_call t size =
  if t.depth = Array.length t.size then begin
    t.size <- grow t.size;
    t.resident <- grow t.resident
  end;
  let cur = t.depth in
  t.size.(cur) <- size;
  t.resident.(cur) <- size;
  t.depth <- cur + 1;
  t.resident_total <- t.resident_total + size;
  let spilled = ref 0 in
  while t.resident_total > t.physical && t.lo < cur do
    let k = t.lo in
    let take = min t.resident.(k) (t.resident_total - t.physical) in
    t.resident.(k) <- t.resident.(k) - take;
    t.resident_total <- t.resident_total - take;
    spilled := !spilled + take;
    if t.resident.(k) = 0 then t.lo <- k + 1
  done;
  t.spills <- t.spills + !spilled;
  !spilled * t.cost_per_reg

(* Pop the current frame; the caller's frame must be fully resident again.
   Returns the fill cycles. *)
let on_return t =
  if t.depth = 0 then 0
  else begin
    let cur = t.depth - 1 in
    t.depth <- cur;
    t.resident_total <- t.resident_total - t.resident.(cur);
    if cur = 0 then 0
    else begin
      let caller = cur - 1 in
      let need = t.size.(caller) - t.resident.(caller) in
      t.resident.(caller) <- t.size.(caller);
      t.resident_total <- t.resident_total + need;
      if t.lo > caller then t.lo <- caller;
      t.fills <- t.fills + need;
      need * t.cost_per_reg
    end
  end

(* Checkpoints copy the two arrays; everything else is immutable or an
   int. *)
let copy t = { t with size = Array.copy t.size; resident = Array.copy t.resident }
