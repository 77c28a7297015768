(* First-class machine descriptions.  Every microarchitectural constant the
   scheduler plans against and the simulator charges for lives in one record,
   with [itanium2] as the canonical value (the scaled Itanium 2 of DESIGN.md
   section 5.4).  Perturbing a copy of [itanium2] yields a machine variant for
   the sensitivity sweeps (lib/sweep); the compiler and the simulator read the
   same description, so planned latencies and the event model never diverge.

   "What if the I-cache/predictor were free" is not a machine: it is a
   factor-1.0 category experiment over the baseline's accounting
   (Epic_sim.Accounting), so no field here models it. *)

type cache_geom = { size : int; line : int; assoc : int }

type t = {
  name : string;
  (* issue: [bundles_per_cycle] bundles of three slots fetched and issued per
     front-end cycle; the per-class slot counts bound what one group holds. *)
  bundles_per_cycle : int;
  issue_width : int; (* total slots per cycle (bundles x 3) *)
  m_slots : int; (* memory slots *)
  i_slots : int;
  f_slots : int;
  b_slots : int;
  ld_pipes : int; (* load pipes within M *)
  st_pipes : int; (* store pipes within M *)
  (* planned (static) result latencies the scheduler inserts *)
  lat_alu : int;
  lat_mul : int;
  lat_div : int; (* software-expanded on real HW *)
  lat_fp : int;
  lat_fdiv : int;
  lat_load : int; (* integer L1D load-to-use *)
  float_load_latency : int; (* FP loads are served from L2 on Itanium 2 *)
  (* memory hierarchy (scaled; see DESIGN.md section 5.4) *)
  l1i : cache_geom;
  l1d : cache_geom;
  l2 : cache_geom;
  l3 : cache_geom;
  l2_latency : int;
  l3_latency : int;
  mem_latency : int;
  (* data TLB and the OS walk model *)
  dtlb_entries : int;
  vhpt_walk_cycles : int; (* hardware walker, successful *)
  wild_walk_cycles : int; (* failed walk + uncached page-table query *)
  nat_page_cycles : int; (* architected NaT page at address 0 *)
  page_fault_cycles : int; (* OS fault handler (kernel time) *)
  (* branch prediction *)
  bp_bits : int; (* log2 of the two-bit counter table *)
  bp_history_bits : int;
  branch_mispredict_penalty : int;
  (* calls and the register stack engine *)
  call_overhead : int; (* br.call pipeline redirect + alloc *)
  return_overhead : int; (* br.ret redirect + RSE bookkeeping *)
  chk_recovery_penalty : int; (* pipeline redirect into recovery *)
  rse_physical : int; (* physical stacked registers backing r32-r127 *)
  rse_spill_cost_per_reg : int; (* cycles per mandatory spill/fill *)
}

(* --- Stable content digest ----------------------------------------------
   Cache keys must survive across processes, so the digest is computed over
   an explicit canonical serialization — never Marshal, whose bytes depend
   on the runtime.  FNV-1a (64-bit) over decimal field renderings in a
   fixed order.  [name] is deliberately excluded: keys are content-
   addressed, and two differently-named but physically identical machines
   must hash alike.  The full-record destructuring pattern makes adding or
   removing a field a compile error here (warning 9 is fatal), so the
   serialization can never silently go stale. *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

(* One plain loop: no closure, and the accumulator stays an unboxed local,
   so hashing allocates nothing per byte (request sources are kilobytes). *)
let fnv1a64 (s : string) =
  let h = ref fnv_offset in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        fnv_prime
  done;
  Printf.sprintf "%016Lx" !h

let compute_digest (d : t) =
  let {
    name = _name;
    bundles_per_cycle;
    issue_width;
    m_slots;
    i_slots;
    f_slots;
    b_slots;
    ld_pipes;
    st_pipes;
    lat_alu;
    lat_mul;
    lat_div;
    lat_fp;
    lat_fdiv;
    lat_load;
    float_load_latency;
    l1i;
    l1d;
    l2;
    l3;
    l2_latency;
    l3_latency;
    mem_latency;
    dtlb_entries;
    vhpt_walk_cycles;
    wild_walk_cycles;
    nat_page_cycles;
    page_fault_cycles;
    bp_bits;
    bp_history_bits;
    branch_mispredict_penalty;
    call_overhead;
    return_overhead;
    chk_recovery_penalty;
    rse_physical;
    rse_spill_cost_per_reg;
  } =
    d
  in
  let buf = Buffer.create 256 in
  let int i =
    Buffer.add_string buf (string_of_int i);
    Buffer.add_char buf ';'
  in
  let geom { size; line; assoc } =
    int size;
    int line;
    int assoc
  in
  int bundles_per_cycle;
  int issue_width;
  int m_slots;
  int i_slots;
  int f_slots;
  int b_slots;
  int ld_pipes;
  int st_pipes;
  int lat_alu;
  int lat_mul;
  int lat_div;
  int lat_fp;
  int lat_fdiv;
  int lat_load;
  int float_load_latency;
  geom l1i;
  geom l1d;
  geom l2;
  geom l3;
  int l2_latency;
  int l3_latency;
  int mem_latency;
  int dtlb_entries;
  int vhpt_walk_cycles;
  int wild_walk_cycles;
  int nat_page_cycles;
  int page_fault_cycles;
  int bp_bits;
  int bp_history_bits;
  int branch_mispredict_penalty;
  int call_overhead;
  int return_overhead;
  int chk_recovery_penalty;
  int rse_physical;
  int rse_spill_cost_per_reg;
  fnv1a64 (Buffer.contents buf)

(* The record is immutable, so a value's digest never changes: memoize it
   per physical value.  Every request of a served session keys on the same
   few descriptions (usually [itanium2]), so a short most-recent-first list
   swapped atomically is a domain-safe memo; a lost race only recomputes. *)
let memo_capacity = 16
let memo : (t * string) list Atomic.t = Atomic.make []

let digest (d : t) =
  let rec find = function
    | [] -> None
    | (d', h) :: rest -> if d' == d then Some h else find rest
  in
  let seen = Atomic.get memo in
  match find seen with
  | Some h -> h
  | None ->
      let h = compute_digest d in
      let kept = List.filteri (fun i _ -> i < memo_capacity - 1) seen in
      ignore (Atomic.compare_and_set memo seen ((d, h) :: kept));
      h

let itanium2 =
  {
    name = "itanium2";
    bundles_per_cycle = 2;
    issue_width = 6;
    m_slots = 4;
    i_slots = 2;
    f_slots = 2;
    b_slots = 3;
    ld_pipes = 2;
    st_pipes = 2;
    lat_alu = 1;
    lat_mul = 3;
    lat_div = 16;
    lat_fp = 4;
    lat_fdiv = 24;
    lat_load = 1;
    float_load_latency = 6;
    l1i = { size = 2048; line = 64; assoc = 4 };
    l1d = { size = 2048; line = 64; assoc = 4 };
    l2 = { size = 16 * 1024; line = 128; assoc = 8 };
    l3 = { size = 128 * 1024; line = 128; assoc = 12 };
    l2_latency = 5;
    l3_latency = 12;
    mem_latency = 140;
    dtlb_entries = 32;
    vhpt_walk_cycles = 25;
    wild_walk_cycles = 80;
    nat_page_cycles = 2;
    page_fault_cycles = 400;
    bp_bits = 12;
    bp_history_bits = 8;
    branch_mispredict_penalty = 6;
    call_overhead = 2;
    return_overhead = 2;
    chk_recovery_penalty = 8;
    rse_physical = Epic_ir.Reg.num_stacked_physical;
    rse_spill_cost_per_reg = 1;
  }
