(** First-class machine descriptions: every microarchitectural constant the
    scheduler plans against and the simulator charges for, in one record.
    [itanium2] is the canonical value; sensitivity sweeps (lib/sweep) run
    perturbed copies of it.  The compiler and the simulator read the same
    description (an argument of the scheduler, the layout and
    {!Itanium}'s helpers, passed by [Epic_core.Driver.compile_ir], and
    [Epic_sim.Machine.run ?desc]), so planned latencies and the event model
    never diverge.  A perfect component (I-cache, predictor) is not a
    description: it is a factor-1.0 category experiment
    ([Epic_sim.Accounting.experiment]) over the baseline's accounting. *)

type cache_geom = { size : int; line : int; assoc : int }

type t = {
  name : string;
  bundles_per_cycle : int;
  issue_width : int;  (** total slots per cycle (bundles x 3) *)
  m_slots : int;
  i_slots : int;
  f_slots : int;
  b_slots : int;
  ld_pipes : int;
  st_pipes : int;
  lat_alu : int;
  lat_mul : int;
  lat_div : int;
  lat_fp : int;
  lat_fdiv : int;
  lat_load : int;
  float_load_latency : int;
  l1i : cache_geom;
  l1d : cache_geom;
  l2 : cache_geom;
  l3 : cache_geom;
  l2_latency : int;
  l3_latency : int;
  mem_latency : int;
  dtlb_entries : int;
  vhpt_walk_cycles : int;
  wild_walk_cycles : int;
  nat_page_cycles : int;
  page_fault_cycles : int;
  bp_bits : int;
  bp_history_bits : int;
  branch_mispredict_penalty : int;
  call_overhead : int;
  return_overhead : int;
  chk_recovery_penalty : int;
  rse_physical : int;
  rse_spill_cost_per_reg : int;
}

(** The canonical (scaled) Itanium 2 description; the single source of the
    machine constants the pre-refactor code spread across
    [Epic_mach.Itanium] and the simulator units. *)
val itanium2 : t

(** A stable, canonical content digest of a description: FNV-1a (64-bit)
    over an explicit decimal serialization of every field except [name],
    rendered as 16 lowercase hex digits.  Two physically identical
    machines digest identically regardless of their names, and the digest
    is stable across processes and OCaml versions (no [Marshal]).  The
    serialization destructures the full record, so adding or removing a
    field without updating it is a compile error — the cache-key
    discipline of lib/serve rests on this.  The description is immutable,
    so the digest is computed once per physical value (a domain-safe
    memo). *)
val digest : t -> string

(** FNV-1a (64-bit) of a string as 16 lowercase hex digits: the content
    hash behind {!digest} and every cache key of lib/serve.  Stable across
    processes and OCaml versions, unlike [Hashtbl.hash]. *)
val fnv1a64 : string -> string
