(** Bounded event tracing — the Pfmon-style event stream behind the
    paper's counter figures.  The simulator records timestamped
    architectural events (cache misses, DTLB walks, mispredict flushes,
    RSE traffic, speculation outcomes) into a fixed-capacity ring buffer;
    when the ring wraps, the oldest events are dropped but every event is
    still tallied in the per-kind counter registry, so counts are exact
    even when the retained window is not.

    Tracing is opt-in: the simulator takes an optional sink and emits
    nothing (and pays nothing) when none is supplied. *)

type kind =
  | L1i_miss  (** instruction fetch missed L1I; [addr] = fetch address *)
  | L1d_miss  (** integer load/store missed L1D; [addr] = data address *)
  | L2_miss  (** access missed unified L2; [addr] = address *)
  | Dtlb_walk  (** DTLB miss serviced by a VHPT walk; [addr] = data address *)
  | Wild_load
      (** speculative load to an unmapped page: failed walk charged to the
          kernel (Section 4.3); [addr] = wild address *)
  | Br_mispredict  (** branch misprediction flush; [addr] = static branch id *)
  | Rse_spill  (** register stack engine spilled frames on call *)
  | Rse_fill  (** register stack engine refilled frames on return *)
  | Spec_load  (** a control- or data-speculative load issued; [addr] = address *)
  | Chk_recovery
      (** a chk.s/chk.a detected deferral or ALAT miss and ran recovery;
          [addr] = reload address *)
  | Nat_deferral
      (** a speculative access deferred (NaT page or sentinel early
          deferral); [addr] = faulting address *)

val all_kinds : kind list
val kind_name : kind -> string

type event = { cycle : int; kind : kind; func : string; addr : int64 }

type t

(** [create ()] makes an enabled trace sink; [capacity] (default 65536)
    bounds the retained event window. *)
val create : ?capacity:int -> unit -> t

val record : t -> cycle:int -> kind:kind -> func:string -> addr:int64 -> unit

(** Retained events, oldest first (at most [capacity]). *)
val events : t -> event list

(** Total events ever recorded (including dropped ones). *)
val total : t -> int

(** Events dropped because the ring wrapped. *)
val dropped : t -> int

(** Exact per-kind event count (the central counter registry). *)
val count : t -> kind -> int

(** Number of distinct kinds with a nonzero count. *)
val distinct_kinds : t -> int

(** Serialize: counter registry, drop statistics and the retained event
    window.  Addresses are emitted as ["0x..."] strings. *)
val to_json : t -> Json.t
