(* Host-speed calibration.  [run] is a fixed amount of work written here and
   calling no repo code: decimal formatting and string hashing, plus a
   smaller persistent-map build and probe (minor-heap allocation and
   pointer chasing).  An operation timed next to it is reported as
   [raw_ms *. factor k], i.e. in milliseconds at the speed of the host
   [k_ref_ms] was measured on; the host's own drift, which moves the kernel
   and the operation alike, cancels.

   The mix was chosen by measurement on the 2-vCPU host, timing a fixed
   compile, a fixed detailed simulation and a batch of 150 run-cache hits
   next to candidate kernels for 4 minutes: the spread of 15-op block
   medians was 14-19% raw.  The string pass alone brought hits and the
   simulation to 3% but left the compile at 6%; the map pass tracked the
   compile best; a 32 KB integer array pass and an 8 MB pointer chase did
   worse than either.  String pass + map pass at a quarter of its time gave
   3-5% on all three. *)

(* Median kernel time on the reference host (2-vCPU x86-64 VM, OCaml
   5.1.1). *)
let k_ref_ms = 5.5

module M = Map.Make (Int)

let map_pass () =
  let m = ref M.empty and x = ref 7 in
  for i = 1 to 1_500 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    m := M.add (!x land 0xffff) i !m
  done;
  let s = ref 0 in
  for _ = 1 to 1_500 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    match M.find_opt (!x land 0xffff) !m with
    | Some v -> s := !s + v
    | None -> ()
  done;
  !s

(* Decimal formatting into a reused buffer and string hashing. *)
let string_pass () =
  let b = Buffer.create 256 and h = ref 0 in
  for i = 1 to 400 do
    Buffer.clear b;
    for j = 1 to 60 do
      Buffer.add_string b (string_of_int (i * j));
      Buffer.add_char b ','
    done;
    h := !h lxor Hashtbl.hash (Buffer.contents b)
  done;
  !h

(* One kernel invocation; returns its wall time in ms. *)
let run () =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (map_pass ()));
  ignore (Sys.opaque_identity (string_pass ()));
  (Unix.gettimeofday () -. t0) *. 1000.

(* The scale from raw to calibrated ms for an operation whose bracketing
   kernels took [k] ms on average. *)
let factor k = k_ref_ms /. k
