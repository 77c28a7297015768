(* Benchmark-side tracing: a span around every call the benchmark makes into
   a layer's public function.  Spans are kept in memory and written out when
   the run ends.  With tracing off [timed] still returns the call's duration
   (the benchmark needs it for its own metrics) but records nothing. *)

type t = {
  id : int;
  name : string;
  op : int;  (** the benchmark operation the span belongs to *)
  parent : int;  (** enclosing span id, -1 for an operation's root *)
  start : float;  (** seconds, wall clock *)
  stop : float;
}

let enabled = ref false
let recorded : t list ref = ref []
let next_id = ref 0
let open_spans : int list ref = ref []

(* [timed ~op name f] runs [f] and returns its result and wall time in ms.
   An exception from [f] propagates after the span is closed. *)
let timed ~op name f =
  if not !enabled then begin
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, (Unix.gettimeofday () -. t0) *. 1000.)
  end
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    open_spans := id :: !open_spans;
    let t0 = Unix.gettimeofday () in
    let close () =
      let t1 = Unix.gettimeofday () in
      open_spans := List.tl !open_spans;
      recorded := { id; name; op; parent; start = t0; stop = t1 } :: !recorded;
      (t1 -. t0) *. 1000.
    in
    match f () with
    | r -> (r, close ())
    | exception e ->
        ignore (close ());
        raise e
  end

let spans () = List.rev !recorded
let duration_ms s = (s.stop -. s.start) *. 1000.

(* Self time per span id: its duration minus the part its children cover. *)
let self_times all =
  let self = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace self s.id (duration_ms s)) all;
  List.iter
    (fun s ->
      match Hashtbl.find_opt self s.parent with
      | Some v -> Hashtbl.replace self s.parent (v -. duration_ms s)
      | None -> ())
    all;
  self

(* Well-formedness: every child lies inside its parent and shares its
   operation id, and no self time is negative.  Returns the violations. *)
let check all =
  let by_id = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) all;
  let self = self_times all in
  let err s what = Printf.sprintf "span %d (%s): %s" s.id s.name what in
  List.concat_map
    (fun s ->
      let parent_errs =
        if s.parent < 0 then []
        else
          match Hashtbl.find_opt by_id s.parent with
          | None -> [ err s "missing parent" ]
          | Some p ->
              (if s.start < p.start || s.stop > p.stop then
                 [ err s "outside its parent" ]
               else [])
              @ if s.op <> p.op then [ err s "op id differs from parent" ] else []
      in
      if Hashtbl.find self s.id < 0. then err s "negative self time" :: parent_errs
      else parent_errs)
    all

let to_json s =
  Epic_obs.Json.Obj
    [
      ("id", Epic_obs.Json.Int s.id);
      ("name", Epic_obs.Json.Str s.name);
      ("op", Epic_obs.Json.Int s.op);
      ("parent", Epic_obs.Json.Int s.parent);
      ("start_s", Epic_obs.Json.Float s.start);
      ("end_s", Epic_obs.Json.Float s.stop);
    ]
