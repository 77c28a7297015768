(* Per-pass instrumentation registry: wall time, rounds and IR-size deltas
   for every phase the driver runs. *)

type record = {
  name : string;
  wall_s : float;
  rounds : int;
  instrs_before : int;
  instrs_after : int;
  blocks_before : int;
  blocks_after : int;
  bytes_before : int;
  bytes_after : int;
  cache : (string * int * int) list;
}

type t = { mutable rev : record list }

let create () = { rev = [] }

let add t ~name ~wall_s ~rounds ~instrs:(instrs_before, instrs_after)
    ~blocks:(blocks_before, blocks_after) ~bytes:(bytes_before, bytes_after)
    ?(cache = []) () =
  t.rev <-
    {
      name;
      wall_s;
      rounds;
      instrs_before;
      instrs_after;
      blocks_before;
      blocks_after;
      bytes_before;
      bytes_after;
      cache;
    }
    :: t.rev

let records t = List.rev t.rev

let record_to_json r =
  Json.Obj
    ([
      ("name", Json.Str r.name);
      ("wall_s", Json.Float r.wall_s);
      ("rounds", Json.Int r.rounds);
      ("instrs_before", Json.Int r.instrs_before);
      ("instrs_after", Json.Int r.instrs_after);
      ("blocks_before", Json.Int r.blocks_before);
      ("blocks_after", Json.Int r.blocks_after);
      ("bytes_before", Json.Int r.bytes_before);
      ("bytes_after", Json.Int r.bytes_after);
    ]
    @
    match r.cache with
    | [] -> []
    | rows ->
        [
          ( "cache",
            Json.Obj
              (List.map
                 (fun (analysis, hits, misses) ->
                   ( analysis,
                     Json.Obj
                       [ ("hits", Json.Int hits); ("misses", Json.Int misses) ]
                   ))
                 rows) );
        ])
