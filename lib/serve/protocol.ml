(* The epicd wire protocol (see the .mli for the schema).  Parsing is
   total: bad input becomes a [Bad] op that executes to an error
   response, so one malformed line can never take the daemon down. *)

module Json = Epic_obs.Json
module Config = Epic_core.Config
module Export = Epic_core.Export

type op =
  | Ping
  | Stats
  | Shutdown
  | Compile of { source : string; config : Config.t; train : int64 array }
  | Run of {
      source : string;
      workload : string;
      config : Config.t;
      train : int64 array option;  (* None: default to the run input *)
      input : int64 array;
      sample_period : int;
      sampling : Epic_sim.Sampling.plan option;
      normalize : bool;
    }
  | Suite of { workloads : string list option; normalize : bool }
  | Sweep of {
      workloads : string list;
      variants : string list option;
      ablations : string list option;
      big_inputs : bool;
      normalize : bool;
    }
  | Causal of {
      workloads : string list;
      targets : string list option;
      factors : float list option;
      top_funcs : int option;
      split_funcs : int option;
      big_inputs : bool;
      normalize : bool;
    }
  | Bad of string

type request = { req_id : Json.t; req_op : string; op : op }

(* ---- field accessors --------------------------------------------------- *)

exception Field of string

let field name j = Json.member name j

let str_opt name j =
  match field name j with
  | None | Some Json.Null -> None
  | Some v -> (
      match Json.to_string_opt v with
      | Some s -> Some s
      | None -> raise (Field (name ^ " must be a string")))

let str ~default name j = Option.value ~default (str_opt name j)

let bool ~default name j =
  match field name j with
  | None | Some Json.Null -> default
  | Some (Json.Bool b) -> b
  | Some _ -> raise (Field (name ^ " must be a bool"))

let int_opt name j =
  match field name j with
  | None | Some Json.Null -> None
  | Some v -> (
      match Json.to_int_opt v with
      | Some i -> Some i
      | None -> raise (Field (name ^ " must be an int")))

let int64s_opt name j =
  match field name j with
  | None | Some Json.Null -> None
  | Some (Json.List l) ->
      Some
        (Array.of_list
           (List.map
              (fun v ->
                match Json.to_int_opt v with
                | Some i -> Int64.of_int i
                | None -> raise (Field (name ^ " must be a list of ints")))
              l))
  | Some _ -> raise (Field (name ^ " must be a list of ints"))

let strs_opt name j =
  match field name j with
  | None | Some Json.Null -> None
  | Some (Json.List l) ->
      Some
        (List.map
           (fun v ->
             match Json.to_string_opt v with
             | Some s -> s
             | None -> raise (Field (name ^ " must be a list of strings")))
           l)
  | Some _ -> raise (Field (name ^ " must be a list of strings"))

let floats_opt name j =
  match field name j with
  | None | Some Json.Null -> None
  | Some (Json.List l) ->
      Some
        (List.map
           (fun v ->
             match Json.to_float_opt v with
             | Some f -> f
             | None -> raise (Field (name ^ " must be a list of numbers")))
           l)
  | Some _ -> raise (Field (name ^ " must be a list of numbers"))

let level_of_string s =
  match String.lowercase_ascii s with
  | "gcc" -> Config.Gcc_like
  | "o-ns" | "ons" -> Config.O_NS
  | "ilp-ns" | "ilpns" -> Config.ILP_NS
  | "ilp-cs" | "ilpcs" -> Config.ILP_CS
  | _ -> raise (Field ("unknown level " ^ s ^ " (gcc, o-ns, ilp-ns, ilp-cs)"))

(* Same knobs as the epicc command line. *)
let config_of j =
  let level = level_of_string (str ~default:"ilp-cs" "level" j) in
  {
    (Config.make level) with
    Config.spec_model =
      (if bool ~default:false "sentinel" j then Epic_ilp.Speculate.Sentinel
       else Epic_ilp.Speculate.General);
    Config.pointer_analysis = bool ~default:true "pointer_analysis" j;
  }

let source_of j =
  match str_opt "source" j with
  | Some s -> s
  | None -> raise (Field "source is required")

let normalize_of j = bool ~default:false "normalize_time" j

(* "sampling": an interval-sampling spec string ("I:D[:W]", "" = default
   plan) or absent/null for a full detailed run. *)
let sampling_of j =
  match str_opt "sampling" j with
  | None -> None
  | Some s -> (
      try Some (Epic_sim.Sampling.parse_spec s)
      with Invalid_argument msg -> raise (Field msg))

(* ---- parse ------------------------------------------------------------- *)

let parse line =
  match Json.of_string line with
  | Error msg -> { req_id = Json.Null; req_op = "?"; op = Bad ("bad JSON: " ^ msg) }
  | Ok j -> (
      let req_id = Option.value ~default:Json.Null (field "id" j) in
      match str_opt "op" j with
      | None -> { req_id; req_op = "?"; op = Bad "missing op" }
      | Some name -> (
          let op =
            try
              match name with
              | "ping" -> Ping
              | "stats" -> Stats
              | "shutdown" -> Shutdown
              | "compile" ->
                  Compile
                    {
                      source = source_of j;
                      config = config_of j;
                      train =
                        Option.value ~default:[||] (int64s_opt "train" j);
                    }
              | "run" ->
                  Run
                    {
                      source = source_of j;
                      workload = str ~default:"program" "workload" j;
                      config = config_of j;
                      train = int64s_opt "train" j;
                      input =
                        Option.value ~default:[||] (int64s_opt "input" j);
                      sample_period =
                        Option.value
                          ~default:Epic_core.Experiments.sample_period
                          (int_opt "sample_period" j);
                      sampling = sampling_of j;
                      normalize = normalize_of j;
                    }
              | "suite" ->
                  Suite
                    { workloads = strs_opt "workloads" j; normalize = normalize_of j }
              | "sweep" -> (
                  match strs_opt "workloads" j with
                  | None -> raise (Field "workloads is required")
                  | Some workloads ->
                      Sweep
                        {
                          workloads;
                          variants = strs_opt "variants" j;
                          ablations = strs_opt "ablations" j;
                          big_inputs = bool ~default:false "big_inputs" j;
                          normalize = normalize_of j;
                        })
              | "causal" -> (
                  match strs_opt "workloads" j with
                  | None -> raise (Field "workloads is required")
                  | Some workloads ->
                      Causal
                        {
                          workloads;
                          targets = strs_opt "targets" j;
                          factors = floats_opt "factors" j;
                          top_funcs = int_opt "top_funcs" j;
                          split_funcs = int_opt "split_funcs" j;
                          big_inputs = bool ~default:false "big_inputs" j;
                          normalize = normalize_of j;
                        })
              | other -> Bad ("unknown op " ^ other)
            with Field msg -> Bad msg
          in
          { req_id; req_op = name; op }))

let is_heavy r =
  match r.op with Suite _ | Sweep _ | Causal _ -> true | _ -> false

let is_shutdown r = match r.op with Shutdown -> true | _ -> false

(* ---- execute ----------------------------------------------------------- *)

let head r = [ ("id", r.req_id); ("ok", Json.Bool true); ("op", Json.Str r.req_op) ]
let envelope r ?(extra = []) body = Json.to_string (Json.Obj (head r @ extra @ body))

let error_envelope r msg =
  Json.to_string
    (Json.Obj
       [
         ("id", r.req_id);
         ("ok", Json.Bool false);
         ("op", Json.Str r.req_op);
         ("error", Json.Str msg);
       ])

let error_response msg =
  error_envelope { req_id = Json.Null; req_op = "?"; op = Bad msg } msg

let maybe_normalize normalize doc =
  if normalize then Export.normalize_time doc else doc

let variants_of names =
  List.map
    (fun n ->
      match Epic_sweep.Sweep.find_variant n with
      | Some v -> v
      | None -> raise (Field ("unknown variant " ^ n)))
    names

let ablations_of names =
  List.map
    (fun n ->
      match Epic_sweep.Sweep.find_ablation n with
      | Some a -> a
      | None -> raise (Field ("unknown ablation " ^ n)))
    names

let workload_list names =
  List.map
    (fun n ->
      match Epic_workloads.Suite.find n with
      | Some w -> w
      | None -> raise (Field ("unknown workload " ^ n)))
    names

let execute session r =
  try
    match r.op with
    | Bad msg -> error_envelope r msg
    | Ping -> envelope r [ ("result", Json.Str "pong") ]
    | Stats -> envelope r [ ("result", Session.stats_to_json session) ]
    | Shutdown -> envelope r [ ("result", Json.Str "bye") ]
    | Compile { source; config; train } ->
        let compiled, key, hit =
          Session.compile session ~config ~desc:None ~train source
        in
        envelope r
          ~extra:[ ("cached", Json.Bool hit); ("key", Json.Str key) ]
          [
            ( "result",
              Json.Obj
                [
                  ("config", Export.config_to_json config);
                  ( "desc_digest",
                    Json.Str
                      (Epic_mach.Machine_desc.digest
                         compiled.Epic_core.Driver.desc) );
                  ( "transform_stats",
                    Export.transform_stats_to_json
                      compiled.Epic_core.Driver.transform_stats );
                ] );
          ]
    | Run
        {
          source;
          workload;
          config;
          train;
          input;
          sample_period;
          sampling;
          normalize;
        } ->
        let train = Option.value ~default:input train in
        let served =
          Session.compile_and_run session ?sampling ~sample_period ~workload
            ~config ~desc:None ~train ~input source
        in
        let o = served.Session.s_outcome in
        (* the stored result bytes, unless normalization asks for a
           different document *)
        let result =
          if normalize then
            Json.to_string
              (Export.normalize_time (Export.run_to_json o.Session.o_metrics))
          else o.Session.o_result
        in
        Json.to_string_with_encoded
          (head r
          @ [
              ("cached", Json.Bool served.Session.s_run_hit);
              ("compile_cached", Json.Bool served.Session.s_compile_hit);
              ("key", Json.Str served.Session.s_key);
              ("exit_code", Json.Int o.Session.o_code);
              ("output", Json.Str o.Session.o_output);
            ])
          "result" result
    | Suite { workloads; normalize } ->
        let workloads = Option.map workload_list workloads in
        let s = Epic_core.Experiments.run_suite ?workloads (Session.backend session) in
        envelope r
          [ ("result", maybe_normalize normalize (Export.suite_to_json s)) ]
    | Sweep { workloads; variants; ablations; big_inputs; normalize } ->
        let variants = Option.map variants_of variants in
        let ablations = Option.map ablations_of ablations in
        let report =
          Epic_sweep.Sweep.run ?variants ?ablations ~big_inputs ~workloads
            (Session.backend session)
        in
        envelope r
          [
            ( "result",
              maybe_normalize normalize (Epic_sweep.Sweep.to_json report) );
          ]
    | Causal
        {
          workloads;
          targets;
          factors;
          top_funcs;
          split_funcs;
          big_inputs;
          normalize;
        } ->
        let targets =
          Option.map (List.map Epic_causal.Causal.parse_target) targets
        in
        let report =
          Epic_causal.Causal.run ?targets ?factors ?top_funcs ?split_funcs
            ~big_inputs ~workloads (Session.backend session)
        in
        envelope r
          [
            ( "result",
              maybe_normalize normalize (Epic_causal.Causal.to_json report) );
          ]
  with
  | Field msg -> error_envelope r msg
  | Epic_ir.Isa.Fault msg -> error_envelope r ("fault: " ^ msg)
  | Epic_ir.Isa.Out_of_fuel -> error_envelope r "out of fuel"
  | e -> error_envelope r (Printexc.to_string e)

(* A batch in wire order: a heavy request runs alone at its own position,
   so a request after it sees the session as the heavy one left it; each
   maximal run of light requests between heavy ones fans over the pool
   (the session's in-flight table makes identical concurrent keys build
   exactly once). *)
let execute_batch session (reqs : request array) =
  let n = Array.length reqs in
  let out = Array.make n "" in
  let i = ref 0 in
  while !i < n do
    let j = ref !i in
    while !j < n && not (is_heavy reqs.(!j)) do
      incr j
    done;
    if !j > !i then
      Array.blit
        (Session.map session (execute session) (Array.sub reqs !i (!j - !i)))
        0 out !i (!j - !i);
    if !j < n then out.(!j) <- execute session reqs.(!j);
    i := !j + 1
  done;
  out
