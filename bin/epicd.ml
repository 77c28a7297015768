(* epicd: a persistent compile/simulate service over a Unix-domain socket.

   One process owns one Epic_serve.Session — a domain pool plus its
   bounded content-addressed artifact store — and speaks the
   newline-delimited JSON protocol of Epic_serve.Protocol: clients write
   one request object per line and read one response line per request,
   in order.

   Batching: each select() wake-up drains every complete line already
   buffered across all clients into one batch.  Light requests (ping,
   stats, compile, run) are fanned over the session's domain pool —
   concurrent identical keys compile exactly once, the rest wait on the
   in-flight table and read the cache.  Heavy matrix requests (suite,
   sweep, causal) parallelize internally, so they run serially after the
   light ones.  Responses are written back per client in request order.

   A client's pending (not yet newline-terminated) bytes are capped at
   [max_line] bytes: a client that exceeds it gets one error response and
   is disconnected, so a line that never ends cannot grow the daemon
   without bound.

   Client sockets are non-blocking.  Responses are queued per client and
   written as its socket accepts them, so a client that pipelines
   requests and never reads its responses stalls nobody else; while its
   unsent output exceeds [max_unsent] bytes, its requests are not read. *)

module Protocol = Epic_serve.Protocol
module Session = Epic_serve.Session

let usage =
  "usage: epicd [--socket PATH] [-j N] [--compile-cache N] [--run-cache N] [-q]"

(* The longest request line accepted, in bytes.  A run request is mostly
   its source text; the largest suite workload is a few tens of KB. *)
let max_line = 8 * 1024 * 1024

(* The unsent output past which a client's requests wait unread. *)
let max_unsent = 1024 * 1024

(* Per-client state: the bytes of an incomplete line, whether the client
   overflowed [max_line] this round, and the response pieces not yet
   written ([out_off] bytes of the first one are), [unsent] bytes in all.
   A [closing] client is disconnected once its output is written. *)
type client = {
  pending : Buffer.t;
  mutable overflowed : bool;
  out : string Queue.t;
  mutable out_off : int;
  mutable unsent : int;
  mutable closing : bool;
}

let () =
  let socket_path = ref "epicd.sock" in
  let jobs = ref 1 in
  let compile_cap = ref 64 in
  let run_cap = ref 256 in
  let quiet = ref false in
  let reject msg = Printf.eprintf "epicd: %s\n%s\n" msg usage; exit 2 in
  (* pool widths and cache capacities are counts: a whole number >= 1 *)
  let count flag n =
    match int_of_string_opt n with
    | Some v when v >= 1 -> v
    | _ -> reject (Printf.sprintf "%s needs a whole number >= 1, got %S" flag n)
  in
  let rec parse_args = function
    | [] -> ()
    | "--socket" :: p :: rest -> socket_path := p; parse_args rest
    | ("-j" | "--jobs" as f) :: n :: rest -> jobs := count f n; parse_args rest
    | ("--compile-cache" as f) :: n :: rest -> compile_cap := count f n; parse_args rest
    | ("--run-cache" as f) :: n :: rest -> run_cap := count f n; parse_args rest
    | ("-q" | "--quiet") :: rest -> quiet := true; parse_args rest
    | ("-h" | "--help") :: _ -> print_endline usage; exit 0
    | a :: _ -> reject ("unknown argument " ^ a)
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let session =
    Session.create ~jobs:!jobs ~compile_capacity:!compile_cap
      ~run_capacity:!run_cap ()
  in
  (* a client that disconnects mid-write must not kill the daemon *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if Sys.file_exists !socket_path then Sys.remove !socket_path;
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind srv (Unix.ADDR_UNIX !socket_path);
  Unix.listen srv 16;
  if not !quiet then
    Printf.eprintf "epicd: listening on %s (jobs=%d, compile-cache=%d, run-cache=%d)\n%!"
      !socket_path !jobs !compile_cap !run_cap;
  let clients : (Unix.file_descr, client) Hashtbl.t = Hashtbl.create 8 in
  let close_client fd =
    Hashtbl.remove clients fd;
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  (* write what the client's socket accepts now *)
  let rec flush fd c =
    match Queue.peek_opt c.out with
    | None -> if c.closing then close_client fd
    | Some s -> (
        let len = String.length s - c.out_off in
        match Unix.single_write_substring fd s c.out_off len with
        | w ->
            c.unsent <- c.unsent - w;
            if w < len then c.out_off <- c.out_off + w
            else begin
              ignore (Queue.pop c.out);
              c.out_off <- 0
            end;
            flush fd c
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
        | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
            close_client fd)
  in
  let flush_all () =
    Hashtbl.fold (fun fd c acc -> if c.unsent > 0 || c.closing then (fd, c) :: acc else acc)
      clients []
    |> List.iter (fun (fd, c) -> flush fd c)
  in
  (* queue one response line (no concatenated copy) *)
  let respond fd line =
    match Hashtbl.find_opt clients fd with
    | None -> ()
    | Some c ->
        Queue.push line c.out;
        Queue.push "\n" c.out;
        c.unsent <- c.unsent + String.length line + 1
  in
  let chunk = Bytes.create 65536 in
  let shutting_down = ref false in
  while not !shutting_down do
    let fds =
      srv
      :: Hashtbl.fold
           (fun fd c acc -> if c.closing || c.unsent > max_unsent then acc else fd :: acc)
           clients []
    in
    let waiting = Hashtbl.fold (fun fd c acc -> if c.unsent > 0 then fd :: acc else acc) clients [] in
    let readable, writable, _ = Unix.select fds waiting [] (-1.0) in
    List.iter
      (fun fd -> Option.iter (flush fd) (Hashtbl.find_opt clients fd))
      writable;
    (* accept new connections first so their first burst lands this loop *)
    if List.mem srv readable then begin
      let fd, _ = Unix.accept srv in
      Unix.set_nonblock fd;
      Hashtbl.replace clients fd
        {
          pending = Buffer.create 4096;
          overflowed = false;
          out = Queue.create ();
          out_off = 0;
          unsent = 0;
          closing = false;
        }
    end;
    (* drain readable clients: only the new chunk is scanned for line ends,
       and a line is copied out once *)
    let batch = ref [] in
    List.iter
      (fun fd ->
        if fd <> srv then
          match Hashtbl.find_opt clients fd with
          | None -> ()
          | Some c -> (
              match Unix.read fd chunk 0 (Bytes.length chunk) with
              | 0 -> close_client fd
              | n ->
                  let rec newline i =
                    if i >= n then None
                    else if Bytes.unsafe_get chunk i = '\n' then Some i
                    else newline (i + 1)
                  in
                  let rec lines start =
                    if not c.overflowed then
                      match newline start with
                      | Some nl ->
                          if Buffer.length c.pending + (nl - start) > max_line
                          then c.overflowed <- true
                          else begin
                            let line =
                              if Buffer.length c.pending = 0 then
                                Bytes.sub_string chunk start (nl - start)
                              else begin
                                Buffer.add_subbytes c.pending chunk start
                                  (nl - start);
                                let l = Buffer.contents c.pending in
                                Buffer.reset c.pending;
                                l
                              end
                            in
                            if String.trim line <> "" then
                              batch := (fd, line) :: !batch;
                            lines (nl + 1)
                          end
                      | None ->
                          if Buffer.length c.pending + (n - start) > max_line
                          then c.overflowed <- true
                          else Buffer.add_subbytes c.pending chunk start (n - start)
                  in
                  lines 0
              | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
              | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
                  close_client fd))
      readable;
    (* one batch: everything that was already complete on the wire *)
    let entries =
      Array.of_list
        (List.map (fun (fd, line) -> (fd, Protocol.parse line)) (List.rev !batch))
    in
    let responses = Array.make (Array.length entries) "" in
    let light, heavy =
      let l = ref [] and h = ref [] in
      Array.iteri
        (fun i (_, r) ->
          if Protocol.is_heavy r then h := i :: !h else l := i :: !l)
        entries;
      (Array.of_list (List.rev !l), List.rev !h)
    in
    (* light requests fan out over the pool; the session's in-flight
       table makes identical concurrent keys build exactly once *)
    let light_resps =
      Session.map session
        (fun i ->
          let _, r = entries.(i) in
          Protocol.execute session r)
        light
    in
    Array.iteri (fun k i -> responses.(i) <- light_resps.(k)) light;
    List.iter
      (fun i ->
        let _, r = entries.(i) in
        responses.(i) <- Protocol.execute session r)
      heavy;
    Array.iteri
      (fun i (fd, r) ->
        respond fd responses.(i);
        if Protocol.is_shutdown r then shutting_down := true)
      entries;
    (* an over-long line: its client's earlier lines were answered above;
       now one error response, then disconnect *)
    Hashtbl.iter
      (fun fd c ->
        if c.overflowed && not c.closing then begin
          respond fd
            (Protocol.error_response
               (Printf.sprintf "request line exceeds %d bytes" max_line));
          c.closing <- true
        end)
      clients;
    flush_all ()
  done;
  (* queued responses, the shutdown reply among them, get a bounded last
     chance to reach clients that read them *)
  let deadline = Unix.gettimeofday () +. 2.0 in
  let rec drain () =
    let waiting = Hashtbl.fold (fun fd c acc -> if c.unsent > 0 then fd :: acc else acc) clients [] in
    let left = deadline -. Unix.gettimeofday () in
    if waiting <> [] && left > 0. then begin
      let _, writable, _ = Unix.select [] waiting [] left in
      List.iter (fun fd -> Option.iter (flush fd) (Hashtbl.find_opt clients fd)) writable;
      drain ()
    end
  in
  drain ();
  if not !quiet then Printf.eprintf "epicd: shutting down\n%!";
  Hashtbl.iter (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ()) clients;
  (try Unix.close srv with Unix.Unix_error _ -> ());
  if Sys.file_exists !socket_path then Sys.remove !socket_path
