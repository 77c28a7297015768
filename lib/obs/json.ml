(* Hand-rolled JSON: a small tree type, an RFC 8259 emitter and a
   recursive-descent parser.  No dependencies beyond the stdlib. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* --- emission ------------------------------------------------------------ *)

let escape_to buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

(* The C formatter behind [Printf]'s %g: the same bytes without the
   format-interpretation overhead (float emission dominates a served run
   response). *)
external format_float : string -> float -> string = "caml_format_float"

(* Shortest decimal representation that round-trips; non-finite floats have
   no JSON spelling and become null. *)
let float_repr f =
  if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then None
  else
    let s = format_float "%.15g" f in
    let s = if float_of_string s = f then s else format_float "%.17g" f in
    (* "1e17" and "1" are both valid JSON numbers; nothing to patch up *)
    Some s

let indent buf ~pretty d =
  if pretty then begin
    Buffer.add_char buf '\n';
    Buffer.add_string buf (String.make (2 * d) ' ')
  end

let rec emit buf ~pretty ~depth j =
  match j with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> (
      match float_repr f with
      | Some s -> Buffer.add_string buf s
      | None -> Buffer.add_string buf "null")
  | Str s ->
      Buffer.add_char buf '"';
      escape_to buf s;
      Buffer.add_char buf '"'
  | List [] -> Buffer.add_string buf "[]"
  | List (x :: xs) ->
      Buffer.add_char buf '[';
      emit_item buf ~pretty ~depth x;
      emit_items buf ~pretty ~depth xs;
      indent buf ~pretty depth;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj (kv :: kvs) ->
      Buffer.add_char buf '{';
      emit_member buf ~pretty ~depth kv;
      emit_members buf ~pretty ~depth kvs;
      indent buf ~pretty depth;
      Buffer.add_char buf '}'

(* Elements and members of a container at [depth]; the rest of a list is
   comma-separated. *)
and emit_item buf ~pretty ~depth x =
  indent buf ~pretty (depth + 1);
  emit buf ~pretty ~depth:(depth + 1) x

and emit_items buf ~pretty ~depth = function
  | [] -> ()
  | x :: xs ->
      Buffer.add_char buf ',';
      emit_item buf ~pretty ~depth x;
      emit_items buf ~pretty ~depth xs

and emit_member buf ~pretty ~depth (key, v) =
  indent buf ~pretty (depth + 1);
  Buffer.add_char buf '"';
  escape_to buf key;
  Buffer.add_string buf (if pretty then "\": " else "\":");
  emit buf ~pretty ~depth:(depth + 1) v

and emit_members buf ~pretty ~depth = function
  | [] -> ()
  | kv :: kvs ->
      Buffer.add_char buf ',';
      emit_member buf ~pretty ~depth kv;
      emit_members buf ~pretty ~depth kvs

let to_string ?(pretty = false) j =
  let buf = Buffer.create 1024 in
  emit buf ~pretty ~depth:0 j;
  Buffer.contents buf

let to_string_with_encoded fields key encoded =
  let buf = Buffer.create (String.length encoded + 256) in
  Buffer.add_char buf '{';
  List.iter
    (fun kv ->
      emit_member buf ~pretty:false ~depth:0 kv;
      Buffer.add_char buf ',')
    fields;
  Buffer.add_char buf '"';
  escape_to buf key;
  Buffer.add_string buf "\":";
  Buffer.add_string buf encoded;
  Buffer.add_char buf '}';
  Buffer.contents buf

let to_file file j =
  Out_channel.with_open_text file (fun oc ->
      output_string oc (to_string ~pretty:true j);
      output_char oc '\n')

(* --- parsing ------------------------------------------------------------- *)

exception Fail of string * int

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> -1

(* The parser reads bytes in place: [peek] returns '\000' at the end of
   input rather than an option per byte.  No token starts with NUL, so only
   the end-of-input and string checks need [!pos < n]. *)
let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (msg, !pos)) in
  let peek () = if !pos < n then String.unsafe_get s !pos else '\000' in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match String.unsafe_get s !pos with
         | ' ' | '\t' | '\n' | '\r' -> true
         | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    if peek () = c then advance () else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail ("expected " ^ word)
  in
  (* exactly four hex digits *)
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = ref 0 in
    for i = 0 to 3 do
      let d = hex_digit s.[!pos + i] in
      if d < 0 then fail "bad \\u escape";
      v := (!v lsl 4) lor d
    done;
    pos := !pos + 4;
    !v
  in
  (* encode a Unicode code point as UTF-8 *)
  let add_utf8 buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xc0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xe0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xf0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
    end
  in
  (* advance over a run of bytes that need no unescaping *)
  let skip_plain () =
    while
      !pos < n
      && match String.unsafe_get s !pos with '"' | '\\' -> false | _ -> true
    do
      advance ()
    done
  in
  (* one escape sequence, the backslash already consumed *)
  let escape buf =
    let simple c =
      Buffer.add_char buf c;
      advance ()
    in
    match peek () with
    | '"' -> simple '"'
    | '\\' -> simple '\\'
    | '/' -> simple '/'
    | 'n' -> simple '\n'
    | 't' -> simple '\t'
    | 'r' -> simple '\r'
    | 'b' -> simple '\b'
    | 'f' -> simple '\012'
    | 'u' ->
        advance ();
        let cp = hex4 () in
        let cp =
          (* combine a surrogate pair when one follows *)
          if cp >= 0xd800 && cp <= 0xdbff
             && !pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
          then begin
            pos := !pos + 2;
            let lo = hex4 () in
            if lo >= 0xdc00 && lo <= 0xdfff then
              0x10000 + ((cp - 0xd800) lsl 10) + (lo - 0xdc00)
            else fail "invalid low surrogate"
          end
          else cp
        in
        add_utf8 buf cp
    | _ -> fail "bad escape"
  in
  (* A string without escapes is one [String.sub]; otherwise each run of
     plain bytes is copied with one [Buffer.add_substring]. *)
  let parse_string () =
    expect '"';
    let start = !pos in
    skip_plain ();
    if !pos >= n then fail "unterminated string";
    if peek () = '"' then begin
      advance ();
      String.sub s start (!pos - 1 - start)
    end
    else begin
      let buf = Buffer.create (!pos - start + 64) in
      Buffer.add_substring buf s start (!pos - start);
      let rec go () =
        if !pos >= n then fail "unterminated string";
        if peek () = '"' then advance ()
        else begin
          advance ();
          escape buf;
          let run = !pos in
          skip_plain ();
          Buffer.add_substring buf s run (!pos - run);
          go ()
        end
      in
      go ();
      Buffer.contents buf
    end
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char (String.unsafe_get s !pos) do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') text then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail "bad number"
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
          (* integer overflow: fall back to float *)
          match float_of_string_opt text with
          | Some f -> Float f
          | None -> fail "bad number")
  in
  let rec parse_value () =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match peek () with
    | 'n' -> literal "null" Null
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | '"' -> Str (parse_string ())
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin
          advance ();
          List []
        end
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' ->
                advance ();
                items (v :: acc)
            | ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          List (items [])
        end
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec pairs acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' ->
                advance ();
                pairs ((k, v) :: acc)
            | '}' ->
                advance ();
                List.rev ((k, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (pairs [])
        end
    | '-' | '0' .. '9' -> parse_number ()
    | c -> fail (Printf.sprintf "unexpected '%c'" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Fail (msg, p) -> Error (Printf.sprintf "at offset %d: %s" p msg)

(* --- accessors ----------------------------------------------------------- *)

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_int_opt = function Int i -> Some i | _ -> None
let to_string_opt = function Str s -> Some s | _ -> None
let to_list_opt = function List xs -> Some xs | _ -> None
