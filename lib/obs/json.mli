(** A hand-rolled JSON tree, emitter and parser — the wire format of the
    observability layer.  Deliberately dependency-free (stdlib only) so
    every layer of the system, down to the simulator, can link against it.

    The emitter produces standards-conforming JSON (RFC 8259): strings are
    escaped, non-finite floats are emitted as [null].  The parser accepts
    everything the emitter produces (and ordinary hand-written JSON),
    which is what the round-trip tests and the CI smoke check rely on. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** Serialize; [pretty] (default false) adds newlines and two-space
    indentation. *)
val to_string : ?pretty:bool -> t -> string

(** [to_string_with_encoded fields key encoded] is
    [to_string (Obj (fields @ [ (key, v) ]))] for the [v] whose compact
    serialization is [encoded]: stored bytes are spliced in, not
    re-emitted. *)
val to_string_with_encoded : (string * t) list -> string -> string -> string

(** Write to [file] (pretty-printed, trailing newline). *)
val to_file : string -> t -> unit

(** Parse a complete JSON document; [Error msg] carries a position. *)
val of_string : string -> (t, string) result

(** {2 Accessors} (total: [None] on shape mismatch) *)

val member : string -> t -> t option

(** Accepts [Int] and [Float]. *)
val to_float_opt : t -> float option

val to_int_opt : t -> int option
val to_string_opt : t -> string option
val to_list_opt : t -> t list option
