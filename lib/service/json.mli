(** A minimal JSON tree, printer and parser — just enough for the repo's
    machine-readable records (kexd's [--json] outputs, kexbench's records)
    and kexbench's [BENCHMARK.json] reader.  Self-contained so the repo
    needs no JSON dependency; integers round-trip exactly (they carry the
    measurements). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:int -> t -> string
(** [indent = 0] (default) prints compact single-line JSON; [indent > 0]
    pretty-prints with that many spaces per level. *)

val parse : string -> (t, string) result
(** Strict single-document parse.  Numbers without [.]/[e] parse as [Int].
    [\u] escapes decode to UTF-8. *)

(** Tolerant accessors — every lookup returns an option (or [[]]), so readers
    stay compatible with older schema versions that lack a field. *)

val member : string -> t -> t option
val to_int : t -> int option
val to_number : t -> float option
val to_str : t -> string option
val to_list : t -> t list option
val member_int : string -> t -> int option
val member_number : string -> t -> float option
val member_str : string -> t -> string option
val member_list : string -> t -> t list
