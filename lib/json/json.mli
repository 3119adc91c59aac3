(** The one JSON layer: a value type, a compact printer, a pretty
    printer and a strict parser, with zero dependencies beyond the
    stdlib.  Every JSON document [kpt] reads or writes goes through
    here.

    {!to_string} emits no newlines (control characters in strings are
    escaped), so one encoded value is always one line — the framing
    invariant of the newline-delimited serve protocol.  {!pretty} is the
    human-facing form of the [--json] reports and the bench results. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list
  | Num of string
      (** A number literal printed verbatim: a fixed-point rendering
          ({!fixed}) or an integer beyond [int] (a [Bigcount]).
          {!of_string} never produces it; it reads numbers back as
          [Int] or [Float]. *)
  | Table of (string * t) list
      (** An object whose keys are data (counter, span or benchmark
          names).  Encodes like [Obj]; {!pretty} gives every member a
          line of its own.  {!of_string} never produces it. *)

exception Parse_error of string

val to_string : t -> string
(** Compact (single-line) encoding.  In strings the double quote, the
    backslash, newline, carriage return and tab get short escapes, the
    other control characters [\u00XX]; every other byte is copied. *)

val pretty : t -> string
(** Newline-terminated, indented encoding.  One rule fixes the layout: a
    list or object whose children are all scalars prints on one line
    ([{ "k": v, … }], [[a, b]]); any other container, and every non-empty
    {!Table}, prints one member per line, indented two spaces.  In a
    multi-line list, one-line elements are indented one step and
    multi-line elements start at the list's own indent. *)

val fixed : int -> float -> t
(** [fixed d x] is [x] printed with [d] digits after the point
    (the [%.*f] format), as a {!Num}. *)

val of_string : string -> t
(** Strict parse of exactly one value (trailing whitespace allowed).
    A [\uXXXX] escape takes exactly four hex digits; a UTF-16 surrogate
    pair decodes to one 4-byte UTF-8 character, and a lone surrogate is
    an error.
    @raise Parse_error on malformed input. *)

val member : string -> t -> t option
(** [member k (Obj …)] is the value under key [k]; [None] when the key
    is absent or the value is not an object. *)

val to_int : t -> int option
val to_bool : t -> bool option
val to_str : t -> string option
val to_list : t -> t list option
