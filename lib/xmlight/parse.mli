(** XML parser.

    Recursive-descent parser for the XML subset used by ScenarioML and
    xADL documents: elements, attributes, character data, CDATA sections,
    comments, processing instructions, numeric and predefined entity
    references, and an (ignored) DOCTYPE declaration. Namespaces are kept
    as prefixed names; no DTD validation is performed. *)

type position = { line : int; column : int }
(** 1-based; lines end at ['\n'], columns count bytes. The parser
    tracks only a byte offset and computes the position when it reports
    an error, so well-formed input pays nothing for it. *)

type error = { position : position; message : string }

exception Parse_error of error

val error_to_string : error -> string

val parse : string -> (Doc.t, error) result
(** Parse a complete document from a string. *)

val parse_exn : string -> Doc.t
(** @raise Parse_error on malformed input. *)

val parse_file : string -> (Doc.t, error) result
(** Read and parse a file. I/O errors are reported as parse errors at
    position 0:0. *)
