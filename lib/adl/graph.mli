(** Communication graph over an architecture's bricks (components and
    connectors).

    Each link induces directed communication edges between its two
    anchor elements according to the interface directions: an element
    can initiate communication through a [Required] (or [In_out])
    interface toward a [Provided] (or [In_out]) interface.

    Two path policies reflect two readings of "the two components may
    need to be able to communicate" (paper §3.5):
    - [Direct]: every intermediate element on the path must be a
      connector (components talk only through connectors);
    - [Routed]: requests may be relayed through intervening components,
      as in the paper's Fig. 4 walkthrough ("sends a request from the
      Master Controller through intervening connectors and components"). *)

type policy = Direct | Routed

type t
(** Immutable communication graph built from a structure. Internally
    the graph is compact: brick ids are interned to dense ints
    ({!Symtab}) and adjacency lives in CSR arrays; the string API below
    is a thin boundary layer over it (see {!Core} for the int view). *)

val of_structure : Structure.t -> t

val nodes : t -> string list
(** All brick ids, components first, definition order. *)

val is_connector : t -> string -> bool

val successors : t -> string -> string list
(** Bricks reachable by one communication edge. Unknown ids yield []. *)

val predecessors : t -> string -> string list

val adjacent : t -> string -> string -> bool
(** One-edge communication. *)

val reachable : ?policy:policy -> t -> string -> string -> bool
(** Default policy [Routed]. [reachable g a a] is [true]. *)

val path : ?policy:policy -> t -> string -> string -> string list option
(** Shortest communication path (BFS) as a brick-id list from source to
    target inclusive; [None] when unreachable. *)

val undirected_components : t -> string list list
(** Connected components ignoring edge direction, each sorted, the list
    sorted by first element; used to detect isolated islands. *)

val degree : t -> string -> int * int
(** (in-degree, out-degree) in the communication graph. *)

val edge_count : t -> int

(** The interned-int view of the graph, for callers that keep per-node
    state of their own (e.g. {!Reach}'s resumable searches): node
    handles are dense ints in [0 .. node_count-1], components first
    then connectors, definition order. *)
module Core : sig
  val node_count : t -> int

  val index : t -> string -> int option
  (** Dense handle of a brick id; [None] for unknown ids. *)

  val label : t -> int -> string
  (** Inverse of {!index}. *)

  val is_connector : t -> int -> bool

  val iter_succ : t -> int -> (int -> unit) -> unit
  (** Apply a function to each successor handle, in edge order. *)

  val may_relay : policy -> t -> int -> int -> bool
  (** [may_relay policy g source u]: a search from [source] may expand
      [u] — always the source itself; any node under [Routed];
      connectors only under [Direct]. *)
end
