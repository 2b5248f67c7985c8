(** xADL-style structural architecture description.

    An architecture is a set of components and connectors, each exposing
    named interfaces, wired by links between interfaces. Components
    carry "precisely defined responsibilities and services ... provided
    through their interfaces" (paper §1) — responsibilities are what the
    event-type mapping is grounded in. Components may have a
    sub-architecture ([substructure]); tags carry style-specific
    properties (e.g. the layer index for the Layered style, or the C2
    [side] of an interface). *)

type direction = Provided | Required | In_out
(** Provided: services offered (others call in). Required: services this
    element calls on others. [In_out] both. *)

type interface = {
  iface_id : string;  (** unique within the owning element *)
  iface_name : string;
  direction : direction;
  iface_tags : (string * string) list;
      (** e.g. [("side", "top")] for C2 architectures *)
}

type component = {
  comp_id : string;
  comp_name : string;
  comp_description : string;
  responsibilities : string list;
  comp_interfaces : interface list;
  substructure : t option;
  comp_tags : (string * string) list;  (** e.g. [("layer", "2")] *)
}

and connector = {
  conn_id : string;
  conn_name : string;
  conn_description : string;
  conn_interfaces : interface list;
  conn_tags : (string * string) list;
}

(** One end of a link: an element (component or connector) id and one of
    its interface ids. *)
and point = { anchor : string; interface : string }

and link = { link_id : string; link_from : point; link_to : point }
(** Links are directed from [link_from] to [link_to]; communication
    follows interface directions (see {!Graph}). *)

and t = {
  arch_id : string;
  arch_name : string;
  style : string option;  (** declared style name, e.g. ["layered"], ["c2"] *)
  components : component list;
  connectors : connector list;
  links : link list;
}

val empty : ?style:string -> id:string -> name:string -> unit -> t

val find_component : t -> string -> component option

val find_connector : t -> string -> connector option

val component_exn : t -> string -> component
(** @raise Not_found if absent. *)

val element_interfaces : t -> string -> interface list
(** Interfaces of the component or connector with the given id; [] if
    the id is unknown. *)

val find_interface : t -> point -> interface option
(** The interface a link endpoint names: the first element with the
    anchor's id (components before connectors), then that element's
    first interface with the id. [None] when either is missing. *)

val interface_resolver : t -> point -> interface option
(** [interface_resolver t] indexes every element's interfaces in one
    pass; the returned function answers exactly as [find_interface t]
    does, in O(1) per endpoint. Apply it once per structure when
    resolving many endpoints (every link of a graph or a validation). *)

val tag : (string * string) list -> string -> string option

val component_tag : component -> string -> string option

val interface_tag : interface -> string -> string option

val layer_of : component -> int option
(** The integer value of the component's ["layer"] tag, if present. *)

val brick_ids : t -> string list
(** Component ids then connector ids, in definition order. *)

val size : t -> int
(** Components + connectors + links, including substructures. *)
