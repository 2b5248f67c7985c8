type direction = Provided | Required | In_out

type interface = {
  iface_id : string;
  iface_name : string;
  direction : direction;
  iface_tags : (string * string) list;
}

type component = {
  comp_id : string;
  comp_name : string;
  comp_description : string;
  responsibilities : string list;
  comp_interfaces : interface list;
  substructure : t option;
  comp_tags : (string * string) list;
}

and connector = {
  conn_id : string;
  conn_name : string;
  conn_description : string;
  conn_interfaces : interface list;
  conn_tags : (string * string) list;
}

and point = { anchor : string; interface : string }

and link = { link_id : string; link_from : point; link_to : point }

and t = {
  arch_id : string;
  arch_name : string;
  style : string option;
  components : component list;
  connectors : connector list;
  links : link list;
}

let empty ?style ~id ~name () =
  { arch_id = id; arch_name = name; style; components = []; connectors = []; links = [] }

let find_component t id = List.find_opt (fun c -> String.equal c.comp_id id) t.components

let find_connector t id = List.find_opt (fun c -> String.equal c.conn_id id) t.connectors

let component_exn t id =
  match find_component t id with Some c -> c | None -> raise Not_found

let element_interfaces t id =
  match find_component t id with
  | Some c -> c.comp_interfaces
  | None -> (
      match find_connector t id with Some c -> c.conn_interfaces | None -> [])

let find_interface t point =
  List.find_opt
    (fun i -> String.equal i.iface_id point.interface)
    (element_interfaces t point.anchor)

(* The first element with an id owns it (components before
   connectors), and within it the first interface with an id wins —
   [find_interface]'s first-match order, in one pass over one table. *)
let interface_resolver t =
  let elements = List.length t.components + List.length t.connectors in
  let owners = Hashtbl.create elements in
  let table = Hashtbl.create (4 * elements) in
  let add id interfaces =
    if not (Hashtbl.mem owners id) then begin
      Hashtbl.add owners id ();
      List.iter
        (fun i ->
          if not (Hashtbl.mem table (id, i.iface_id)) then Hashtbl.add table (id, i.iface_id) i)
        interfaces
    end
  in
  List.iter (fun c -> add c.comp_id c.comp_interfaces) t.components;
  List.iter (fun c -> add c.conn_id c.conn_interfaces) t.connectors;
  fun p -> Hashtbl.find_opt table (p.anchor, p.interface)

let tag tags name =
  Option.map snd (List.find_opt (fun (k, _) -> String.equal k name) tags)

let component_tag c name = tag c.comp_tags name

let interface_tag i name = tag i.iface_tags name

let layer_of c =
  match component_tag c "layer" with Some v -> int_of_string_opt v | None -> None

let brick_ids t =
  List.map (fun c -> c.comp_id) t.components @ List.map (fun c -> c.conn_id) t.connectors

let rec size t =
  let sub =
    List.fold_left
      (fun acc c -> match c.substructure with Some s -> acc + size s | None -> acc)
      0 t.components
  in
  List.length t.components + List.length t.connectors + List.length t.links + sub
