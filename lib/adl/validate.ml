type problem =
  | Duplicate_element of string
  | Duplicate_interface of { element : string; interface : string }
  | Duplicate_link of string
  | Unknown_anchor of { link : string; anchor : string }
  | Unknown_interface of { link : string; anchor : string; interface : string }
  | Incompatible_link of string
  | Self_link of string
  | Isolated_element of string
  | Empty_name of string
  | Missing_responsibilities of string
  | Substructure_problem of { component : string; problem : problem }

let rec pp_problem ppf = function
  | Duplicate_element id -> Format.fprintf ppf "duplicate element id %S" id
  | Duplicate_interface { element; interface } ->
      Format.fprintf ppf "element %S: duplicate interface %S" element interface
  | Duplicate_link id -> Format.fprintf ppf "duplicate link id %S" id
  | Unknown_anchor { link; anchor } ->
      Format.fprintf ppf "link %S: unknown element %S" link anchor
  | Unknown_interface { link; anchor; interface } ->
      Format.fprintf ppf "link %S: element %S has no interface %S" link anchor interface
  | Incompatible_link id ->
      Format.fprintf ppf "link %S: no endpoint can initiate communication toward the other" id
  | Self_link id -> Format.fprintf ppf "link %S connects an element to itself" id
  | Isolated_element id -> Format.fprintf ppf "element %S has no links" id
  | Empty_name id -> Format.fprintf ppf "element %S has an empty name" id
  | Missing_responsibilities id ->
      Format.fprintf ppf "component %S declares no responsibilities" id
  | Substructure_problem { component; problem } ->
      Format.fprintf ppf "in substructure of %S: %a" component pp_problem problem

let problem_to_string p = Format.asprintf "%a" pp_problem p

let can_initiate = function
  | Structure.Required | Structure.In_out -> true
  | Structure.Provided -> false

let can_accept = function
  | Structure.Provided | Structure.In_out -> true
  | Structure.Required -> false

let rec check ?(require_responsibilities = true) t =
  let ids = Structure.brick_ids t in
  let seen = Hashtbl.create 16 in
  let duplicate_elements =
    List.filter_map
      (fun id ->
        if Hashtbl.mem seen id then Some (Duplicate_element id)
        else begin
          Hashtbl.add seen id ();
          None
        end)
      ids
  in
  let duplicate_interfaces =
    let of_element element ifaces =
      let seen = Hashtbl.create 8 in
      List.filter_map
        (fun i ->
          let id = i.Structure.iface_id in
          if Hashtbl.mem seen id then Some (Duplicate_interface { element; interface = id })
          else begin
            Hashtbl.add seen id ();
            None
          end)
        ifaces
    in
    List.concat_map
      (fun c -> of_element c.Structure.comp_id c.Structure.comp_interfaces)
      t.Structure.components
    @ List.concat_map
        (fun c -> of_element c.Structure.conn_id c.Structure.conn_interfaces)
        t.Structure.connectors
  in
  let link_ids = List.map (fun l -> l.Structure.link_id) t.Structure.links in
  let duplicate_links =
    let seen = Hashtbl.create 16 in
    List.filter_map
      (fun id ->
        if Hashtbl.mem seen id then Some (Duplicate_link id)
        else begin
          Hashtbl.add seen id ();
          None
        end)
      link_ids
  in
  (* [seen] now holds every element id *)
  let known id = Hashtbl.mem seen id in
  let resolve = Structure.interface_resolver t in
  let endpoint_problems =
    List.concat_map
      (fun l ->
        let link = l.Structure.link_id in
        let check_point p =
          let anchor = p.Structure.anchor in
          if not (known anchor) then [ Unknown_anchor { link; anchor } ]
          else if resolve p = None then
            [ Unknown_interface { link; anchor; interface = p.Structure.interface } ]
          else []
        in
        check_point l.Structure.link_from @ check_point l.Structure.link_to)
      t.Structure.links
  in
  let direction_problems =
    List.filter_map
      (fun l ->
        match (resolve l.Structure.link_from, resolve l.Structure.link_to) with
        | Some fi, Some ti ->
            let fwd = can_initiate fi.Structure.direction && can_accept ti.Structure.direction in
            let bwd = can_initiate ti.Structure.direction && can_accept fi.Structure.direction in
            if fwd || bwd then None else Some (Incompatible_link l.Structure.link_id)
        | None, _ | _, None -> None)
      t.Structure.links
  in
  let self_links =
    List.filter_map
      (fun l ->
        if
          String.equal l.Structure.link_from.Structure.anchor
            l.Structure.link_to.Structure.anchor
        then Some (Self_link l.Structure.link_id)
        else None)
      t.Structure.links
  in
  let linked = Hashtbl.create 16 in
  List.iter
    (fun l ->
      Hashtbl.replace linked l.Structure.link_from.Structure.anchor ();
      Hashtbl.replace linked l.Structure.link_to.Structure.anchor ())
    t.Structure.links;
  let isolated =
    (* A single-element architecture has nothing to link to. *)
    if List.length ids <= 1 then []
    else
      List.filter_map
        (fun id -> if Hashtbl.mem linked id then None else Some (Isolated_element id))
        ids
  in
  let empty_names =
    List.filter_map
      (fun (id, name) -> if String.trim name = "" then Some (Empty_name id) else None)
      (List.map (fun c -> (c.Structure.comp_id, c.Structure.comp_name)) t.Structure.components
      @ List.map (fun c -> (c.Structure.conn_id, c.Structure.conn_name)) t.Structure.connectors)
  in
  let missing_resp =
    if not require_responsibilities then []
    else
      List.filter_map
        (fun c ->
          if c.Structure.responsibilities = [] then
            Some (Missing_responsibilities c.Structure.comp_id)
          else None)
        t.Structure.components
  in
  let substructure_problems =
    List.concat_map
      (fun c ->
        match c.Structure.substructure with
        | None -> []
        | Some sub ->
            List.map
              (fun p -> Substructure_problem { component = c.Structure.comp_id; problem = p })
              (check ~require_responsibilities sub))
      t.Structure.components
  in
  duplicate_elements @ duplicate_interfaces @ duplicate_links @ endpoint_problems
  @ direction_problems @ self_links @ isolated @ empty_names @ missing_resp
  @ substructure_problems

let is_wellformed ?require_responsibilities t = check ?require_responsibilities t = []
