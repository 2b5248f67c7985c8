(* The interned-ID/CSR Adl.Graph against the frozen pre-rewrite
   implementation (Graph_reference): on random architectures every
   query must answer identically — the rewrite changed representation,
   not semantics. Plus representation-independent path validity. *)

(* Random architectures: components c0.., connectors k0.., wired with a
   mix of bidirectional channels, directed require/provide links, and
   connector-routed links, so the direction filtering in of_structure
   is exercised, not just In_out edges. *)
type wire = Bi of int * int | Dir of int * int | Via of int * int * int

let gen_spec =
  QCheck2.Gen.(
    let* n = int_range 1 8 in
    let* m = int_range 0 3 in
    let endpoint = int_range 0 (n + m - 1) in
    let* wires =
      list_size (int_range 0 14)
        (oneof
           [
             map (fun (a, b) -> Bi (a, b)) (pair endpoint endpoint);
             map (fun (a, b) -> Dir (a, b)) (pair endpoint endpoint);
             map (fun ((a, b), k) -> Via (a, b, k)) (pair (pair endpoint endpoint) (int_range 0 2));
           ])
    in
    return (n, m, wires))

let build_spec (n, m, wires) =
  let brick i = if i < n then Printf.sprintf "c%d" i else Printf.sprintf "k%d" (i - n) in
  let base =
    List.fold_left
      (fun t i -> Adl.Build.add_component ~id:(Printf.sprintf "c%d" i) ~name:"C" t)
      (Adl.Build.create ~id:"rand" ~name:"Random" ())
      (List.init n Fun.id)
  in
  let base =
    List.fold_left
      (fun t i -> Adl.Build.add_connector ~id:(Printf.sprintf "k%d" i) ~name:"K" t)
      base (List.init m Fun.id)
  in
  List.fold_left
    (fun t wire ->
      let wired =
        match wire with
        | Bi (a, b) when a <> b -> (fun () -> Adl.Build.biconnect t (brick a) (brick b))
        | Dir (a, b) when a <> b -> (fun () -> Adl.Build.connect t (brick a) (brick b))
        | Via (a, b, k) when a <> b && m > 0 ->
            fun () ->
              Adl.Build.connect ~via:(Printf.sprintf "k%d" (k mod m)) t (brick a) (brick b)
        | _ -> fun () -> t
      in
      match wired () with
      | t -> t
      | exception Adl.Build.Duplicate _ -> t
      | exception Adl.Build.Unknown _ -> t)
    base wires

let queries g = "ghost" :: Adl.Graph.nodes g

let pairs g =
  let ids = queries g in
  List.concat_map (fun a -> List.map (fun b -> (a, b)) ids) ids

let with_both spec check =
  let arch = build_spec spec in
  check (Adl.Graph.of_structure arch) (Graph_reference.of_structure arch)

let prop_structure_agrees =
  QCheck2.Test.make ~name:"graph: nodes/successors/degree match the reference" ~count:200
    gen_spec (fun spec ->
      with_both spec (fun g r ->
          Adl.Graph.nodes g = Graph_reference.nodes r
          && Adl.Graph.edge_count g = Graph_reference.edge_count r
          && List.for_all
               (fun id ->
                 Adl.Graph.successors g id = Graph_reference.successors r id
                 && Adl.Graph.predecessors g id = Graph_reference.predecessors r id
                 && Adl.Graph.degree g id = Graph_reference.degree r id
                 && Adl.Graph.is_connector g id = Graph_reference.is_connector r id)
               (queries g)))

let prop_adjacent_reachable_agree =
  QCheck2.Test.make ~name:"graph: adjacent and reachable match the reference" ~count:200
    gen_spec (fun spec ->
      with_both spec (fun g r ->
          List.for_all
            (fun (a, b) ->
              Adl.Graph.adjacent g a b = Graph_reference.adjacent r a b
              && Adl.Graph.reachable ~policy:Adl.Graph.Routed g a b
                 = Graph_reference.reachable ~policy:Graph_reference.Routed r a b
              && Adl.Graph.reachable ~policy:Adl.Graph.Direct g a b
                 = Graph_reference.reachable ~policy:Graph_reference.Direct r a b)
            (pairs g)))

let prop_paths_agree =
  QCheck2.Test.make ~name:"graph: BFS paths are byte-identical to the reference"
    ~count:200 gen_spec (fun spec ->
      with_both spec (fun g r ->
          List.for_all
            (fun (a, b) ->
              Adl.Graph.path ~policy:Adl.Graph.Routed g a b
              = Graph_reference.path ~policy:Graph_reference.Routed r a b
              && Adl.Graph.path ~policy:Adl.Graph.Direct g a b
                 = Graph_reference.path ~policy:Graph_reference.Direct r a b)
            (pairs g)))

let prop_components_agree =
  QCheck2.Test.make ~name:"graph: undirected components match the reference" ~count:200
    gen_spec (fun spec ->
      with_both spec (fun g r ->
          Adl.Graph.undirected_components g = Graph_reference.undirected_components r))

(* Validity, independent of any reference: a returned path starts at the
   source, ends at the target, follows existing edges, and under Direct
   policy routes only through connectors. *)
let valid_path g policy a b = function
  | None -> true
  | Some [] -> false
  | Some (h :: _ as p) ->
      let rec last = function [ x ] -> x | _ :: tl -> last tl | [] -> assert false in
      let rec edges_ok = function
        | x :: (y :: _ as tl) -> Adl.Graph.adjacent g x y && edges_ok tl
        | [ _ ] | [] -> true
      in
      let intermediates_ok =
        match (policy, p) with
        | Adl.Graph.Routed, _ | _, ([] | [ _ ]) -> true
        | Adl.Graph.Direct, _ :: rest ->
            let rec inner = function
              | [ _ ] | [] -> true
              | x :: tl -> Adl.Graph.is_connector g x && inner tl
            in
            inner rest
      in
      String.equal h a && String.equal (last p) b && edges_ok p && intermediates_ok

let prop_paths_valid =
  QCheck2.Test.make
    ~name:"graph: paths follow edges; Direct intermediates are connectors" ~count:200
    gen_spec (fun spec ->
      let arch = build_spec spec in
      let g = Adl.Graph.of_structure arch in
      List.for_all
        (fun (a, b) ->
          valid_path g Adl.Graph.Routed a b (Adl.Graph.path ~policy:Adl.Graph.Routed g a b)
          && valid_path g Adl.Graph.Direct a b
               (Adl.Graph.path ~policy:Adl.Graph.Direct g a b))
        (List.filter (fun (a, b) -> not (String.equal a b)) (pairs g)))

(* Raw structures, as Adl.Xml_io accepts them and Adl.Build never
   makes: brick ids shared between components, connectors and each
   other, repeated interface ids within an element, dangling anchors
   and interface names. The one-pass endpoint resolver must pick what
   Structure.find_interface picks, so the graph must still match the
   reference built on it. Interface lists run long enough to reach the
   resolver's per-element tables. *)
let gen_raw =
  QCheck2.Gen.(
    let open Adl.Structure in
    let brick = oneofl [ "a"; "b"; "c"; "d" ] in
    let iface_id = map (Printf.sprintf "i%d") (int_range 0 11) in
    let iface =
      map2
        (fun iface_id direction ->
          { iface_id; iface_name = iface_id; direction; iface_tags = [] })
        iface_id
        (oneofl [ Provided; Required; In_out ])
    in
    let interfaces = list_size (int_range 0 12) iface in
    let component =
      map2
        (fun comp_id comp_interfaces ->
          {
            comp_id;
            comp_name = comp_id;
            comp_description = "";
            responsibilities = [];
            comp_interfaces;
            substructure = None;
            comp_tags = [];
          })
        brick interfaces
    in
    let connector =
      map2
        (fun conn_id conn_interfaces ->
          { conn_id; conn_name = conn_id; conn_description = ""; conn_interfaces; conn_tags = [] })
        brick interfaces
    in
    let point =
      map2 (fun anchor interface -> { anchor; interface }) (oneofl [ "a"; "b"; "c"; "d"; "ghost" ]) iface_id
    in
    let link = map2 (fun link_from link_to -> { link_id = "l"; link_from; link_to }) point point in
    let* components = list_size (int_range 0 5) component in
    let* connectors = list_size (int_range 0 3) connector in
    let* links = list_size (int_range 0 16) link in
    return
      { arch_id = "raw"; arch_name = "Raw"; style = None; components; connectors; links })

let print_raw s = Adl.Xml_io.to_string s

let prop_raw_structures_agree =
  QCheck2.Test.make
    ~name:"graph: duplicate ids and dangling endpoints resolve first-match, as the reference"
    ~count:300 ~print:print_raw gen_raw (fun arch ->
      let g = Adl.Graph.of_structure arch and r = Graph_reference.of_structure arch in
      let resolve = Adl.Structure.interface_resolver arch in
      List.for_all
        (fun l ->
          List.for_all
            (fun p -> resolve p = Adl.Structure.find_interface arch p)
            [ l.Adl.Structure.link_from; l.Adl.Structure.link_to ])
        arch.Adl.Structure.links
      && Adl.Graph.nodes g = Graph_reference.nodes r
      && Adl.Graph.edge_count g = Graph_reference.edge_count r
      && List.for_all
           (fun id ->
             Adl.Graph.successors g id = Graph_reference.successors r id
             && Adl.Graph.predecessors g id = Graph_reference.predecessors r id
             && Adl.Graph.is_connector g id = Graph_reference.is_connector r id)
           (queries g)
      && List.for_all
           (fun (a, b) ->
             Adl.Graph.path ~policy:Adl.Graph.Routed g a b
             = Graph_reference.path ~policy:Graph_reference.Routed r a b
             && Adl.Graph.path ~policy:Adl.Graph.Direct g a b
                = Graph_reference.path ~policy:Graph_reference.Direct r a b)
           (pairs g))

(* Adl.Reach resumes one search per (policy, source) across queries;
   whatever order the queries come in — repeated sources, targets
   discovered by an earlier query or never, unknown ids — every answer
   must be the reference's fresh BFS answer. A log recorded on the way
   replays as true against a fresh oracle. *)
let gen_reach_case =
  QCheck2.Gen.(
    let* spec = gen_spec in
    let* asks =
      list_size (int_range 0 40) (quad bool bool (int_range 0 12) (int_range 0 12))
    in
    return (spec, asks))

let prop_reach_resumes_exactly =
  QCheck2.Test.make ~name:"reach: resumed searches answer as a fresh reference BFS"
    ~count:300 gen_reach_case (fun (spec, asks) ->
      let arch = build_spec spec in
      let g = Adl.Graph.of_structure arch and r = Graph_reference.of_structure arch in
      let ids = Array.of_list ("phantom" :: queries g) in
      let id i = ids.(i mod Array.length ids) in
      let reach = Adl.Reach.create g and record = Adl.Reach.recorder () in
      List.for_all
        (fun (routed, as_path, a, b) ->
          let a = id a and b = id b in
          let policy, ref_policy =
            if routed then (Adl.Graph.Routed, Graph_reference.Routed)
            else (Adl.Graph.Direct, Graph_reference.Direct)
          in
          if as_path then
            Adl.Reach.path ~policy ~record reach a b
            = Graph_reference.path ~policy:ref_policy r a b
          else
            Adl.Reach.reachable ~policy ~record reach a b
            = Graph_reference.reachable ~policy:ref_policy r a b)
        asks
      && Adl.Reach.replay (Adl.Reach.create g) (Adl.Reach.recorded record))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_structure_agrees;
    QCheck_alcotest.to_alcotest prop_adjacent_reachable_agree;
    QCheck_alcotest.to_alcotest prop_paths_agree;
    QCheck_alcotest.to_alcotest prop_components_agree;
    QCheck_alcotest.to_alcotest prop_paths_valid;
    QCheck_alcotest.to_alcotest prop_raw_structures_agree;
    QCheck_alcotest.to_alcotest prop_reach_resumes_exactly;
  ]
