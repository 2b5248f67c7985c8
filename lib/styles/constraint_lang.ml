type t =
  | Connect of { src : string; dst : string }
  | Forbid of { src : string; dst : string }
  | Route_via of { src : string; dst : string; via : string }
  | Mediate of { src : string; dst : string }
  | Acyclic

exception Syntax_error of { line : int; message : string }

let syntax_error line fmt =
  Format.kasprintf (fun message -> raise (Syntax_error { line; message })) fmt

let parse input =
  let parse_line lineno line =
    let line =
      match String.index_opt line '#' with
      | Some i -> String.sub line 0 i
      | None -> line
    in
    let words =
      List.filter (fun w -> w <> "") (String.split_on_char ' ' (String.trim line))
    in
    match words with
    | [] -> None
    | [ "acyclic" ] -> Some Acyclic
    | [ "connect"; src; "->"; dst ] -> Some (Connect { src; dst })
    | [ "forbid"; src; "->"; dst ] -> Some (Forbid { src; dst })
    | [ "route"; src; "->"; dst; "via"; via ] -> Some (Route_via { src; dst; via })
    | [ "mediate"; src; "->"; dst ] -> Some (Mediate { src; dst })
    | keyword :: _ -> syntax_error lineno "cannot parse constraint starting with %S" keyword
  in
  input
  |> String.split_on_char '\n'
  |> List.mapi (fun i line -> parse_line (i + 1) line)
  |> List.filter_map Fun.id

let to_string = function
  | Connect { src; dst } -> Printf.sprintf "connect %s -> %s" src dst
  | Forbid { src; dst } -> Printf.sprintf "forbid %s -> %s" src dst
  | Route_via { src; dst; via } -> Printf.sprintf "route %s -> %s via %s" src dst via
  | Mediate { src; dst } -> Printf.sprintf "mediate %s -> %s" src dst
  | Acyclic -> "acyclic"

(* Is [dst] reachable from [src] without passing through [blocked]
   (endpoints excluded)? *)
let reaches_avoiding graph src dst blocked =
  let visited = Hashtbl.create 16 in
  let queue = Queue.create () in
  Hashtbl.replace visited src ();
  Queue.push src queue;
  let found = ref false in
  while (not !found) && not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    List.iter
      (fun v ->
        if not (Hashtbl.mem visited v) then
          if String.equal v dst then found := true
          else if not (List.exists (String.equal v) blocked) then begin
            Hashtbl.replace visited v ();
            Queue.push v queue
          end)
      (Adl.Graph.successors graph u)
  done;
  !found

let has_cycle graph =
  let color = Hashtbl.create 16 in
  let cyclic = ref false in
  let rec visit u =
    match Hashtbl.find_opt color u with
    | Some `Gray -> cyclic := true
    | Some `Black -> ()
    | None ->
        Hashtbl.replace color u `Gray;
        List.iter (fun v -> if not !cyclic then visit v) (Adl.Graph.successors graph u);
        Hashtbl.replace color u `Black
  in
  List.iter (fun u -> if not !cyclic then visit u) (Adl.Graph.nodes graph);
  !cyclic

let check_some arch constraints =
  let graph = Adl.Graph.of_structure arch in
  let known id = List.exists (String.equal id) (Adl.Structure.brick_ids arch) in
  let unknown_violation c id =
    Rule.violation ~rule:"constraint.unknown" ~subject:id
      (Printf.sprintf "constraint %S names an unknown element" (to_string c))
  in
  List.concat_map
    (fun c ->
      let require_known ids body =
        match List.filter (fun id -> not (known id)) ids with
        | [] -> body ()
        | missing -> List.map (unknown_violation c) missing
      in
      match c with
      | Connect { src; dst } ->
          require_known [ src; dst ] (fun () ->
              if Adl.Graph.reachable graph src dst then []
              else
                [
                  Rule.violation ~rule:"constraint.connect" ~subject:(src ^ "->" ^ dst)
                    "required communication is not possible";
                ])
      | Forbid { src; dst } ->
          require_known [ src; dst ] (fun () ->
              if String.equal src dst || not (Adl.Graph.reachable graph src dst) then []
              else
                [
                  Rule.violation ~rule:"constraint.forbid" ~subject:(src ^ "->" ^ dst)
                    "forbidden communication is possible";
                ])
      | Route_via { src; dst; via } ->
          require_known [ src; dst; via ] (fun () ->
              if not (Adl.Graph.reachable graph src dst) then
                [
                  Rule.violation ~rule:"constraint.route" ~subject:(src ^ "->" ^ dst)
                    "no communication path exists at all";
                ]
              else if reaches_avoiding graph src dst [ via ] then
                [
                  Rule.violation ~rule:"constraint.route" ~subject:(src ^ "->" ^ dst)
                    (Printf.sprintf "a path bypasses the required intermediary %S" via);
                ]
              else [])
      | Mediate { src; dst } ->
          require_known [ src; dst ] (fun () ->
              if Adl.Graph.reachable ~policy:Adl.Graph.Direct graph src dst then []
              else
                [
                  Rule.violation ~rule:"constraint.mediate" ~subject:(src ^ "->" ^ dst)
                    "no connector-mediated path exists";
                ])
      | Acyclic ->
          if has_cycle graph then
            [
              Rule.violation ~rule:"constraint.acyclic" ~subject:arch.Adl.Structure.arch_id
                "the communication graph contains a cycle";
            ]
          else [])
    constraints

(* Most evaluations carry no constraints; they build no graph. *)
let check arch constraints = if constraints = [] then [] else check_some arch constraints

let as_rule constraints =
  Rule.make ~id:"constraints" ~description:"requirements-imposed communication constraints"
    (fun arch -> check arch constraints)
