type policy = Direct | Routed

(* Compact core: bricks are interned to dense ints (components first,
   then connectors — first-occurrence order of [Structure.brick_ids]),
   and both adjacency directions are stored as CSR arrays
   ([succ_off.(u) .. succ_off.(u+1)) indexes [succ_tgt]). BFS works
   entirely on ints with a flat parent array doubling as the visited
   set; strings only appear at the API boundary. *)
type t = {
  node_list : string list;  (* brick ids as given, for [nodes] *)
  tab : Symtab.t;
  connector : bool array;
  succ_off : int array;
  succ_tgt : int array;
  pred_off : int array;
  pred_tgt : int array;
  edges : int;
}

let can_initiate = function
  | Structure.Required | Structure.In_out -> true
  | Structure.Provided -> false

let can_accept = function
  | Structure.Provided | Structure.In_out -> true
  | Structure.Required -> false

(* Turn an edge list (insertion order, deduplicated) into CSR arrays.
   Filling in insertion order keeps each node's adjacency in the order
   the edges were added, matching the list-based implementation this
   replaced. *)
let csr n edges select =
  let off = Array.make (n + 1) 0 in
  List.iter (fun e -> let u, _ = select e in off.(u + 1) <- off.(u + 1) + 1) edges;
  for i = 0 to n - 1 do
    off.(i + 1) <- off.(i + 1) + off.(i)
  done;
  let cursor = Array.copy off in
  let tgt = Array.make (List.length edges) 0 in
  List.iter
    (fun e ->
      let u, v = select e in
      tgt.(cursor.(u)) <- v;
      cursor.(u) <- cursor.(u) + 1)
    edges;
  (off, tgt)

let of_structure s =
  let node_list = Structure.brick_ids s in
  let tab = Symtab.of_list node_list in
  let n = Symtab.size tab in
  let connector = Array.make n false in
  List.iter
    (fun c ->
      match Symtab.find tab c.Structure.conn_id with
      | Some i -> connector.(i) <- true
      | None -> ())
    s.Structure.connectors;
  (* Gather directed edges in insertion order; the hashtable dedup
     keeps construction O(E) where appending to per-node lists with a
     linear membership scan was O(E^2) on dense architectures. *)
  let seen = Hashtbl.create (2 * List.length s.Structure.links) in
  let edges = ref [] in
  let add_edge a b =
    if not (Hashtbl.mem seen (a, b)) then begin
      Hashtbl.add seen (a, b) ();
      edges := (a, b) :: !edges
    end
  in
  let resolve = Structure.interface_resolver s in
  List.iter
    (fun l ->
      let fa = l.Structure.link_from.Structure.anchor in
      let ta = l.Structure.link_to.Structure.anchor in
      match (resolve l.Structure.link_from, resolve l.Structure.link_to) with
      | Some fi, Some ti -> (
          match (Symtab.find tab fa, Symtab.find tab ta) with
          | Some fa, Some ta ->
              if can_initiate fi.Structure.direction && can_accept ti.Structure.direction then
                add_edge fa ta;
              if can_initiate ti.Structure.direction && can_accept fi.Structure.direction then
                add_edge ta fa
          | None, _ | _, None -> ())
      | None, _ | _, None -> ())
    s.Structure.links;
  let edges = List.rev !edges in
  let succ_off, succ_tgt = csr n edges (fun (a, b) -> (a, b)) in
  let pred_off, pred_tgt = csr n edges (fun (a, b) -> (b, a)) in
  {
    node_list;
    tab;
    connector;
    succ_off;
    succ_tgt;
    pred_off;
    pred_tgt;
    edges = List.length edges;
  }

let nodes g = g.node_list

let is_connector g id =
  match Symtab.find g.tab id with Some i -> g.connector.(i) | None -> false

let slice off tgt i = Array.to_list (Array.sub tgt off.(i) (off.(i + 1) - off.(i)))

let successors g id =
  match Symtab.find g.tab id with
  | Some i -> List.map (Symtab.name g.tab) (slice g.succ_off g.succ_tgt i)
  | None -> []

let predecessors g id =
  match Symtab.find g.tab id with
  | Some i -> List.map (Symtab.name g.tab) (slice g.pred_off g.pred_tgt i)
  | None -> []

let adjacent g a b =
  match (Symtab.find g.tab a, Symtab.find g.tab b) with
  | Some a, Some b ->
      let rec scan i = i < g.succ_off.(a + 1) && (g.succ_tgt.(i) = b || scan (i + 1)) in
      scan g.succ_off.(a)
  | None, _ | _, None -> false

let may_relay policy g source u =
  u = source || (match policy with Routed -> true | Direct -> g.connector.(u))

(* Int BFS from [source]; stops once [target] (when >= 0) is
   discovered. Returns the parent array: [parent.(v) >= 0] iff [v] was
   discovered, the source maps to itself. Exploration order (FIFO
   queue, successors in CSR order) matches the original string BFS, so
   reconstructed paths are identical. *)
let bfs_core policy g source target =
  let n = Symtab.size g.tab in
  let parent = Array.make n (-1) in
  let queue = Array.make n 0 in
  let head = ref 0 and tail = ref 0 in
  parent.(source) <- source;
  queue.(!tail) <- source;
  incr tail;
  let found = ref false in
  while (not !found) && !head < !tail do
    let u = queue.(!head) in
    incr head;
    if may_relay policy g source u then
      for i = g.succ_off.(u) to g.succ_off.(u + 1) - 1 do
        let v = g.succ_tgt.(i) in
        if parent.(v) < 0 then begin
          parent.(v) <- u;
          if v = target then found := true
          else begin
            queue.(!tail) <- v;
            incr tail
          end
        end
      done
  done;
  parent

let build_path g parent source target =
  let rec build acc v =
    if v = source then Symtab.name g.tab source :: acc
    else build (Symtab.name g.tab v :: acc) parent.(v)
  in
  build [] target

let path ?(policy = Routed) g a b =
  if String.equal a b then Some [ a ]
  else
    match (Symtab.find g.tab a, Symtab.find g.tab b) with
    | Some sa, Some sb ->
        let parent = bfs_core policy g sa sb in
        if parent.(sb) < 0 then None else Some (build_path g parent sa sb)
    | None, _ | _, None -> None

let reachable ?(policy = Routed) g a b =
  String.equal a b
  ||
  match (Symtab.find g.tab a, Symtab.find g.tab b) with
  | Some sa, Some sb -> (bfs_core policy g sa sb).(sb) >= 0
  | None, _ | _, None -> false

let undirected_components g =
  let n = Symtab.size g.tab in
  let visited = Bytes.make n '\000' in
  let queue = Array.make n 0 in
  let component start =
    let acc = ref [] in
    let head = ref 0 and tail = ref 0 in
    Bytes.set visited start '\001';
    queue.(!tail) <- start;
    incr tail;
    while !head < !tail do
      let u = queue.(!head) in
      incr head;
      acc := Symtab.name g.tab u :: !acc;
      let visit i =
        let v = i in
        if Bytes.get visited v = '\000' then begin
          Bytes.set visited v '\001';
          queue.(!tail) <- v;
          incr tail
        end
      in
      for i = g.succ_off.(u) to g.succ_off.(u + 1) - 1 do
        visit g.succ_tgt.(i)
      done;
      for i = g.pred_off.(u) to g.pred_off.(u + 1) - 1 do
        visit g.pred_tgt.(i)
      done
    done;
    List.sort String.compare !acc
  in
  let comps = ref [] in
  for i = n - 1 downto 0 do
    if Bytes.get visited i = '\000' then comps := component i :: !comps
  done;
  List.sort
    (fun a b ->
      match (a, b) with
      | x :: _, y :: _ -> String.compare x y
      | [], _ -> -1
      | _, [] -> 1)
    !comps

let degree g id =
  match Symtab.find g.tab id with
  | Some i -> (g.pred_off.(i + 1) - g.pred_off.(i), g.succ_off.(i + 1) - g.succ_off.(i))
  | None -> (0, 0)

let edge_count g = g.edges

module Core = struct
  let node_count g = Symtab.size g.tab

  let index g id = Symtab.find g.tab id

  let label g i = Symtab.name g.tab i

  let is_connector g i = g.connector.(i)

  let iter_succ g u f =
    for i = g.succ_off.(u) to g.succ_off.(u + 1) - 1 do
      f g.succ_tgt.(i)
    done

  let may_relay = may_relay
end
