(* One resumable BFS per (policy, source), shared by every query from
   that source. A search explores only until its target is discovered
   and keeps its frontier, so the next query from the same source
   resumes where the last one stopped. A walk asks about bricks a few
   hops from the source, so a search rarely grows beyond a handful of
   nodes, and its parent map is a small table sized to what it has
   discovered rather than an array over the whole graph.

   Exploration order is the full BFS's (FIFO queue, successors in CSR
   order, the same relay rule as Graph.path), and a node's parent is
   set once, when it is discovered. A search that stops early has
   discovered a prefix of the full BFS's discovery sequence, so every
   parent it holds is final and reconstructed paths are identical to
   the ones Graph.path returns. *)

module Handles = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash x = x
end)

type search = {
  source : int;
  policy : Graph.policy;
  parent : int Handles.t;  (* discovered handle -> parent; the source maps to itself *)
  mutable queue : int array;  (* discovered handles, in discovery order *)
  mutable tail : int;
  mutable head : int;  (* queue.(head ..) are discovered but not yet expanded *)
}

(* Searches by source handle. Tables rather than arrays over the
   graph: creating an oracle costs O(1), which a sub-suite served
   from cache on a large architecture should not pay per node. *)
type t = { g : Graph.t; routed : search Handles.t; direct : search Handles.t }

let create g = { g; routed = Handles.create 16; direct = Handles.create 16 }

let of_structure s = create (Graph.of_structure s)

let push s v =
  if s.tail = Array.length s.queue then begin
    let bigger = Array.make (2 * s.tail) 0 in
    Array.blit s.queue 0 bigger 0 s.tail;
    s.queue <- bigger
  end;
  s.queue.(s.tail) <- v;
  s.tail <- s.tail + 1

let search t policy source =
  let searches = match policy with Graph.Routed -> t.routed | Graph.Direct -> t.direct in
  match Handles.find_opt searches source with
  | Some s -> s
  | None ->
      let s =
        { source; policy; parent = Handles.create 8; queue = Array.make 8 0; tail = 0; head = 0 }
      in
      Handles.add s.parent source source;
      push s source;
      Handles.add searches source s;
      s

(* Expand queued nodes, each over its whole adjacency, until [target]
   is discovered or the frontier is empty. *)
let discover g s target =
  while (not (Handles.mem s.parent target)) && s.head < s.tail do
    let u = s.queue.(s.head) in
    s.head <- s.head + 1;
    if Graph.Core.may_relay s.policy g s.source u then
      Graph.Core.iter_succ g u (fun v ->
          if not (Handles.mem s.parent v) then begin
            Handles.add s.parent v u;
            push s v
          end)
  done

type query = {
  q_policy : Graph.policy;
  q_source : string;
  q_target : string;
  q_answer : string list option;
}

type recorder = { mutable log : query list (* reversed *) }

let recorder () = { log = [] }

let recorded r = List.rev r.log

let path_answer t policy source target =
  if String.equal source target then Some [ source ]
  else
    match (Graph.Core.index t.g source, Graph.Core.index t.g target) with
    | Some si, Some ti ->
        let s = search t policy si in
        discover t.g s ti;
        if not (Handles.mem s.parent ti) then None
        else begin
          let rec build acc v =
            if v = si then Graph.Core.label t.g si :: acc
            else build (Graph.Core.label t.g v :: acc) (Handles.find s.parent v)
          in
          Some (build [] ti)
        end
    | None, _ | _, None -> None

let path ?(policy = Graph.Routed) ?record t source target =
  let answer = path_answer t policy source target in
  (match record with
  | Some r ->
      r.log <- { q_policy = policy; q_source = source; q_target = target; q_answer = answer } :: r.log
  | None -> ());
  answer

let reachable ?policy ?record t source target = path ?policy ?record t source target <> None

let replay t log =
  List.for_all
    (fun q -> path_answer t q.q_policy q.q_source q.q_target = q.q_answer)
    log
