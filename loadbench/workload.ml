(* The benchmark's inputs: the projects a client sends (as XML), the
   architecture edits it makes, and one seeded operation stream per
   client and workload. Everything here is a pure function of the
   workload name, the seed and the client index, so the load run and
   the in-process replay see the same operations. *)

type base = {
  name : string;
  project : Core.Sosae.project;  (** parsed back from [xml], as the daemon sees it *)
  xml : string * string * string;  (** scenarios, architecture, mapping *)
  create_tail : string;
      (** the JSON of a create body after its ["id"] field; shared by
          every create of this base *)
  scenario_ids : string array;
}

let json_string s = Jsonlight.to_string (Jsonlight.String s)

let base_of_project name (p : Core.Sosae.project) =
  let scenarios = Scenarioml.Xml_io.set_to_string p.Core.Sosae.scenarios
  and architecture = Adl.Xml_io.to_string p.Core.Sosae.architecture
  and mapping = Mapping.Xml_io.to_string p.Core.Sosae.mapping in
  let project =
    match Core.Sosae.project_of_strings ~scenarios ~architecture ~mapping with
    | Ok p -> p
    | Error e -> failwith (name ^ ": " ^ Core.Sosae.load_error_to_string e)
  in
  {
    name;
    project;
    xml = (scenarios, architecture, mapping);
    create_tail =
      Printf.sprintf {|,"scenarios":%s,"architecture":%s,"mapping":%s}|}
        (json_string scenarios) (json_string architecture) (json_string mapping);
    scenario_ids =
      Array.of_list
        (List.map
           (fun s -> s.Scenarioml.Scen.scenario_id)
           project.Core.Sosae.scenarios.Scenarioml.Scen.scenarios);
  }

(* A chain of [components] in a line, walked by components/8 scenarios
   that each cover 12 consecutive components, spread evenly: an edit
   in the middle dirties only the scenarios that cross it. *)
let chain_project components =
  let scenarios = max 1 (components / 8) and span = min 12 components in
  let name i = Printf.sprintf "c%d" i and ev i = Printf.sprintf "e%d" i in
  let all = List.init components Fun.id in
  let ontology =
    List.fold_left
      (fun o i ->
        Ontology.Build.add_event_type ~id:(ev i) ~name:(ev i)
          ~template:(Printf.sprintf "step %d happens" i) o)
      (Ontology.Build.create ~id:"chain" ~name:"Chain")
      all
  in
  let architecture =
    List.fold_left
      (fun t i -> Adl.Build.biconnect t (name i) (name (i + 1)))
      (List.fold_left
         (fun t i ->
           Adl.Build.add_component ~id:(name i) ~name:(name i)
             ~responsibilities:[ "r" ] t)
         (Adl.Build.create ~id:"chain-arch" ~name:"Chain" ())
         all)
      (List.init (components - 1) Fun.id)
  in
  let mapping =
    List.fold_left
      (fun m i -> Mapping.Build.map ~event_type:(ev i) ~to_:[ name i ] m)
      (Mapping.Build.create ~id:"chain-map" ~ontology ~architecture)
      all
  in
  let scenario k =
    let start =
      if scenarios = 1 then 0 else k * (components - span) / (scenarios - 1)
    in
    Scenarioml.Scen.scenario
      ~id:(Printf.sprintf "seg%d" k)
      ~name:(Printf.sprintf "Walk %d..%d" start (start + span - 1))
      (List.init span (fun i ->
           Scenarioml.Event.typed
             ~id:(Printf.sprintf "s%d-%d" k i)
             ~event_type:(ev (start + i))
             []))
  in
  {
    Core.Sosae.scenarios =
      Scenarioml.Scen.make_set ~id:"chain-set" ~name:"Chain" ontology
        (List.init scenarios scenario);
    architecture;
    mapping;
  }

let pims =
  lazy
    (base_of_project "pims"
       {
         Core.Sosae.scenarios = Casestudies.Pims.scenario_set;
         architecture = Casestudies.Pims.architecture;
         mapping = Casestudies.Pims.mapping;
       })

let crash =
  lazy
    (base_of_project "crash"
       {
         Core.Sosae.scenarios = Casestudies.Crash.entity_scenario_set;
         architecture = Casestudies.Crash.entity_architecture;
         mapping = Casestudies.Crash.entity_mapping;
       })

let chains = Hashtbl.create 8

let chain components =
  match Hashtbl.find_opt chains components with
  | Some b -> b
  | None ->
      let b =
        base_of_project (Printf.sprintf "chain%d" components)
          (chain_project components)
      in
      Hashtbl.replace chains components b;
      b

(* ------------------------------------------------------------------ *)
(* Architecture edits and session states                              *)
(* ------------------------------------------------------------------ *)

type edit = Excise of string * string | Rename of string * string

let edit_json = function
  | Excise (a, b) -> Printf.sprintf {|{"op":"excise","from":%s,"to":%s}|} (json_string a) (json_string b)
  | Rename (o, n) ->
      Printf.sprintf {|{"op":"rename","old_id":%s,"new_id":%s}|} (json_string o) (json_string n)

let edit_key = function
  | Excise (a, b) -> "x:" ^ a ^ ":" ^ b
  | Rename (o, n) -> "r:" ^ o ^ ":" ^ n

let links_between (arch : Adl.Structure.t) a b =
  List.filter
    (fun (l : Adl.Structure.link) ->
      let f = l.Adl.Structure.link_from.Adl.Structure.anchor
      and t = l.Adl.Structure.link_to.Adl.Structure.anchor in
      (f = a && t = b) || (f = b && t = a))
    arch.Adl.Structure.links

(* The distinct unordered anchor pairs joined by at least one link. *)
let linked_pairs (arch : Adl.Structure.t) =
  List.sort_uniq compare
    (List.map
       (fun (l : Adl.Structure.link) ->
         let f = l.Adl.Structure.link_from.Adl.Structure.anchor
         and t = l.Adl.Structure.link_to.Adl.Structure.anchor in
         if f < t then (f, t) else (t, f))
       arch.Adl.Structure.links)

(* A session's architecture as the client expects it: a base plus the
   edits applied so far. [key] names the state in the output checks. *)
type state = { base : base; arch : Adl.Structure.t; key : string }

let initial base = { base; arch = base.project.Core.Sosae.architecture; key = base.name }

let apply_edit st e =
  let arch =
    match e with
    | Excise (a, b) -> Adl.Diff.excise_link_between st.arch a b
    | Rename (o, n) -> Adl.Diff.apply st.arch (Adl.Diff.Rename_element { old_id = o; new_id = n })
  in
  { st with arch; key = st.key ^ "/" ^ edit_key e }

(* ops the daemon reports as applied for one edit *)
let applied st = function
  | Excise (a, b) -> List.length (links_between st.arch a b)
  | Rename _ -> 1

(* ------------------------------------------------------------------ *)
(* Operations                                                         *)
(* ------------------------------------------------------------------ *)

type dest = Primary | Replica

type etag_mode = Plain | Current | Stale

type op =
  | Evaluate of { sid : string; state : state; etag : etag_mode }
  | Batch of { sid : string; state : state; suites : string list list }
  | Stats of { sid : string; state : state }
  | Preview of { sid : string; state : state; from_ : string; to_ : string }
  | Create of { sid : string; state : state }
  | Diff of { sid : string; before : state; edit : edit; after : state }
  | Delete of { sid : string }
  | Simulate of { sid : string; state : state; seed : int; trials : int }

type req = { op : op; dest : dest }

type klass = Read | Write | Sim

let klass = function
  | Evaluate _ | Batch _ | Stats _ | Preview _ -> Read
  | Create _ | Diff _ | Delete _ -> Write
  | Simulate _ -> Sim

let route = function
  | Evaluate _ -> "evaluate"
  | Batch _ -> "batch"
  | Stats _ -> "stats"
  | Preview _ -> "preview"
  | Create _ -> "create"
  | Diff _ -> "diff"
  | Delete _ -> "delete"
  | Simulate _ -> "simulate"

(* The PIMS price-feed campaign of Casestudies.Campaigns as a request:
   behavior, stimuli, goal and fault window. *)
let behavior_xml =
  lazy
    (Statechart.Bundle.to_string
       (Statechart.Bundle.make ~id:"price-feed" Casestudies.Campaigns.price_feed_charts))

let simulate_body ~seed ~trials =
  Printf.sprintf
    {|{"behavior":%s,"stimuli":[{"component":"master-controller","trigger":"user-initiates"}],"goal":{"component":"remote-price-db","payload":"fetch-prices"},"faults":[{"kind":"crash","node":"remote-price-db","at":{"lo":0,"hi":3},"downtime":{"lo":1,"hi":5}}],"trials":%d,"seed":%d,"horizon":10,"jitter":0.25,"loss":0.05}|}
    (json_string (Lazy.force behavior_xml)) trials seed

(* The components the campaign's charts, goal and faults name; renames
   leave them alone so every simulate stays well-formed. *)
let campaign_components = [ "master-controller"; "loader"; "remote-price-db" ]

let stale_etag = {|"r0-stale-0"|}

(* [etag] is the If-None-Match value for [Current] (the client's last
   etag for that session, if any). *)
let render ?etag req =
  let sessions sid rest = "/sessions/" ^ sid ^ rest in
  match req.op with
  | Evaluate { sid; etag = mode; _ } ->
      let headers =
        match (mode, etag) with
        | Current, Some e -> [ ("If-None-Match", e) ]
        | Stale, _ -> [ ("If-None-Match", stale_etag) ]
        | Plain, _ | Current, None -> []
      in
      (Server.Http.POST, sessions sid "/evaluate", headers, Some "{}")
  | Batch { sid; suites; _ } ->
      let suite ids =
        Printf.sprintf {|{"scenarios":[%s]}|} (String.concat "," (List.map json_string ids))
      in
      ( Server.Http.POST,
        sessions sid "/evaluate/batch",
        [],
        Some (Printf.sprintf {|{"suites":[%s]}|} (String.concat "," (List.map suite suites))) )
  | Stats { sid; _ } -> (Server.Http.GET, sessions sid "/stats", [], None)
  | Preview { sid; from_; to_; _ } ->
      ( Server.Http.POST,
        sessions sid "/diff/preview",
        [],
        Some (Printf.sprintf {|{"ops":[%s]}|} (edit_json (Excise (from_, to_)))) )
  | Create { sid; state } ->
      ( Server.Http.POST,
        "/sessions",
        [],
        Some ({|{"id":|} ^ json_string sid ^ state.base.create_tail) )
  | Diff { sid; edit; _ } ->
      (Server.Http.POST, sessions sid "/diff", [], Some (Printf.sprintf {|{"ops":[%s]}|} (edit_json edit)))
  | Delete { sid } -> (Server.Http.DELETE, sessions sid "", [], None)
  | Simulate { sid; seed; trials; _ } ->
      (Server.Http.POST, sessions sid "/simulate", [], Some (simulate_body ~seed ~trials))

(* The request as bytes on the wire. *)
let request_bytes ?etag req =
  let meth, target, headers, body = render ?etag req in
  let b = Buffer.create (256 + Option.fold ~none:0 ~some:String.length body) in
  Printf.bprintf b "%s %s HTTP/1.1\r\nHost: localhost\r\n" (Server.Http.meth_to_string meth) target;
  List.iter (fun (k, v) -> Printf.bprintf b "%s: %s\r\n" k v) headers;
  Option.iter (fun s -> Printf.bprintf b "Content-Length: %d\r\n" (String.length s)) body;
  Buffer.add_string b "\r\n";
  Option.iter (Buffer.add_string b) body;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Workloads                                                          *)
(* ------------------------------------------------------------------ *)

type spec = {
  durable : bool;  (** the primary journals, with fsync always *)
  replica : bool;  (** plus a durable chained replica daemon serving the reads *)
  preload : (string * state) list;  (** sessions created before timing *)
  warm : (dest * string) list;  (** full evaluates that warm the caches *)
  stream : round:int -> int -> unit -> req;
      (** [stream ~round client] yields that client's ops in one round of
          the run, against a freshly set-up daemon *)
}

let names = [ "warm-read"; "edit-evaluate"; "durable-primary"; "durable-write" ]

let pick rng a = a.(Random.State.int rng (Array.length a))

let client_rng ?(round = 0) seed client = Random.State.make [| seed; client; round; 0x5eed |]

(* warm-read: three warm sessions of very different response sizes;
   60% full-body evaluate, 20% conditional (18% 304s, 2% with a stale
   etag that must get a 200), 10% batches of 8 two-scenario suites and
   10% stats or diff previews. No writes. *)
let warm_read seed =
  let sessions =
    [| ("pims", initial (Lazy.force pims)); ("crash", initial (Lazy.force crash));
       ("chain", initial (chain 1024)) |]
  in
  (* small pools, so the distinct bodies the checks must recompute stay
     few *)
  let batches =
    let rng = client_rng seed (-1) in
    Array.map
      (fun (_, st) ->
        Array.init 8 (fun _ -> List.init 8 (fun _ -> List.init 2 (fun _ -> pick rng st.base.scenario_ids))))
      sessions
  in
  let stream ~round client =
    let rng = client_rng ~round seed client in
    let pairs = Array.map (fun (_, st) -> Array.of_list (linked_pairs st.arch)) sessions in
    fun () ->
      let i = Random.State.int rng (Array.length sessions) in
      let sid, state = sessions.(i) in
      let r = Random.State.float rng 1.0 in
      let op =
        if r < 0.60 then Evaluate { sid; state; etag = Plain }
        else if r < 0.78 then Evaluate { sid; state; etag = Current }
        else if r < 0.80 then Evaluate { sid; state; etag = Stale }
        else if r < 0.90 then Batch { sid; state; suites = pick rng batches.(i) }
        else if r < 0.95 then Stats { sid; state }
        else
          let from_, to_ = pick rng pairs.(i) in
          Preview { sid; state; from_; to_ }
      in
      { op; dest = Primary }
  in
  {
    durable = false;
    replica = false;
    preload = Array.to_list sessions;
    warm = Array.to_list (Array.map (fun (sid, _) -> (Primary, sid)) sessions);
    stream;
  }

(* One design iteration: a base and the edits its K rounds make. *)
type script = { states : state array; edits : edit array; trials : int }

(* Rounds: excise a linked pair, rename a component, rename it back —
   targets drawn from [rng]. *)
let make_script rng base =
  let renamable =
    Array.of_list
      (List.filter_map
         (fun (c : Adl.Structure.component) ->
           if List.mem c.Adl.Structure.comp_id campaign_components then None
           else Some c.Adl.Structure.comp_id)
         base.project.Core.Sosae.architecture.Adl.Structure.components)
  in
  let st0 = initial base in
  let a, b = pick rng (Array.of_list (linked_pairs st0.arch)) in
  let o = pick rng renamable in
  let edits = [| Excise (a, b); Rename (o, o ^ "-v2"); Rename (o ^ "-v2", o) |] in
  let states = Array.make (Array.length edits + 1) st0 in
  Array.iteri (fun k e -> states.(k + 1) <- apply_edit states.(k) e) edits;
  { states; edits; trials = (if base.name = "pims" then 150 else 0) }

(* edit-evaluate: design iterations from a pool of 16 scripts — 10 on
   PIMS, 6 on chains of 64 to 1024 components: create from inline XML,
   cold evaluate, three rounds of diff + evaluate, delete. PIMS
   iterations follow every evaluate with a simulate campaign (about a
   fifth of the ops). Each client keeps four iterations open and takes
   their ops in turn, so heavy and light ops interleave evenly over a
   run. The pool's make-up is fixed and each client walks it in a fresh
   seeded order per pass: the seed moves edit targets, campaign seeds
   and order, not the cost mix. PIMS is the majority so that the read
   and write medians fall inside one population, not between two. *)
let edit_evaluate seed =
  let pool =
    let rng = client_rng seed (-1) in
    Array.init 16 (fun k ->
        make_script rng
          (if k < 10 then Lazy.force pims else chain [| 64; 128; 256; 512; 1024; 1024 |].(k - 10)))
  in
  let stream ~round client =
    let rng = client_rng ~round seed client in
    let order = ref [||] and pos = ref 0 and iteration = ref 0 in
    let next_script () =
      if !pos = Array.length !order then begin
        let a = Array.init (Array.length pool) Fun.id in
        for i = Array.length a - 1 downto 1 do
          let j = Random.State.int rng (i + 1) in
          let t = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- t
        done;
        order := a;
        pos := 0
      end;
      incr pos;
      !order.(!pos - 1)
    in
    let iteration_ops () =
      let si = next_script () in
      let s = pool.(si) in
      let sid = Printf.sprintf "edit%d-%d" client !iteration in
      incr iteration;
      let evaluate k =
        Evaluate { sid; state = s.states.(k); etag = Plain }
        :: (if s.trials > 0 then [ Simulate { sid; state = s.states.(k); seed = (si * 8) + k; trials = s.trials } ]
            else [])
      in
      let rounds =
        List.concat
          (List.mapi
             (fun k e -> Diff { sid; before = s.states.(k); edit = e; after = s.states.(k + 1) } :: evaluate (k + 1))
             (Array.to_list s.edits))
      in
      Queue.of_seq (List.to_seq ((Create { sid; state = s.states.(0) } :: evaluate 0) @ rounds @ [ Delete { sid } ]))
    in
    let slots = Array.init 4 (fun _ -> iteration_ops ()) and turn = ref 0 in
    fun () ->
      let i = !turn in
      turn := (i + 1) mod Array.length slots;
      if Queue.is_empty slots.(i) then slots.(i) <- iteration_ops ();
      { op = Queue.pop slots.(i); dest = Primary }
  in
  { durable = false; replica = false; preload = []; warm = []; stream }

(* durable-primary and durable-write: ~80% writes to a journaling
   primary — rename toggles on four PIMS sessions per client, plus
   create/delete of ~39 KB scratch sessions — and ~20% warm evaluates,
   which durable-write reads from its replica. *)
let durable ~replica seed =
  let reads = if replica then Replica else Primary in
  let pims = Lazy.force pims in
  let readers = [| ("ro-pims", initial pims); ("ro-chain", initial (chain 256)) |] in
  let writers client = Array.init 4 (fun k -> Printf.sprintf "rw%d-%d" client k) in
  let renamable =
    Array.of_list
      (List.filter
         (fun id -> not (List.mem id campaign_components))
         (List.map
            (fun (c : Adl.Structure.component) -> c.Adl.Structure.comp_id)
            pims.project.Core.Sosae.architecture.Adl.Structure.components))
  in
  let stream ~round client =
    let rng = client_rng ~round seed client in
    let sids = writers client in
    (* each writer session toggles one component's name *)
    let toggles =
      Array.map
        (fun _ ->
          let o = pick rng renamable in
          let st = initial pims in
          let e = Rename (o, o ^ "-v2") in
          (st, e, apply_edit st e, Rename (o ^ "-v2", o)))
        sids
    in
    let renamed = Array.make (Array.length sids) false in
    let scratch = ref None and n = ref 0 in
    fun () ->
      let r = Random.State.float rng 1.0 in
      if r < 0.2 then
        let sid, state = pick rng readers in
        { op = Evaluate { sid; state; etag = Plain }; dest = reads }
      else if r < 0.88 then begin
        let k = Random.State.int rng (Array.length sids) in
        let plain, forward, renamed_st, back = toggles.(k) in
        let before, edit, after =
          if renamed.(k) then (renamed_st, back, plain) else (plain, forward, renamed_st)
        in
        renamed.(k) <- not renamed.(k);
        { op = Diff { sid = sids.(k); before; edit; after }; dest = Primary }
      end
      else
        match !scratch with
        | Some sid ->
            scratch := None;
            { op = Delete { sid }; dest = Primary }
        | None ->
            let sid = Printf.sprintf "s%d-%d" client !n in
            incr n;
            scratch := Some sid;
            { op = Create { sid; state = initial pims }; dest = Primary }
  in
  let preload =
    Array.to_list readers
    @ List.concat_map
        (fun c -> Array.to_list (Array.map (fun sid -> (sid, initial pims)) (writers c)))
        [ 0; 1 ]
  in
  {
    durable = true;
    replica;
    preload;
    warm = Array.to_list (Array.map (fun (sid, _) -> (reads, sid)) readers);
    stream;
  }

let spec ~workload ~seed =
  match workload with
  | "warm-read" -> warm_read seed
  | "edit-evaluate" -> edit_evaluate seed
  | "durable-primary" -> durable ~replica:false seed
  | "durable-write" -> durable ~replica:true seed
  | w -> invalid_arg ("unknown workload " ^ w)
