(* The traced replay: the workload's op stream (both clients' streams,
   interleaved) run in-process through the layers' public functions —
   Http parsing and serialization, the registry, sessions, loading,
   campaigns and, for the durable workloads, Persist, Ship and a
   follower registry — with a span around every call. The composition mirrors
   what Server.Api does for each route, so a span's self time is the
   time that layer spent on the op. Nothing inside lib/ is traced.

   Each response is checked like the load run's. A second, untraced
   pass over the same ops gives the tracing overhead. *)

open Workload

(* ------------------------------------------------------------------ *)
(* Spans                                                              *)
(* ------------------------------------------------------------------ *)

(* Spans are kept column-wise in unboxed arrays, so a long trace adds
   nothing for the GC to scan. *)
type tracer = {
  on : bool;
  mutable cap : int;
  mutable n : int;
  mutable name : int array;  (** index into [names] *)
  mutable start : Float.Array.t;  (** seconds, monotonic *)
  mutable stop : Float.Array.t;
  mutable parent : int array;  (** enclosing span, -1 for a root *)
  mutable op : int array;
  names : (string, int) Hashtbl.t;
  mutable name_of : string array;
  mutable current : int;
  mutable op_id : int;
}

let tracer on =
  {
    on; cap = 0; n = 0; name = [||]; start = Float.Array.create 0; stop = Float.Array.create 0;
    parent = [||]; op = [||]; names = Hashtbl.create 32; name_of = [||]; current = -1; op_id = 0;
  }

let intern tr name =
  match Hashtbl.find_opt tr.names name with
  | Some i -> i
  | None ->
      let i = Array.length tr.name_of in
      Hashtbl.add tr.names name i;
      tr.name_of <- Array.append tr.name_of [| name |];
      i

let grow tr =
  let cap = max 4096 (2 * tr.cap) in
  let ints a = Array.init cap (fun i -> if i < tr.n then a.(i) else 0) in
  let floats a = Float.Array.init cap (fun i -> if i < tr.n then Float.Array.get a i else 0.0) in
  tr.name <- ints tr.name;
  tr.parent <- ints tr.parent;
  tr.op <- ints tr.op;
  tr.start <- floats tr.start;
  tr.stop <- floats tr.stop;
  tr.cap <- cap

let name tr i = tr.name_of.(tr.name.(i))

let duration tr i = Float.Array.get tr.stop i -. Float.Array.get tr.start i

(* [with_span tr name f] runs [f] inside a span; [f] gets the span's
   index so it can rename it once the outcome is known. *)
let with_span tr name f =
  if not tr.on then f (-1)
  else begin
    if tr.n = tr.cap then grow tr;
    let id = tr.n in
    tr.n <- id + 1;
    tr.name.(id) <- intern tr name;
    tr.parent.(id) <- tr.current;
    tr.op.(id) <- tr.op_id;
    let saved = tr.current in
    tr.current <- id;
    Float.Array.set tr.start id (Samples.now ());
    let finish () =
      Float.Array.set tr.stop id (Samples.now ());
      tr.current <- saved
    in
    match f id with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let span tr name f = with_span tr name (fun _ -> f ())

let rename tr id name = if id >= 0 then tr.name.(id) <- intern tr name

(* ------------------------------------------------------------------ *)
(* In-process server state                                            *)
(* ------------------------------------------------------------------ *)

type durable = {
  persist : Server.Persist.t;
  dir : string;
  replica : Server.Registry.t;
  replica_persist : Server.Persist.t;
  mutable applied : int64;
  mutable records : int;  (** records the replica applied *)
  mutable lag_max : int;  (** covered - applied before a fetch, records *)
}

type counts = {
  mutable probes : int;  (** response-cache probes *)
  mutable hits : int;
  mutable evaluates : int;  (** Session.evaluate calls *)
  mutable walks : int;
  mutable walk_seconds : float;  (** in Session.evaluate calls that walked *)
  mutable replays : int;
  mutable replay_hits : int;
  mutable trials : int;
  mutable parsed_kb : float;
}

type env = {
  tr : tracer;
  registry : Server.Registry.t;
  durable : durable option;
  table : Oracle.table;
  etags : (dest * string, string * string) Hashtbl.t;
  c : counts;
  w : Jsonlight.Writer.t;  (** reused for evaluate and batch bodies, as Server.Api does *)
  out : Buffer.t;  (** reused for serialization, as Server.Daemon does per connection *)
  mutable failed : int;
  mutable errors : string list;
}

let registry_for env = function
  | Primary -> env.registry
  | Replica -> ( match env.durable with Some d -> d.replica | None -> env.registry)

let json_reply ?(status = 200) ?(headers = []) body =
  Server.Http.response ~headers:(("Content-Type", "application/json") :: headers) status body

let not_found sid =
  Server.Api.error_response 404 ~category:"not_found" (Printf.sprintf "no session named %S" sid)

let with_session env reg sid f =
  match span env.tr "registry.with_session" (fun () -> Server.Registry.with_session reg sid f) with
  | Ok r -> r
  | Error `Not_found -> not_found sid

let parse_body (request : Server.Http.request) =
  if request.Server.Http.body = "" then Jsonlight.Obj []
  else
    match Jsonlight.of_string request.Server.Http.body with
    | Ok j -> j
    | Error e -> failwith ("replay: bad body: " ^ e)

let str json k = Option.get (Option.bind (Jsonlight.member k json) Jsonlight.string_opt)

let json_of_architecture (a : Adl.Structure.t) =
  Jsonlight.Obj
    [
      ("id", Jsonlight.String a.Adl.Structure.arch_id);
      ("components", Jsonlight.Int (List.length a.Adl.Structure.components));
      ("connectors", Jsonlight.Int (List.length a.Adl.Structure.connectors));
      ("links", Jsonlight.Int (List.length a.Adl.Structure.links));
    ]

let counters s before =
  let after = Core.Sosae.Session.stats s in
  let d f = f after - f before in
  ( d (fun s -> s.Core.Sosae.Session.evaluations),
    d (fun s -> s.Core.Sosae.Session.cache_hits) + d (fun s -> s.Core.Sosae.Session.replay_hits) )

(* Session.evaluate, with the walk and replay counts it caused. *)
let session_evaluate env s =
  let before = Core.Sosae.Session.stats s in
  let t0 = Samples.now () in
  let result = span env.tr "session.evaluate" (fun () -> Core.Sosae.Session.evaluate s) in
  let dt = Samples.now () -. t0 in
  let after = Core.Sosae.Session.stats s in
  let d f = f after - f before in
  let walks = d (fun s -> s.Core.Sosae.Session.evaluations) in
  env.c.evaluates <- env.c.evaluates + 1;
  env.c.walks <- env.c.walks + walks;
  if walks > 0 then env.c.walk_seconds <- env.c.walk_seconds +. dt;
  env.c.replays <- env.c.replays + d (fun s -> s.Core.Sosae.Session.replays);
  env.c.replay_hits <- env.c.replay_hits + d (fun s -> s.Core.Sosae.Session.replay_hits);
  (result, before)

(* The bytes Server.Api.write_outcome writes for one evaluate outcome. *)
let write_outcome w ~key result walked served =
  Jsonlight.Writer.raw w key;
  result w;
  Jsonlight.Writer.raw w {|,"re_evaluated":|};
  Jsonlight.Writer.int w walked;
  Jsonlight.Writer.raw w {|,"served_from_cache":|};
  Jsonlight.Writer.int w served;
  Jsonlight.Writer.char w '}'

(* The session's lock is held for the cache probe, the evaluation and
   the cache store, as in Server.Api; the body is assembled after. *)
let evaluate env reg sid request =
  with_span env.tr "api.evaluate" (fun api ->
      ignore (parse_body request);
      let outcome =
        span env.tr "registry.with_session" (fun () ->
            Server.Registry.with_session reg sid (fun s ->
                let revision = Core.Sosae.Session.revision s in
                let cached =
                  span env.tr "registry.cached_response" (fun () ->
                      Server.Registry.cached_response reg sid ~session:s ~revision)
                in
                env.c.probes <- env.c.probes + 1;
                if cached <> None then env.c.hits <- env.c.hits + 1;
                let result, before = session_evaluate env s in
                let etag, body =
                  match cached with
                  | Some hit -> hit
                  | None ->
                      let body =
                        span env.tr "report.render" (fun () ->
                            Jsonlight.to_string (Walkthrough.Report.json_of_set_result result))
                      in
                      ( span env.tr "registry.cache_response" (fun () ->
                            Server.Registry.cache_response reg sid ~session:s ~revision ~body),
                        body )
                in
                let walked, served = counters s before in
                (etag, body, walked, served)))
      in
      match outcome with
      | Error `Not_found -> not_found sid
      | Ok (etag, _, _, _) when Server.Http.if_none_match_matches request ~etag ->
          rename env.tr api "api.not_modified";
          if api >= 0 then rename env.tr env.tr.parent.(api) "op.not_modified";
          Server.Http.response ~headers:[ ("ETag", etag) ] 304 ""
      | Ok (etag, body, walked, served) ->
          Jsonlight.Writer.clear env.w;
          write_outcome env.w ~key:{|{"result":|} (fun w -> Jsonlight.Writer.raw w body) walked served;
          json_reply ~headers:[ ("ETag", etag) ] (Jsonlight.Writer.contents env.w))

let batch env reg sid request =
  span env.tr "api.batch" (fun () ->
      let suites =
        match Jsonlight.member "suites" (parse_body request) with
        | Some (Jsonlight.List l) ->
            List.map
              (fun s ->
                match Jsonlight.member "scenarios" s with
                | Some (Jsonlight.List ids) -> List.filter_map Jsonlight.string_opt ids
                | _ -> [])
              l
        | _ -> []
      in
      with_session env reg sid (fun s ->
          let one ids =
            let before = Core.Sosae.Session.stats s in
            let results =
              List.map
                (fun id ->
                  Walkthrough.Report.json_of_scenario_result
                    (Option.get
                       (span env.tr "session.evaluate_scenario" (fun () ->
                            Core.Sosae.Session.evaluate_scenario s id))))
                ids
            in
            let walked, served = counters s before in
            (results, walked, served)
          in
          let outcomes = List.map one suites in
          let w = env.w in
          Jsonlight.Writer.clear w;
          Jsonlight.Writer.raw w {|{"responses":[|};
          List.iteri
            (fun i (results, walked, served) ->
              if i > 0 then Jsonlight.Writer.char w ',';
              write_outcome w ~key:{|{"results":|} (fun w -> Jsonlight.Writer.json w (Jsonlight.List results)) walked
                served)
            outcomes;
          Jsonlight.Writer.raw w "]}";
          json_reply (Jsonlight.Writer.contents w)))

let stats env reg sid =
  span env.tr "api.stats" (fun () ->
      with_session env reg sid (fun s ->
          let st = Core.Sosae.Session.stats s in
          json_reply
            (Jsonlight.to_string
               (Jsonlight.Obj
                  [
                    ("id", Jsonlight.String sid);
                    ( "stats",
                      Jsonlight.Obj
                        [
                          ("evaluations", Jsonlight.Int st.Core.Sosae.Session.evaluations);
                          ("cache_hits", Jsonlight.Int st.Core.Sosae.Session.cache_hits);
                          ("replays", Jsonlight.Int st.Core.Sosae.Session.replays);
                          ("replay_hits", Jsonlight.Int st.Core.Sosae.Session.replay_hits);
                        ] );
                    ( "architecture",
                      json_of_architecture (Core.Sosae.Session.project s).Core.Sosae.architecture );
                  ]))))

(* The diff vocabulary the workloads use: excise and rename. *)
let expand_ops s json =
  let arch = (Core.Sosae.Session.project s).Core.Sosae.architecture in
  match Jsonlight.member "ops" json with
  | Some (Jsonlight.List ops) ->
      List.concat_map
        (fun op ->
          match str op "op" with
          | "excise" ->
              List.map
                (fun (l : Adl.Structure.link) -> Adl.Diff.Remove_link l.Adl.Structure.link_id)
                (links_between arch (str op "from") (str op "to"))
          | "rename" -> [ Adl.Diff.Rename_element { old_id = str op "old_id"; new_id = str op "new_id" } ]
          | o -> failwith ("replay: diff op " ^ o))
        ops
  | _ -> []

let preview env reg sid request =
  span env.tr "api.preview" (fun () ->
      let json = parse_body request in
      with_session env reg sid (fun s ->
          let ops = expand_ops s json in
          json_reply
            (Jsonlight.to_string
               (Jsonlight.Obj
                  [
                    ("would_apply", Jsonlight.Int (List.length ops));
                    ("ops", Option.get (Server.Persist.encode_ops ops));
                  ]))))

(* journal a mutation the way Registry does: stage, then await *)
let journal env m =
  Option.iter
    (fun d ->
      let seq = span env.tr "persist.stage" (fun () -> Server.Persist.stage d.persist m) in
      span env.tr "persist.await" (fun () -> Server.Persist.await d.persist seq))
    env.durable

let create env sid request =
  span env.tr "api.create" (fun () ->
      let json = parse_body request in
      let scenarios = str json "scenarios" and architecture = str json "architecture"
      and mapping = str json "mapping" in
      let project =
        match
          span env.tr "load.parse" (fun () ->
              Core.Sosae.project_of_strings ~scenarios ~architecture ~mapping)
        with
        | Ok p -> p
        | Error e -> failwith (Core.Sosae.load_error_to_string e)
      in
      env.c.parsed_kb <-
        env.c.parsed_kb
        +. (float_of_int (String.length scenarios + String.length architecture + String.length mapping)
           /. 1024.0);
      match
        span env.tr "registry.add" (fun () ->
            Server.Registry.add env.registry ~id:sid ~config:Oracle.config
              ~source:(scenarios, architecture, mapping) project)
      with
      | Error `Conflict -> failwith "replay: conflict"
      | Ok () ->
          journal env
            (Server.Persist.Create
               { id = sid; policy = Adl.Graph.Routed; scenarios; architecture; mapping });
          json_reply ~status:201
            (Jsonlight.to_string
               (Jsonlight.Obj
                  [
                    ("id", Jsonlight.String sid);
                    ( "scenarios",
                      Jsonlight.Int (List.length project.Core.Sosae.scenarios.Scenarioml.Scen.scenarios) );
                    ("architecture", json_of_architecture project.Core.Sosae.architecture);
                  ])))

let diff env sid request =
  span env.tr "api.diff" (fun () ->
      let json = parse_body request in
      with_session env env.registry sid (fun s ->
          let ops = expand_ops s json in
          span env.tr "session.apply_diff" (fun () -> Core.Sosae.Session.apply_diff s ops);
          journal env (Server.Persist.Diff { id = sid; ops });
          json_reply
            (Jsonlight.to_string
               (Jsonlight.Obj
                  [
                    ("applied", Jsonlight.Int (List.length ops));
                    ( "architecture",
                      json_of_architecture (Core.Sosae.Session.project s).Core.Sosae.architecture );
                  ]))))

let delete env sid =
  span env.tr "api.delete" (fun () ->
      if span env.tr "registry.remove" (fun () -> Server.Registry.remove env.registry sid) then begin
        journal env (Server.Persist.Remove { id = sid });
        json_reply (Printf.sprintf {|{"deleted":%s}|} (json_string sid))
      end
      else not_found sid)

let simulate env reg sid request =
  span env.tr "api.simulate" (fun () ->
      let json = parse_body request in
      let trials = Option.get (Option.bind (Jsonlight.member "trials" json) Jsonlight.int_opt)
      and seed = Option.get (Option.bind (Jsonlight.member "seed" json) Jsonlight.int_opt) in
      with_session env reg sid (fun s ->
          let st = { base = Lazy.force pims; arch = (Core.Sosae.Session.project s).Core.Sosae.architecture; key = "" } in
          let campaign = Oracle.campaign st in
          let started = Samples.now () in
          let report =
            span env.tr "dsim.campaign" (fun () ->
                Dsim.Campaign.report ~jobs:(Server.Registry.jobs reg) ~seed ~trials campaign)
          in
          env.c.trials <- env.c.trials + trials;
          json_reply
            (Jsonlight.to_string
               (Jsonlight.Obj
                  [
                    ("trials", Jsonlight.Int trials);
                    ("seed", Jsonlight.Int seed);
                    ("report", Dsim.Stats.to_json report);
                    ("elapsed_ms", Jsonlight.Float (1000.0 *. (Samples.now () -. started)));
                  ]))))

(* State of every live session as the registry would snapshot it. *)
let state_mutations env () =
  List.filter_map
    (fun id ->
      match
        Server.Registry.with_session env.registry id (fun s ->
            let p = Core.Sosae.Session.project s in
            Server.Persist.Create
              {
                id;
                policy = Adl.Graph.Routed;
                scenarios = Scenarioml.Xml_io.set_to_string p.Core.Sosae.scenarios;
                architecture = Adl.Xml_io.to_string p.Core.Sosae.architecture;
                mapping = Mapping.Xml_io.to_string p.Core.Sosae.mapping;
              })
      with
      | Ok m -> Some m
      | Error `Not_found -> None)
    (Server.Registry.ids env.registry)

(* Off the op's blocking path, as the daemon's maintenance thread and
   the replica's apply loop do it. *)
let background env (d : durable) =
  if Server.Persist.should_compact d.persist then
    span env.tr "wal.compact" (fun () ->
        Server.Persist.compact_background d.persist ~state:(state_mutations env));
  d.lag_max <- max d.lag_max (Int64.to_int (Int64.sub (Server.Persist.covered_seq d.persist) d.applied));
  let batch = span env.tr "ship.fetch" (fun () -> Server.Persist.ship d.persist ~after:d.applied) in
  if batch.Store.Ship.data <> "" then
    span env.tr "replica.apply" (fun () ->
        match Server.Registry.apply_shipped d.replica ~reset:batch.Store.Ship.reset batch.Store.Ship.data with
        | Ok (stats, last) ->
            d.records <- d.records + stats.Server.Registry.applied + stats.Server.Registry.skipped;
            if last > d.applied then d.applied <- last
        | Error e -> failwith ("replay: apply_shipped: " ^ e))

(* Fetch and apply until the follower holds everything the primary
   covers. *)
let catch_up env d =
  let stalls = ref 0 in
  while Server.Persist.covered_seq d.persist > d.applied do
    let before = d.applied in
    background env d;
    if d.applied = before then incr stalls;
    if !stalls > 100 then
      failwith
        (Printf.sprintf "replay: follower stuck at seq %Ld, primary covers %Ld" d.applied
           (Server.Persist.covered_seq d.persist))
  done

(* The client's side of one op: the etag it sends and the request
   bytes. *)
let prepare env (req : req) =
  let etag =
    match req.op with
    | Evaluate { sid; etag = Current; _ } -> Option.map fst (Hashtbl.find_opt env.etags (req.dest, sid))
    | _ -> None
  in
  request_bytes ?etag req

let sid_of = function
  | Evaluate { sid; _ } | Batch { sid; _ } | Stats { sid; _ } | Preview { sid; _ } | Create { sid; _ }
  | Diff { sid; _ } | Delete { sid } | Simulate { sid; _ } ->
      sid

(* The server's side: parse the request bytes, run the route,
   serialize. *)
let serve env (req : req) raw =
  let request =
    span env.tr "http.parse" (fun () ->
        let p = Server.Http.parser_ () in
        Server.Http.feed p raw;
        match Server.Http.next p with `Request r -> r | _ -> failwith "replay: unparsable request")
  in
  let reg = registry_for env req.dest and sid = sid_of req.op in
  let response =
    match req.op with
    | Evaluate _ -> evaluate env reg sid request
    | Batch _ -> batch env reg sid request
    | Stats _ -> stats env reg sid
    | Preview _ -> preview env reg sid request
    | Create _ -> create env sid request
    | Diff _ -> diff env sid request
    | Delete _ -> delete env sid
    | Simulate _ -> simulate env reg sid request
  in
  let bytes =
    span env.tr "http.serialize" (fun () ->
        Buffer.clear env.out;
        Server.Http.serialize_to env.out ~request_meth:request.Server.Http.meth ~close:false response;
        Buffer.length env.out)
  in
  (response, bytes)

(* The client's check of the answer, as in the load run. *)
let check env (req : req) (response : Server.Http.response) =
  let sid = sid_of req.op in
  let cond_valid =
    match (req.op, Hashtbl.find_opt env.etags (req.dest, sid)) with
    | Evaluate { state; _ }, Some (_, k) -> k = state.key
    | _ -> false
  in
  let status = response.Server.Http.status in
  (match Oracle.check env.table req ~cond_valid ~status response.Server.Http.resp_body with
  | Ok _ -> ()
  | Error why ->
      env.failed <- env.failed + 1;
      if List.length env.errors < 5 then env.errors <- why :: env.errors);
  match (req.op, List.assoc_opt "ETag" response.Server.Http.resp_headers) with
  | Evaluate { state; _ }, Some e when status = 200 -> Hashtbl.replace env.etags (req.dest, sid) (e, state.key)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Passes                                                             *)
(* ------------------------------------------------------------------ *)

type pass = {
  env : env;
  ops : int;
  wall : float;  (** the op loop, setup excluded *)
  roots : (int * req * float * int) list;  (** span index, op, latency, response bytes *)
  recover_ms : float option;
  follower : durable option;
  ship : Store.Ship.stats option;  (** the primary's cursor cache, after the pass *)
}

let open_durable work =
  let dir = Filename.concat work "replay-primary" and rdir = Filename.concat work "replay-replica" in
  Proc.rm_rf dir;
  Proc.rm_rf rdir;
  (* group commit, as the daemon opens its journal *)
  let group = Store.Journal.Group.default in
  let persist, _ = Server.Persist.open_ ~group ~compact_bytes:Load.compact_threshold dir in
  let replica_persist, _ = Server.Persist.open_ ~group rdir in
  {
    persist;
    dir;
    replica = Server.Registry.create ~persist:replica_persist ();
    replica_persist;
    applied = 0L;
    records = 0;
    lag_max = 0;
  }

(* Run [spec]'s setup and then its op stream, until [max_ops] ops or
   [seconds] have gone by. *)
let pass (spec : spec) ~traced ~work ~max_ops ~seconds =
  let env =
    {
      tr = tracer traced;
      registry = Server.Registry.create ();
      durable = (if spec.Workload.durable then Some (open_durable work) else None);
      table = Oracle.table ();
      etags = Hashtbl.create 8;
      c = { probes = 0; hits = 0; evaluates = 0; walks = 0; walk_seconds = 0.0; replays = 0; replay_hits = 0; trials = 0; parsed_kb = 0.0 };
      w = Jsonlight.Writer.create ~size:(16 * 1024) ();
      out = Buffer.create 4096;
      failed = 0;
      errors = [];
    }
  in
  let roots = ref [] in
  let one (req : req) =
    let raw = prepare env req in
    let root = env.tr.n in
    let t0 = Samples.now () in
    let response, bytes = with_span env.tr ("op." ^ route req.op) (fun _ -> serve env req raw) in
    roots := (root, req, Samples.now () -. t0, bytes) :: !roots;
    check env req response;
    env.tr.op_id <- env.tr.op_id + 1;
    Option.iter (background env) env.durable
  in
  List.iter (fun (sid, state) -> one { op = Create { sid; state }; dest = Primary }) spec.preload;
  Option.iter (catch_up env) env.durable;
  List.iter
    (fun (dest, sid) ->
      one { op = Evaluate { sid; state = List.assoc sid spec.preload; etag = Plain }; dest })
    spec.warm;
  roots := [];
  let streams = Array.init Load.clients (spec.stream ~round:1) in
  let t0 = Samples.now () in
  let deadline = t0 +. seconds in
  let ops = ref 0 in
  while !ops < max_ops && Samples.now () < deadline do
    one (streams.(!ops mod Load.clients) ());
    incr ops
  done;
  let wall = Samples.now () -. t0 in
  let fail why =
    env.failed <- env.failed + 1;
    env.errors <- why :: env.errors
  in
  (* the follower catches up and must then serve the primary's bytes *)
  Option.iter
    (fun d ->
      catch_up env d;
      let render reg id =
        Server.Registry.with_session reg id (fun s ->
            Jsonlight.to_string (Walkthrough.Report.json_of_set_result (Core.Sosae.Session.evaluate s)))
        |> Result.to_option
      in
      let ids = Server.Registry.ids env.registry in
      if Server.Registry.ids d.replica <> ids then fail "replay: the follower's sessions differ"
      else if List.exists (fun id -> render env.registry id <> render d.replica id) ids then
        fail "replay: the follower's evaluate differs from the primary's")
    env.durable;
  let ship = Option.map (fun d -> Server.Persist.ship_stats d.persist) env.durable in
  let recover_ms =
    Option.map
      (fun d ->
        Server.Persist.close d.persist;
        Server.Persist.close d.replica_persist;
        let t0 = Samples.now () in
        let p, recovery = Server.Persist.open_ d.dir in
        let reg = Server.Registry.create () in
        ignore (Server.Registry.recover reg recovery.Server.Persist.mutations);
        let dt = 1000.0 *. (Samples.now () -. t0) in
        Server.Persist.close p;
        if Server.Registry.ids reg <> Server.Registry.ids env.registry then fail "replay: recovered sessions differ";
        dt)
      env.durable
  in
  { env; ops = !ops; wall; roots = List.rev !roots; recover_ms; follower = env.durable; ship }

(* Self time of every span: its duration minus its children's. *)
let self_times tr =
  let self = Array.init tr.n (duration tr) in
  for i = 0 to tr.n - 1 do
    let p = tr.parent.(i) in
    if p >= 0 then self.(p) <- self.(p) -. duration tr i
  done;
  self

let write_spans tr path =
  let self = self_times tr in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "id\tname\tstart_s\tend_s\tparent\top\tself_us\n";
      for i = 0 to tr.n - 1 do
        Printf.fprintf oc "%d\t%s\t%.9f\t%.9f\t%d\t%d\t%.3f\n" i (name tr i) (Float.Array.get tr.start i)
          (Float.Array.get tr.stop i) tr.parent.(i) tr.op.(i) (1e6 *. self.(i))
      done)
