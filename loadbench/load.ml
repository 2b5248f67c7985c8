(* The load run: in each of several rounds, spawn `sosae serve` (and,
   for durable-write, a durable chained replica), preload and warm it,
   and drive it from two closed-loop client threads over keep-alive
   connections; then check catch-up, outputs and crash recovery. Timings
   are taken client-side, from sending a request to reading its last
   body byte. *)

open Workload

let clients = 2

(* Low enough that the primary compacts several times per durable
   run. *)
let compact_threshold = 4 * 1024 * 1024

(* ------------------------------------------------------------------ *)
(* Recorders: one per client thread, merged after the phase           *)
(* ------------------------------------------------------------------ *)

type recorder = {
  read : Samples.t;
  write : Samples.t;
  routes : (string, Samples.t) Hashtbl.t;
  mutable ops : int;
  mutable failed : int;
  mutable verdicts : int;
  mutable sim_trials : int;
  mutable sim_seconds : float;
  mutable reconnects : int;
  mutable write_bytes : int;
  table : Oracle.table;
  etags : (dest * string, string * string) Hashtbl.t;  (** etag and the state key it was minted for *)
  model : (string, state option) Hashtbl.t;  (** acknowledged creates, diffs and deletes *)
  mutable errors : string list;
}

let recorder () =
  {
    read = Samples.create ();
    write = Samples.create ();
    routes = Hashtbl.create 8;
    ops = 0;
    failed = 0;
    verdicts = 0;
    sim_trials = 0;
    sim_seconds = 0.0;
    reconnects = 0;
    write_bytes = 0;
    table = Oracle.table ();
    etags = Hashtbl.create 8;
    model = Hashtbl.create 64;
    errors = [];
  }

let note r why =
  r.failed <- r.failed + 1;
  if List.length r.errors < 5 then r.errors <- why :: r.errors

let route_samples r label =
  match Hashtbl.find_opt r.routes label with
  | Some s -> s
  | None ->
      let s = Samples.create () in
      Hashtbl.replace r.routes label s;
      s

(* One keep-alive connection per destination, reopened after the
   daemon closes it. *)
type conn = { port : int; mutable c : Server.Client.t option }

let drop cn =
  Option.iter Server.Client.close cn.c;
  cn.c <- None

let header name (resp : Server.Client.response) = List.assoc_opt name resp.Server.Client.headers

(* Send [req], check the answer, and record its latency when it is
   correct. *)
let issue r cn req =
  let etag, cond_valid =
    match req.op with
    | Evaluate { sid; state; etag = Current } -> (
        match Hashtbl.find_opt r.etags (req.dest, sid) with
        | Some (e, k) -> (Some e, k = state.key)
        | None -> (None, false))
    | _ -> (None, false)
  in
  let meth, target, headers, body = render ?etag req in
  r.ops <- r.ops + 1;
  match
    let c =
      match cn.c with
      | Some c -> c
      | None ->
          let c = Server.Client.connect ~port:cn.port () in
          cn.c <- Some c;
          c
    in
    let t0 = Samples.now () in
    let resp = Server.Client.request c ~headers ?body meth target in
    (resp, Samples.now () -. t0)
  with
  | exception e ->
      drop cn;
      note r (route req.op ^ ": " ^ Printexc.to_string e)
  | Error e, _ ->
      drop cn;
      note r (route req.op ^ ": " ^ e)
  | Ok resp, dt ->
      let status = resp.Server.Client.status in
      (match Oracle.check r.table req ~cond_valid ~status resp.Server.Client.body with
      | Error why -> note r why
      | Ok verdicts -> (
          r.verdicts <- r.verdicts + verdicts;
          Samples.add (route_samples r (if status = 304 then "not_modified" else route req.op)) dt;
          (match (klass req.op, req.op) with
          | Read, _ -> Samples.add r.read dt
          | Write, _ ->
              Samples.add r.write dt;
              r.write_bytes <- r.write_bytes + Option.fold ~none:0 ~some:String.length body
          | Sim, Simulate { trials; _ } ->
              r.sim_trials <- r.sim_trials + trials;
              r.sim_seconds <- r.sim_seconds +. dt
          | Sim, _ -> ());
          (match (req.op, header "etag" resp) with
          | Evaluate { sid; state; _ }, Some e -> Hashtbl.replace r.etags (req.dest, sid) (e, state.key)
          | _ -> ());
          match req.op with
          | Create { sid; state } -> Hashtbl.replace r.model sid (Some state)
          | Diff { sid; after; _ } -> Hashtbl.replace r.model sid (Some after)
          | Delete { sid } -> Hashtbl.replace r.model sid None
          | _ -> ()));
      if header "connection" resp = Some "close" then begin
        drop cn;
        r.reconnects <- r.reconnects + 1
      end

(* ------------------------------------------------------------------ *)
(* Control-plane requests                                             *)
(* ------------------------------------------------------------------ *)

let get_json port path =
  let c = Server.Client.connect ~port () in
  Fun.protect
    ~finally:(fun () -> Server.Client.close c)
    (fun () ->
      match Server.Client.get c path with
      | Ok { Server.Client.status = 200; body; _ } -> (
          match Jsonlight.of_string body with Ok j -> j | Error e -> failwith (path ^ ": " ^ e))
      | Ok { Server.Client.status; _ } -> failwith (Printf.sprintf "%s answered %d" path status)
      | Error e -> failwith (path ^ ": " ^ e))

let rec field json = function
  | [] -> Some json
  | k :: rest -> Option.bind (Jsonlight.member k json) (fun j -> field j rest)

let int_field json path = Option.value ~default:0 (Option.bind (field json path) Jsonlight.int_opt)

let seq port name = int_field (get_json port "/replication") [ name ]

let wait_until ?(timeout = 60.0) what cond =
  let deadline = Samples.now () +. timeout in
  while not (cond ()) do
    if Samples.now () > deadline then failwith ("timed out waiting for " ^ what);
    Unix.sleepf 0.001
  done

let healthy port =
  match Server.Client.connect ~port () with
  | exception Unix.Unix_error _ -> false
  | c ->
      Fun.protect
        ~finally:(fun () -> Server.Client.close c)
        (fun () ->
          match Server.Client.get c "/health" with
          | Ok { Server.Client.status = 200; _ } -> true
          | Ok _ | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* The cluster                                                        *)
(* ------------------------------------------------------------------ *)

type cluster = {
  mutable primary : Proc.daemon;
  mutable replica : Proc.daemon option;
  pdir : string;
  log : string;
}

let replica_port c = match c.replica with Some r -> r.Proc.port | None -> c.primary.Proc.port

let conns c = [| { port = c.primary.Proc.port; c = None }; { port = replica_port c; c = None } |]

let conn_for cs = function Primary -> cs.(0) | Replica -> cs.(1)

let teardown c =
  Option.iter Proc.kill c.replica;
  Proc.kill c.primary;
  c.replica <- None

(* Spawn, preload, warm: everything before the first timed operation. *)
let boot spec ~work ~r =
  let log = Filename.concat work "daemon.log" in
  let pdir = Filename.concat work "primary" and rdir = Filename.concat work "replica" in
  Proc.rm_rf pdir;
  Proc.rm_rf rdir;
  let args =
    if spec.durable then
      [ "--data-dir"; pdir; "--fsync"; "always"; "--compact-threshold"; string_of_int compact_threshold ]
    else []
  in
  let primary = Proc.spawn ~log args in
  let replica =
    if spec.replica then
      Some
        (Proc.spawn ~log
           [ "--replica-of"; Printf.sprintf "127.0.0.1:%d" primary.Proc.port; "--data-dir"; rdir ])
    else None
  in
  let c = { primary; replica; pdir; log } in
  let cs = conns c in
  List.iter (fun (sid, state) -> issue r (conn_for cs Primary) { op = Create { sid; state }; dest = Primary }) spec.preload;
  Option.iter
    (fun (rep : Proc.daemon) ->
      let covered = seq primary.Proc.port "covered_seq" in
      wait_until "replica bootstrap" (fun () -> seq rep.Proc.port "applied_seq" >= covered))
    replica;
  List.iter
    (fun (dest, sid) ->
      let state = List.assoc sid spec.preload in
      issue r (conn_for cs dest) { op = Evaluate { sid; state; etag = Plain }; dest })
    spec.warm;
  Array.iter drop cs;
  c

(* ------------------------------------------------------------------ *)
(* The run                                                            *)
(* ------------------------------------------------------------------ *)

type outcome = {
  wall : float;  (** summed over the rounds *)
  phase : recorder;  (** every round's and client's samples and counts *)
  attempted : int;
  failed : int;
  errors : string list;
  setup_s : float list;  (** one per round *)
  recovery_s : float list;
  catchup_s : float option;
  data_dir_mb : float option;
  rss_mb : float;  (** median over the rounds *)
  cpu_s : float;  (** daemon CPU during the timed phases *)
  cpu_per_op : float list;  (** per round: daemon CPU seconds / completed ops *)
  snapshots : (string * Jsonlight.t) list list;
      (** per round: /metrics, /replication and stats before and after *)
}

let merge_into total r =
  Samples.append ~into:total.read r.read;
  Samples.append ~into:total.write r.write;
  Hashtbl.iter (fun label s -> Samples.append ~into:(route_samples total label) s) r.routes;
  total.ops <- total.ops + r.ops;
  total.failed <- total.failed + r.failed + Oracle.merge ~dst:total.table r.table;
  total.verdicts <- total.verdicts + r.verdicts;
  total.sim_trials <- total.sim_trials + r.sim_trials;
  total.sim_seconds <- total.sim_seconds +. r.sim_seconds;
  total.reconnects <- total.reconnects + r.reconnects;
  total.write_bytes <- total.write_bytes + r.write_bytes;
  total.errors <- r.errors @ total.errors;
  Hashtbl.iter (fun k v -> Hashtbl.replace total.model k v) r.model

(* The sessions the daemon must hold: the preload, then every
   acknowledged create, diff and delete (clients own disjoint ids). *)
let live spec (clients : recorder array) =
  let m = Hashtbl.create 64 in
  List.iter (fun (sid, st) -> Hashtbl.replace m sid (Some st)) spec.preload;
  Array.iter (fun r -> Hashtbl.iter (Hashtbl.replace m) r.model) clients;
  Hashtbl.fold (fun sid st acc -> match st with Some st -> (sid, st) :: acc | None -> acc) m []
  |> List.sort compare

let snapshot c ~label spec =
  let p = c.primary.Proc.port in
  [ (label ^ ".metrics", get_json p "/metrics") ]
  @ (if spec.durable then
       [ (label ^ ".replication", get_json p "/replication") ]
       @ Option.fold ~none:[]
           ~some:(fun (r : Proc.daemon) ->
             [
               (label ^ ".replica.metrics", get_json r.Proc.port "/metrics");
               (label ^ ".replica.replication", get_json r.Proc.port "/replication");
             ])
           c.replica
     else [])
  @ List.map (fun (sid, _) -> (label ^ ".stats." ^ sid, get_json p ("/sessions/" ^ sid ^ "/stats"))) spec.preload

let daemons c = c.primary :: Option.to_list c.replica

(* The timed phase is split into rounds, each against a freshly set-up
   cluster: a daemon's thread placement and heap settle into a regime
   that holds for its lifetime and differs from one process to the next
   by tens of percent on a shared two-core host, so every run samples
   several regimes and pools their samples. Each round draws fresh op
   streams from the seed. *)
let rounds = 10

let daemon_cpu c = List.fold_left (fun s d -> s +. Proc.cpu_seconds d) 0.0 (daemons c)

let run spec ~seconds ~work =
  let aux = recorder () and phase = recorder () in
  let setup_s = ref [] and rss = ref [] and cpu_s = ref 0.0 and cpu_per_op = ref [] and wall = ref 0.0 in
  let snapshots = ref [] and last = ref None in
  for round = 1 to rounds do
    let t0 = Samples.now () in
    let c = boot spec ~work ~r:aux in
    setup_s := (Samples.now () -. t0) :: !setup_s;
    let before = snapshot c ~label:"before" spec in
    let cpu0 = daemon_cpu c in
    let recs =
      Array.init clients (fun _ ->
          let r = recorder () in
          Hashtbl.iter (Hashtbl.replace r.etags) aux.etags;
          r)
    in
    let t0 = Samples.now () in
    let deadline = t0 +. (seconds /. float_of_int rounds) in
    let threads =
      Array.mapi
        (fun i r ->
          Thread.create
            (fun () ->
              let next = spec.stream ~round i and cs = conns c in
              while Samples.now () < deadline do
                let req = next () in
                issue r (conn_for cs req.dest) req
              done;
              Array.iter drop cs)
            ())
        recs
    in
    Array.iter Thread.join threads;
    wall := !wall +. (Samples.now () -. t0);
    let cpu = daemon_cpu c -. cpu0 in
    let completed = Array.fold_left (fun n r -> n + r.ops - r.failed) 0 recs in
    cpu_s := !cpu_s +. cpu;
    cpu_per_op := (cpu /. float_of_int (max 1 completed)) :: !cpu_per_op;
    snapshots := (before @ snapshot c ~label:"after" spec) :: !snapshots;
    rss := List.fold_left (fun s d -> s +. Proc.peak_rss_mb d) 0.0 (daemons c) :: !rss;
    Array.iter (merge_into phase) recs;
    if round < rounds then teardown c else last := Some (c, recs)
  done;
  let c, recs = Option.get !last in
  let check = recorder () in
  let live = live spec recs in
  (* durable-write: replica catch-up, then replica = primary *)
  let catchup_s =
    Option.map
      (fun (rep : Proc.daemon) ->
        let t0 = Samples.now () in
        let covered = seq c.primary.Proc.port "covered_seq" in
        (try wait_until ~timeout:30.0 "replica catch-up" (fun () -> seq rep.Proc.port "applied_seq" >= covered)
         with Failure _ ->
           let applied = seq rep.Proc.port "applied_seq" in
           let shipped =
             Server.Client.(
               let cl = connect ~port:c.primary.Proc.port () in
               let r = get cl (Printf.sprintf "/replication/log?after=%d" applied) in
               close cl;
               match r with Ok r -> String.length r.body | Error _ -> -1)
           in
           let why =
             Option.fold ~none:"none" ~some:Jsonlight.to_string
               (field (get_json rep.Proc.port "/replication") [ "last_error" ])
           in
           note check
             (Printf.sprintf
                "replica stuck at applied seq %d, primary covered %d; the primary ships %d bytes after %d; replica last_error: %s"
                applied covered shipped applied why));
        let dt = Samples.now () -. t0 in
        let cs = conns c in
        List.iter
          (fun (sid, state) ->
            List.iter
              (fun dest -> issue check (conn_for cs dest) { op = Evaluate { sid; state; etag = Plain }; dest })
              [ Primary; Replica ])
          live;
        Array.iter drop cs;
        dt)
      c.replica
  in
  let data_dir_mb =
    if spec.durable then Some (float_of_int (Proc.du c.pdir) /. 1048576.0) else None
  in
  Option.iter Proc.stop c.replica;
  c.replica <- None;
  (* durable workloads: SIGKILL and restart on the same data directory;
     the primary must come back with every acknowledged mutation *)
  let recovery_s =
    List.init (if spec.durable then 3 else 0) (fun _ ->
        Proc.kill c.primary;
        let t0 = Samples.now () in
        let p = Proc.spawn ~log:c.log c.primary.Proc.args in
        wait_until ~timeout:30.0 "recovery" (fun () -> healthy p.Proc.port);
        let dt = Samples.now () -. t0 in
        c.primary <- p;
        check.ops <- check.ops + 1;
        let ids =
          match field (get_json p.Proc.port "/sessions") [ "sessions" ] with
          | Some (Jsonlight.List l) ->
              List.filter_map (fun s -> Option.bind (Jsonlight.member "id" s) Jsonlight.string_opt) l
          | _ -> []
        in
        let ids = List.sort compare ids and want = List.map fst live in
        if ids <> want then
          note check
            (Printf.sprintf "recovered session set differs: lost [%s], extra [%s]"
               (String.concat " " (List.filter (fun i -> not (List.mem i ids)) want))
               (String.concat " " (List.filter (fun i -> not (List.mem i want)) ids)));
        let cn = { port = p.Proc.port; c = None } in
        List.iter
          (fun (sid, state) -> issue check cn { op = Evaluate { sid; state; etag = Plain }; dest = Primary })
          live;
        drop cn;
        dt)
  in
  Proc.stop c.primary;
  merge_into aux check;
  let conflicts = Oracle.merge ~dst:phase.table aux.table in
  let wrong, keys = Oracle.verify phase.table in
  {
    wall = !wall;
    phase;
    attempted = phase.ops + aux.ops;
    failed = phase.failed + aux.failed + conflicts + wrong;
    errors = List.map (fun k -> "differs from the library: " ^ k) keys @ phase.errors @ aux.errors;
    setup_s = !setup_s;
    recovery_s;
    catchup_s;
    data_dir_mb;
    rss_mb = Samples.median_of !rss;
    cpu_s = !cpu_s;
    cpu_per_op = !cpu_per_op;
    snapshots = !snapshots;
  }
