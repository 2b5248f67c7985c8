(* loadbench: the repository's benchmark.

     loadbench --workload NAME --seed N --seconds S --trace 0|1

   Run from the repository root after building (run.sh does both). It
   prints every metric by name with its unit, then, as the last line,
   one JSON object: {"correct", "attempted", "failed", "metrics"} —
   the end-to-end metrics with --trace 0, the per-layer ones with
   --trace 1. It exits 1 when any output check failed. NOTES.md says
   why each workload exists and what each metric should move. *)

let usage () =
  prerr_endline
    ("usage: loadbench --workload " ^ String.concat "|" Workload.names
   ^ " --seed N --seconds S --trace 0|1");
  exit 2

let args () =
  let a = Array.to_list Sys.argv |> List.tl in
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] a in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "workload" in
  if not (List.mem workload Workload.names) then usage ();
  let seconds = int "seconds" and trace = int "trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  (workload, int "seed", float_of_int seconds, trace = 1)

(* ------------------------------------------------------------------ *)
(* Provenance                                                         *)
(* ------------------------------------------------------------------ *)

let command_line cmd =
  match Unix.open_process_in (cmd ^ " 2>/dev/null") with
  | ic ->
      let line = try String.trim (input_line ic) with End_of_file -> "" in
      ignore (Unix.close_process_in ic);
      if line = "" then None else Some line

(* A digest of the program's sources, for checkouts without git. *)
let source_digest () =
  let rec files dir =
    match Sys.readdir dir with
    | entries ->
        Array.to_list entries |> List.sort compare
        |> List.concat_map (fun f ->
               let p = Filename.concat dir f in
               if Sys.is_directory p then files p else [ p ])
    | exception Sys_error _ -> []
  in
  Digest.to_hex
    (Digest.string
       (String.concat "" (List.map (fun f -> f ^ Digest.to_hex (Digest.file f)) (files "lib" @ files "bin"))))

(* ------------------------------------------------------------------ *)
(* Metrics                                                            *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string; base : string }

let m ?(base = "") name value unit_ = { name; value; unit_; base }

let ms s q = 1000.0 *. Samples.quantile s q

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* A /metrics counter's growth during the timed phases, summed over the
   rounds. *)
let delta (o : Load.outcome) path =
  List.fold_left
    (fun acc snaps ->
      let v label = Option.fold ~none:0 ~some:(fun j -> Load.int_field j path) (List.assoc_opt label snaps) in
      acc + v "after.metrics" - v "before.metrics")
    0 o.Load.snapshots

let end_to_end (o : Load.outcome) =
  let ph = o.Load.phase in
  let done_ = ph.Load.ops - ph.Load.failed in
  let n s = Printf.sprintf "n=%d" (Samples.count s) in
  [
    m "ops_per_s" (float_of_int done_ /. o.Load.wall) "1/s"
      ~base:(Printf.sprintf "%d ops in %.3f s" done_ o.Load.wall);
    m "read_p50_ms" (ms ph.Load.read 0.5) "ms" ~base:(n ph.Load.read);
    m "read_p99_ms" (ms ph.Load.read 0.99) "ms" ~base:(n ph.Load.read);
    m "write_p50_ms" (ms ph.Load.write 0.5) "ms" ~base:(n ph.Load.write);
    m "write_p99_ms" (ms ph.Load.write 0.99) "ms" ~base:(n ph.Load.write);
    m "verdicts_per_s" (float_of_int ph.Load.verdicts /. o.Load.wall) "1/s"
      ~base:(Printf.sprintf "%d verdicts" ph.Load.verdicts);
    m "setup_s" (Samples.median_of o.Load.setup_s) "s"
      ~base:(Printf.sprintf "median of %d set-ups, one per round" (List.length o.Load.setup_s));
    m "server_cpu_us_per_op" (1e6 *. Samples.median_of o.Load.cpu_per_op) "us"
      ~base:
        (Printf.sprintf "median over %d rounds of utime+stime / completed ops; pooled %.2f s / %d ops"
           (List.length o.Load.cpu_per_op) o.Load.cpu_s done_);
    m "server_rss_mb" o.Load.rss_mb "MB" ~base:"VmHWM summed over the daemons, median over the rounds";
  ]

(* Metrics that apply to some workloads only. sim_trials_per_s is
   listed in BENCHMARK.json with the per-layer metrics, which have no
   bound, and reads 0 over a base of 0 trials where no campaign runs;
   the others are printed by the durable workloads only. *)
let workload_specific (o : Load.outcome) =
  let ph = o.Load.phase in
  [
    m "sim_trials_per_s"
      (if ph.Load.sim_seconds > 0.0 then float_of_int ph.Load.sim_trials /. ph.Load.sim_seconds else 0.0)
      "1/s"
      ~base:(Printf.sprintf "%d trials in %.3f s of simulate requests" ph.Load.sim_trials ph.Load.sim_seconds);
  ]
  @ (match o.Load.catchup_s with Some s -> [ m "replica_catchup_s" s "s" ] | None -> [])
  @
  match o.Load.data_dir_mb with
  | None -> []
  | Some mb ->
      [
        m "recovery_s" (Samples.median_of o.Load.recovery_s) "s"
          ~base:(Printf.sprintf "median of %d SIGKILL restarts" (List.length o.Load.recovery_s));
        m "data_dir_mb" mb "MB" ~base:"the primary's, after the run";
      ]

let per_layer spec (o : Load.outcome) (untraced : Replay.pass) (traced : Replay.pass) =
  let tr = traced.Replay.env.Replay.tr in
  let by_name = Hashtbl.create 32 in
  for i = 0 to tr.Replay.n - 1 do
    let name = Replay.name tr i in
    let s =
      match Hashtbl.find_opt by_name name with
      | Some s -> s
      | None ->
          let s = Samples.create () in
          Hashtbl.replace by_name name s;
          s
    in
    Samples.add s (Replay.duration tr i)
  done;
  let durations name = Option.value ~default:(Samples.create ()) (Hashtbl.find_opt by_name name) in
  let us name = 1e6 *. Samples.quantile (durations name) 0.5 in
  let n name = Printf.sprintf "p50 of %d spans" (Samples.count (durations name)) in
  let span_us name = m (name ^ "_us") (us name) "us" ~base:(n name) in
  let c = traced.Replay.env.Replay.c in
  let roots name =
    let s = Samples.create () in
    List.iter
      (fun (root, _, dt, _) -> if Replay.name tr root = name then Samples.add s dt)
      traced.Replay.roots;
    s
  in
  let client = Option.value ~default:(Samples.create ()) (Hashtbl.find_opt o.Load.phase.Load.routes "evaluate") in
  let bytes = List.fold_left (fun a (_, _, _, b) -> a + b) 0 traced.Replay.roots in
  let sum name = Samples.sum (durations name) in
  let delta = delta o in
  [
    span_us "http.parse";
    span_us "http.serialize";
    m "http.response_kb"
      (float_of_int bytes /. 1024.0 /. float_of_int (max 1 (List.length traced.Replay.roots)))
      "KiB" ~base:(Printf.sprintf "%d bytes over %d responses" bytes (List.length traced.Replay.roots));
    m "daemon.overhead_us"
      (1e6 *. (Samples.quantile client 0.5 -. Samples.quantile (roots "op.evaluate") 0.5))
      "us"
      ~base:
        (Printf.sprintf "client evaluate p50 (n=%d) - replay evaluate p50 (n=%d)" (Samples.count client)
           (Samples.count (roots "op.evaluate")));
    m "daemon.reconnects" (float_of_int o.Load.phase.Load.reconnects) "count"
      ~base:"Connection: close answers the client reconnected after";
    m "daemon.rejected"
      (float_of_int (delta [ "rejected_overload" ] + delta [ "rejected_timeout" ]))
      "count" ~base:"/metrics rejected_overload + rejected_timeout, after - before";
    span_us "api.evaluate";
    span_us "api.not_modified";
    span_us "api.batch";
    span_us "api.create";
    span_us "api.diff";
    span_us "api.simulate";
    m "registry.response_cache_hit_ratio" (ratio c.Replay.hits c.Replay.probes) "ratio"
      ~base:(Printf.sprintf "%d hits / %d probes" c.Replay.hits c.Replay.probes);
    span_us "session.evaluate";
    span_us "session.apply_diff";
    m "session.walks_per_evaluate" (ratio c.Replay.walks c.Replay.evaluates) "ratio"
      ~base:(Printf.sprintf "%d walks / %d evaluates" c.Replay.walks c.Replay.evaluates);
    m "session.replay_hit_ratio" (ratio c.Replay.replay_hits c.Replay.replays) "ratio"
      ~base:(Printf.sprintf "%d hits / %d replays" c.Replay.replay_hits c.Replay.replays);
    m "walkthrough.scenario_us"
      (if c.Replay.walks = 0 then 0.0 else 1e6 *. c.Replay.walk_seconds /. float_of_int c.Replay.walks)
      "us"
      ~base:(Printf.sprintf "time of the session.evaluate calls that walked / %d walks" c.Replay.walks);
    m "load.parse_us_per_kb"
      (if c.Replay.parsed_kb = 0.0 then 0.0 else 1e6 *. sum "load.parse" /. c.Replay.parsed_kb)
      "us/KiB" ~base:(Printf.sprintf "%.0f KiB parsed" c.Replay.parsed_kb);
    m "dsim.trials_per_s"
      (if sum "dsim.campaign" = 0.0 then 0.0 else float_of_int c.Replay.trials /. sum "dsim.campaign")
      "1/s" ~base:(Printf.sprintf "%d trials" c.Replay.trials);
    m "replay.tracing_overhead_pct"
      (100.0 *. ((traced.Replay.wall /. untraced.Replay.wall) -. 1.0))
      "%"
      ~base:(Printf.sprintf "%d ops: %.3f s traced vs %.3f s untraced" traced.Replay.ops traced.Replay.wall
               untraced.Replay.wall);
  ]
  @
  if not spec.Workload.durable then []
  else
    (* Persist, Journal, Wal, Ship and the follower: the journal counters
       come from the load run's /metrics, the rest from the replay. *)
    let records = delta [ "journal"; "records" ] and fsyncs = delta [ "journal"; "fsyncs" ] in
    let batched = delta [ "journal"; "group_commit"; "batched_appends" ]
    and batches = delta [ "journal"; "group_commit"; "batches" ] in
    let journal_bytes = delta [ "journal"; "bytes" ] and user_bytes = o.Load.phase.Load.write_bytes in
    let hits, fetches =
      match traced.Replay.ship with
      | Some st -> (st.Store.Ship.cursor_hits, st.Store.Ship.cursor_hits + st.Store.Ship.cursor_misses)
      | None -> (0, 0)
    in
    let applied, lag_max =
      match traced.Replay.follower with Some d -> (d.Replay.records, d.Replay.lag_max) | None -> (0, 0)
    in
    [
      span_us "persist.stage";
      span_us "persist.await";
      m "journal.fsyncs_per_write" (ratio fsyncs records) "ratio" ~base:(Printf.sprintf "%d fsyncs / %d records" fsyncs records);
      m "journal.group_batch_mean" (ratio batched batches) "ratio"
        ~base:(Printf.sprintf "%d batched appends / %d batches" batched batches);
      m "journal.bytes_per_user_byte" (ratio journal_bytes user_bytes) "ratio"
        ~base:(Printf.sprintf "%d journal bytes / %d write-request body bytes" journal_bytes user_bytes);
      m "wal.compactions" (float_of_int (delta [ "journal"; "compactions" ])) "count"
        ~base:"/metrics journal.compactions, after - before, summed over the rounds";
      m "wal.compact_ms" (1000.0 *. Samples.quantile (durations "wal.compact") 0.5) "ms" ~base:(n "wal.compact");
      m "wal.recover_ms" (Option.value ~default:0.0 traced.Replay.recover_ms) "ms"
        ~base:"one Persist.open_ + Registry.recover of the replay's data directory";
      span_us "ship.fetch";
      m "ship.cursor_hit_ratio" (ratio hits fetches) "ratio" ~base:(Printf.sprintf "%d hits / %d fetches" hits fetches);
      m "replica.apply_us_per_record"
        (if applied = 0 then 0.0 else 1e6 *. sum "replica.apply" /. float_of_int applied)
        "us" ~base:(Printf.sprintf "Registry.apply_shipped time / %d records" applied);
      m "replica.lag_max_records" (float_of_int lag_max) "count"
        ~base:"primary covered - follower applied, before each fetch (one fetch per op)";
    ]

(* The self times of the ops in the middle of the latency distribution
   (40th to 60th percentile) of one class, averaged per span name: they
   sum to those ops' mean latency, which sits at the class's p50. *)
let blocking_path (traced : Replay.pass) klass =
  let tr = traced.Replay.env.Replay.tr in
  let roots =
    List.filter (fun (_, req, _, _) -> Workload.klass req.Workload.op = klass) traced.Replay.roots
    |> List.sort (fun (_, _, a, _) (_, _, b, _) -> Float.compare a b)
    |> Array.of_list
  in
  let k = Array.length roots in
  if k = 0 then None
  else
    let lo = 2 * k / 5 and hi = max ((2 * k / 5) + 1) (3 * k / 5) in
    let band = Array.sub roots lo (min k hi - lo) in
    let ops = Hashtbl.create 64 in
    Array.iter (fun (root, _, _, _) -> Hashtbl.replace ops tr.Replay.op.(root) ()) band;
    let self = Replay.self_times tr in
    let per = Hashtbl.create 16 in
    for i = 0 to tr.Replay.n - 1 do
      let name = Replay.name tr i in
      (* background spans (compaction, shipping) are roots not named op.* *)
      if Hashtbl.mem ops tr.Replay.op.(i) && (tr.Replay.parent.(i) >= 0 || String.starts_with ~prefix:"op." name)
      then Hashtbl.replace per name (self.(i) +. Option.value ~default:0.0 (Hashtbl.find_opt per name))
    done;
    let count = float_of_int (Array.length band) in
    let rows =
      Hashtbl.fold (fun name t acc -> (name, 1e3 *. t /. count) :: acc) per []
      |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
    in
    let lat = Samples.create () in
    Array.iter (fun (_, _, dt, _) -> Samples.add lat dt) roots;
    let band_mean = Array.fold_left (fun a (_, _, dt, _) -> a +. dt) 0.0 band /. count in
    Some (rows, 1e3 *. band_mean, 1e3 *. Samples.quantile lat 0.5, k)

(* ------------------------------------------------------------------ *)
(* Output                                                             *)
(* ------------------------------------------------------------------ *)

let json_number v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v else Printf.sprintf "%.17g" v

let result_json ~correct ~attempted ~failed metrics =
  Printf.sprintf {|{"correct":%b,"attempted":%d,"failed":%d,"metrics":{%s}}|} correct attempted failed
    (String.concat ","
       (List.map
          (fun x -> Printf.sprintf {|%s:{"value":%s,"unit":%s}|} (Workload.json_string x.name) (json_number x.value)
                      (Workload.json_string x.unit_))
          metrics))

let print_metric x =
  Printf.printf "  %-36s %14.4f %-7s %s\n" x.name x.value x.unit_ (if x.base = "" then "" else "(" ^ x.base ^ ")")

(* The metrics BENCHMARK.json lists for the given trace mode when it
   declares [workload]; [None] (report everything measured) for a
   workload it does not declare. *)
let declared ~workload ~trace =
  let names key j =
    List.filter_map
      (fun x -> Option.bind (Jsonlight.member "name" x) Jsonlight.string_opt)
      (Option.value ~default:[] (Option.bind (Jsonlight.member key j) Jsonlight.list_opt))
  in
  match In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all |> Jsonlight.of_string with
  | Ok j when List.mem workload (names "workloads" j) ->
      Some (names (if trace then "per_layer" else "end_to_end") j)
  | Ok _ | Error _ -> None
  | exception Sys_error _ -> None

let () =
  let workload, seed, seconds, trace = args () in
  let work = ".loadbench" in
  Proc.mkdir_p work;
  if not (Sys.file_exists !Proc.sosae) then begin
    prerr_endline ("loadbench: " ^ !Proc.sosae ^ " is missing; build with run.sh");
    exit 2
  end;
  let spec = Workload.spec ~workload ~seed in
  (* only this checkout's own repository, never an enclosing one *)
  let commit =
    Option.value ~default:"unknown"
      (if Sys.file_exists ".git" then command_line "git rev-parse HEAD" else None)
  in
  let nproc = Domain.recommended_domain_count () in
  let fsync = if spec.Workload.durable then "always" else "none (in-memory)" in
  Printf.printf "loadbench %s  seed=%d  seconds=%.0f  trace=%b\n" workload seed seconds trace;
  Printf.printf "commit=%s  sources=%s  nproc=%d  fsync=%s  clients=%d (closed loop)\n" commit (source_digest ())
    nproc fsync Load.clients;
  print_endline
    "latencies are this host's loopback TCP and page-cache figures, not a network's or a device's";
  let o = Load.run spec ~seconds ~work in
  let e2e = end_to_end o in
  let specific = workload_specific o in
  print_endline "end to end:";
  List.iter print_metric e2e;
  List.iter print_metric specific;
  Printf.printf "  %-36s %14.4f %-7s (%d failed / %d attempted)\n" "failed_ratio"
    (ratio o.Load.failed o.Load.attempted) "ratio" o.Load.failed o.Load.attempted;
  let routes = Hashtbl.fold (fun k s acc -> (k, s) :: acc) o.Load.phase.Load.routes [] |> List.sort compare in
  print_endline "client latency by route:";
  List.iter
    (fun (k, s) ->
      Printf.printf "  %-14s n=%-7d p50 %8.3f ms  p99 %8.3f ms\n" k (Samples.count s) (ms s 0.5) (ms s 0.99))
    routes;
  print_endline "load-run session stats (preloaded sessions, growth during the timed phases):";
  List.iter
    (fun (sid, _) ->
      let grew key =
        List.fold_left
          (fun acc snaps ->
            let v label =
              Option.fold ~none:0
                ~some:(fun j -> Load.int_field j [ "stats"; key ])
                (List.assoc_opt (label ^ ".stats." ^ sid) snaps)
            in
            acc + v "after" - v "before")
          0 o.Load.snapshots
      in
      Printf.printf "  %-14s walks %d, cache hits %d, replays %d (%d hits)\n" sid (grew "evaluations")
        (grew "cache_hits") (grew "replays") (grew "replay_hits"))
    spec.Workload.preload;
  List.iter (fun e -> Printf.printf "error: %s\n" e) o.Load.errors;
  let layer, replay_failed, replay_ops =
    if not trace then ([], 0, 0)
    else begin
      (* untraced first, bounded by time; then the same ops traced *)
      let untraced =
        Replay.pass spec ~traced:false ~work ~max_ops:max_int ~seconds:(Float.min 8.0 (seconds /. 2.0))
      in
      let traced = Replay.pass spec ~traced:true ~work ~max_ops:untraced.Replay.ops ~seconds:infinity in
      let layer = per_layer spec o untraced traced in
      print_endline "per layer (traced in-process replay; load-run counters where noted):";
      List.iter print_metric layer;
      List.iter
        (fun (label, klass) ->
          match blocking_path traced klass with
          | None -> ()
          | Some (rows, band_ms, p50_ms, k) ->
              Printf.printf "blocking path of replay %s ops (%d ops; self ms averaged over the p40-p60 band):\n"
                label k;
              List.iter (fun (name, t) -> Printf.printf "  %-32s %9.4f\n" name t) rows;
              Printf.printf "  %-32s %9.4f  (band mean; replay %s_p50_ms = %.4f)\n" "sum" band_ms label p50_ms)
        [ ("read", Workload.Read); ("write", Workload.Write) ];
      let spans = Filename.concat work (Printf.sprintf "spans-%s-%d.tsv" workload seed) in
      Replay.write_spans traced.Replay.env.Replay.tr spans;
      Printf.printf "spans: %s\n" spans;
      (* both passes ran the same ops: one comparison with the library
         covers them *)
      let wrong, keys = Oracle.verify traced.Replay.env.Replay.table in
      List.iter (fun e -> Printf.printf "error: replay: %s\n" e)
        (List.map (fun k -> "differs from the library: " ^ k) keys
        @ untraced.Replay.env.Replay.errors @ traced.Replay.env.Replay.errors);
      ( layer,
        untraced.Replay.env.Replay.failed + traced.Replay.env.Replay.failed + wrong,
        untraced.Replay.ops + traced.Replay.ops )
    end
  in
  let all = e2e @ specific @ layer in
  let metrics =
    match declared ~workload ~trace with
    | Some names -> List.filter (fun x -> List.mem x.name names) all
    | None -> all
  in
  let failed = o.Load.failed + replay_failed in
  let correct = failed = 0 in
  print_endline (result_json ~correct ~attempted:(o.Load.attempted + replay_ops) ~failed metrics);
  exit (if correct then 0 else 1)
