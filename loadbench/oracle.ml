(* Output checks. Every response is checked when it arrives: statuses and
   small bodies exactly, the others (evaluate results, batches,
   previews, campaign reports) keyed by the session state the client
   expects. The first body seen for a key is kept; every later one must
   equal it; and after the timed phase each kept body is compared with
   the in-process library's result for that state, so the oracle's work
   never competes with the daemon for the CPU. *)

open Workload

let config = Walkthrough.Engine.config ~policy:Adl.Graph.Routed ()

let project st = { st.base.project with Core.Sosae.architecture = st.arch }

let eval_result st =
  Jsonlight.to_string
    (Walkthrough.Report.json_of_set_result (Core.Sosae.evaluate ~config ~jobs:1 (project st)))

(* A batch of sub-suites against a warm session: every verdict comes
   from the session's cache, so the counters are fixed too. *)
let batch_body st suites =
  let p = project st in
  let suite ids =
    let results =
      List.map
        (fun id ->
          match Core.Sosae.evaluate_scenario ~config p id with
          | Some r -> Walkthrough.Report.json_of_scenario_result r
          | None -> failwith ("no scenario " ^ id))
        ids
    in
    Printf.sprintf {|{"results":%s,"re_evaluated":0,"served_from_cache":%d}|}
      (Jsonlight.to_string (Jsonlight.List results))
      (List.length ids)
  in
  Printf.sprintf {|{"responses":[%s]}|} (String.concat "," (List.map suite suites))

let preview_body st a b =
  let ops =
    List.map
      (fun (l : Adl.Structure.link) -> Adl.Diff.Remove_link l.Adl.Structure.link_id)
      (links_between st.arch a b)
  in
  Jsonlight.to_string
    (Jsonlight.Obj
       [
         ("would_apply", Jsonlight.Int (List.length ops));
         ("ops", Option.get (Server.Persist.encode_ops ops));
       ])

let campaign st =
  let charts =
    (Statechart.Bundle.of_string (Lazy.force behavior_xml)).Statechart.Bundle.charts
  in
  let open Dsim.Campaign in
  make
    ~config:
      { Dsim.Network.default_config with default_latency = 1.0; jitter = 0.25; drop_probability = 0.05 }
    ~horizon:10.0
    ~faults:
      [
        Crash_window
          { node = "remote-price-db"; at = { lo = 0.0; hi = 3.0 }; downtime = { lo = 1.0; hi = 5.0 } };
      ]
    ~architecture:st.arch ~charts
    ~stimuli:[ { at = 0.0; component = "master-controller"; trigger = "user-initiates" } ]
    ~goal:(Delivered { component = "remote-price-db"; payload = "fetch-prices" })
    ()

let sim_report st ~seed ~trials =
  Jsonlight.to_string (Dsim.Stats.to_json (Dsim.Campaign.report ~jobs:1 ~seed ~trials (campaign st)))

(* ------------------------------------------------------------------ *)
(* Body table                                                         *)
(* ------------------------------------------------------------------ *)

type entry = { first : string; mutable seen : int; expected : unit -> string }

type table = (string, entry) Hashtbl.t

let table () : table = Hashtbl.create 64

(* [false] when [body] differs from the first body seen under [key]. *)
let observe (t : table) ~key ~expected body =
  match Hashtbl.find_opt t key with
  | None ->
      Hashtbl.add t key { first = body; seen = 1; expected };
      true
  | Some e ->
      e.seen <- e.seen + 1;
      String.equal body e.first

(* Fold [src] into [dst]; returns the responses whose key [dst] had
   already pinned to another body. *)
let merge ~(dst : table) (src : table) =
  Hashtbl.fold
    (fun key e bad ->
      match Hashtbl.find_opt dst key with
      | None ->
          Hashtbl.add dst key e;
          bad
      | Some d ->
          d.seen <- d.seen + e.seen;
          if String.equal d.first e.first then bad else bad + e.seen)
    src 0

(* Compare every key with the library's result: the number of responses
   under keys whose body is wrong, and those keys. *)
let verify (t : table) =
  Hashtbl.fold
    (fun key e (bad, keys) ->
      if String.equal e.first (e.expected ()) then (bad, keys)
      else (bad + e.seen, key :: keys))
    t (0, [])

(* ------------------------------------------------------------------ *)
(* Response checks                                                    *)
(* ------------------------------------------------------------------ *)

(* The bytes of [body] between [prefix] at its start and the last
   [suffix]. *)
let between body ~prefix ~suffix =
  let p = String.length prefix and m = String.length suffix in
  let rec last i = if i < p then None else if String.sub body i m = suffix then Some i else last (i - 1) in
  if not (String.starts_with ~prefix body) then None
  else Option.map (fun j -> String.sub body p (j - p)) (last (String.length body - m))

let scenarios st = Array.length st.base.scenario_ids

(* Check one response to [req]. [cond_valid] says whether the
   If-None-Match value sent (if any) was minted for the state [req]
   expects — a 304 is right only then. [Ok n]: correct, delivering [n]
   scenario verdicts; [Error why] otherwise. *)
let check t (req : req) ~cond_valid ~status body =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let shown () = if String.length body > 300 then String.sub body 0 300 ^ "..." else body in
  let pinned ~key ~expected part verdicts =
    if observe t ~key ~expected part then Ok verdicts else fail "%s: body differs from an earlier one" key
  in
  let prefixed prefix = if String.starts_with ~prefix body then Ok 0 else fail "unexpected body %S" (shown ()) in
  match (req.op, status) with
  | Evaluate { etag = Current; _ }, 304 ->
      if cond_valid then Ok 0 else fail "304 for an etag of another state"
  | Evaluate { state; _ }, 200 -> (
      match between body ~prefix:{|{"result":|} ~suffix:{|,"re_evaluated":|} with
      | Some part -> pinned ~key:("eval|" ^ state.key) ~expected:(fun () -> eval_result state) part (scenarios state)
      | None -> fail "malformed evaluate body")
  | Batch { state; suites; _ }, 200 ->
      let key = "batch|" ^ state.key ^ "|" ^ String.concat ";" (List.map (String.concat ",") suites) in
      pinned ~key ~expected:(fun () -> batch_body state suites) body
        (List.fold_left (fun n s -> n + List.length s) 0 suites)
  | Stats { sid; _ }, 200 -> prefixed (Printf.sprintf {|{"id":%s,"stats":|} (json_string sid))
  | Preview { state; from_; to_; _ }, 200 ->
      pinned
        ~key:(Printf.sprintf "preview|%s|%s|%s" state.key from_ to_)
        ~expected:(fun () -> preview_body state from_ to_)
        body 0
  | Create { sid; state }, 201 ->
      prefixed (Printf.sprintf {|{"id":%s,"scenarios":%d,|} (json_string sid) (scenarios state))
  | Diff { before; edit; _ }, 200 -> prefixed (Printf.sprintf {|{"applied":%d,|} (applied before edit))
  | Delete { sid }, 200 ->
      if String.equal body (Printf.sprintf {|{"deleted":%s}|} (json_string sid)) then Ok 0
      else fail "unexpected body %S" (shown ())
  | Simulate { state; seed; trials; _ }, 200 -> (
      match
        between body ~prefix:(Printf.sprintf {|{"trials":%d,"seed":%d,"report":|} trials seed) ~suffix:{|,"elapsed_ms":|}
      with
      | Some part ->
          pinned
            ~key:(Printf.sprintf "sim|%s|%d|%d" state.key seed trials)
            ~expected:(fun () -> sim_report state ~seed ~trials)
            part 0
      | None -> fail "malformed simulate body")
  | op, status -> fail "%s answered %d: %s" (route op) status (shown ())
