(* Evaluation sessions (Sosae.Session): cache hits, replay- and
   fast-path revalidation after architecture edits, and equivalence
   with evaluating from scratch. *)

module Session = Core.Sosae.Session

let pims_project () =
  {
    Core.Sosae.scenarios = Casestudies.Pims.scenario_set;
    architecture = Casestudies.Pims.architecture;
    mapping = Casestudies.Pims.mapping;
  }

let scenario_count = List.length Casestudies.Pims.scenario_set.Scenarioml.Scen.scenarios

let find_result (r : Walkthrough.Engine.set_result) id =
  List.find
    (fun s -> String.equal s.Walkthrough.Verdict.scenario_id id)
    r.Walkthrough.Engine.results

(* the Fig. 4 excision, as explicit ops against the session's current
   architecture *)
let loader_da_ops architecture =
  architecture.Adl.Structure.links
  |> List.filter (fun l ->
         let f = l.Adl.Structure.link_from.Adl.Structure.anchor
         and t = l.Adl.Structure.link_to.Adl.Structure.anchor in
         (f = "loader" && t = "data-access") || (f = "data-access" && t = "loader"))
  |> List.map (fun l -> Adl.Diff.Remove_link l.Adl.Structure.link_id)

let test_cache_hits () =
  let s = Session.create (pims_project ()) in
  let r1 = Session.evaluate s in
  Alcotest.(check bool) "initially consistent" true r1.Walkthrough.Engine.consistent;
  Alcotest.(check int) "all scenarios walked" scenario_count
    (Session.stats s).Session.evaluations;
  let r2 = Session.evaluate s in
  let st = Session.stats s in
  Alcotest.(check int) "no extra walks" scenario_count st.Session.evaluations;
  Alcotest.(check int) "all served from cache" scenario_count st.Session.cache_hits;
  Alcotest.(check bool) "second result identical" true (r1 = r2)

let test_excision_invalidates_selectively () =
  let s = Session.create (pims_project ()) in
  ignore (Session.evaluate s);
  let ops = loader_da_ops (Session.project s).Core.Sosae.architecture in
  Alcotest.(check bool) "links to excise found" true (ops <> []);
  Session.apply_diff s ops;
  let r = Session.evaluate s in
  let st = Session.stats s in
  (* a pure link removal takes the eager fast path: untouched entries
     are revalidated without replaying their query logs; only the
     scenarios whose walk crossed the excised links are replay-checked
     (and fail, since the links are gone) before re-walking *)
  let dirty = st.Session.evaluations - scenario_count in
  Alcotest.(check int) "untouched entries skip replay" 0 st.Session.replay_hits;
  Alcotest.(check int) "only touched entries replay-checked" dirty st.Session.replays;
  Alcotest.(check bool) "only the touched scenarios re-walked" true
    (dirty >= 1 && dirty < scenario_count);
  Alcotest.(check bool) "prices scenario now fails" false
    (Walkthrough.Verdict.is_consistent (find_result r "get-share-prices"));
  Alcotest.(check bool) "portfolio scenario served and consistent" true
    (Walkthrough.Verdict.is_consistent (find_result r "create-portfolio"));
  let fresh = Core.Sosae.evaluate (Session.project s) in
  Alcotest.(check bool) "equals a from-scratch evaluation" true (r = fresh)

let test_replay_revalidation () =
  let s = Session.create (pims_project ()) in
  ignore (Session.evaluate s);
  (* wholesale replacement cannot use the removal fast path: cached
     entries are revalidated by query-log replay instead *)
  Session.set_architecture s Casestudies.Pims.broken_architecture;
  let r = Session.evaluate s in
  let st = Session.stats s in
  Alcotest.(check bool) "replays ran" true (st.Session.replays > 0);
  Alcotest.(check bool) "unchanged verdicts reused via replay" true
    (st.Session.replay_hits >= 1);
  Alcotest.(check bool) "prices scenario now fails" false
    (Walkthrough.Verdict.is_consistent (find_result r "get-share-prices"));
  let fresh =
    Core.Sosae.evaluate
      { (pims_project ()) with
        Core.Sosae.architecture = Casestudies.Pims.broken_architecture
      }
  in
  Alcotest.(check bool) "equals a from-scratch evaluation" true (r = fresh)

let test_invalidate () =
  let s = Session.create (pims_project ()) in
  ignore (Session.evaluate s);
  Session.invalidate ~scenario:"create-portfolio" s;
  ignore (Session.evaluate s);
  Alcotest.(check int) "one scenario re-walked" (scenario_count + 1)
    (Session.stats s).Session.evaluations;
  Session.invalidate s;
  ignore (Session.evaluate s);
  Alcotest.(check int) "everything re-walked"
    (2 * scenario_count + 1)
    (Session.stats s).Session.evaluations

let test_evaluate_scenario () =
  let s = Session.create (pims_project ()) in
  (match Session.evaluate_scenario s "get-share-prices" with
  | Some r ->
      Alcotest.(check bool) "consistent" true (Walkthrough.Verdict.is_consistent r)
  | None -> Alcotest.fail "get-share-prices not found");
  Alcotest.(check bool) "unknown id" true (Session.evaluate_scenario s "nope" = None)

(* A sub-suite shares one oracle; after the Fig. 4 excision it answers
   exactly what one evaluate_scenario per id does, stats included, and
   stops at the first unknown id. *)
let test_evaluate_scenarios () =
  let ids = [ "get-share-prices"; "create-portfolio"; "save-session" ] in
  let edited () =
    let s = Session.create (pims_project ()) in
    ignore (Session.evaluate s);
    Session.apply_diff s
      (loader_da_ops (Session.project s).Core.Sosae.architecture);
    s
  in
  let one_by_one = edited () and shared = edited () in
  let expected = List.filter_map (Session.evaluate_scenario one_by_one) ids in
  Alcotest.(check bool) "same verdicts" true
    (Session.evaluate_scenarios shared ids = Ok expected);
  Alcotest.(check bool) "same stats" true
    (Session.stats shared = Session.stats one_by_one);
  let fresh = edited () in
  let looked_up () =
    let st = Session.stats fresh in
    st.Session.cache_hits + st.Session.replays
  in
  let before = looked_up () in
  Alcotest.(check bool) "first unknown id" true
    (Session.evaluate_scenarios fresh [ "get-share-prices"; "nope"; "save-session" ]
    = Error "nope");
  Alcotest.(check int) "only the id before it was looked up" 1 (looked_up () - before)

(* A session walks as the one-shot engine does on lookups the builders
   would reject: the first of two mapping entries for one event type
   wins, so does the first of two ontology definitions, an unmapped
   subtype inherits its nearest mapped ancestor's placement, and step
   texts are Scenarioml.Event.render's. *)
let test_walk_lookups () =
  let architecture =
    List.fold_left
      (fun t (a, b) -> Adl.Build.biconnect t a b)
      (List.fold_left
         (fun t id -> Adl.Build.add_component ~id ~name:id ~responsibilities:[ "r" ] t)
         (Adl.Build.create ~id:"idx-arch" ~name:"Index" ())
         [ "a"; "b"; "c"; "d" ])
      [ ("a", "b"); ("b", "c"); ("c", "d") ]
  in
  let ontology =
    Ontology.Build.create ~id:"idx-o" ~name:"Index"
    |> Ontology.Build.add_class ~id:"user" ~name:"User"
    |> Ontology.Build.add_individual ~id:"alice" ~name:"Alice" ~cls:"user"
    |> Ontology.Build.add_event_type ~id:"request" ~name:"request"
         ~params:[ ("who", "user") ] ~template:"{who} sends a request"
    |> Ontology.Build.add_event_type ~id:"store" ~name:"store" ~template:"data is stored"
    |> Ontology.Build.add_event_type ~super:"store" ~id:"store-fast" ~name:"store fast"
         ~template:"data is stored fast"
    |> Ontology.Build.add_event_type ~super:"store-fast" ~id:"archive" ~name:"archive"
         ~template:"data is archived"
    |> Ontology.Build.add_event_type ~id:"orphan" ~name:"orphan" ~template:"nobody hears"
  in
  (* a second definition of "store", which Ontology.Build would reject *)
  let ontology =
    {
      ontology with
      Ontology.Types.event_types =
        ontology.Ontology.Types.event_types
        @ [
            {
              (Ontology.Types.event_type_exn ontology "store") with
              Ontology.Types.template = "shadowed definition";
            };
          ];
    }
  in
  let mapping =
    Mapping.Build.create ~id:"idx-m" ~ontology ~architecture
    |> Mapping.Build.map ~event_type:"request" ~to_:[ "a" ]
    |> Mapping.Build.map ~event_type:"store" ~to_:[ "c" ]
  in
  (* a second entry for "store", which Mapping.Build would reject *)
  let mapping =
    {
      mapping with
      Mapping.Types.entries =
        mapping.Mapping.Types.entries
        @ [ { Mapping.Types.event_type = "store"; components = [ "d" ]; rationale = "" } ];
    }
  in
  let ev id event_type args = Scenarioml.Event.typed ~id ~event_type args in
  let scenarios =
    [
      Scenarioml.Scen.scenario ~id:"chain" ~name:"Chain"
        [
          ev "e1" "request" [ Scenarioml.Event.individual ~param:"who" "alice" ];
          ev "e2" "store" [];
          ev "e3" "store-fast" [];
          ev "e4" "archive" [];
        ];
      Scenarioml.Scen.scenario ~id:"lost" ~name:"Lost"
        [ ev "e5" "request" []; Scenarioml.Event.simple ~id:"e6" "time passes"; ev "e7" "orphan" [] ];
    ]
  in
  let set = Scenarioml.Scen.make_set ~id:"idx-s" ~name:"Index" ontology scenarios in
  let project = { Core.Sosae.scenarios = set; architecture; mapping } in
  let from_session = Session.evaluate (Session.create project) in
  let from_engine = Walkthrough.Engine.evaluate_set ~set ~architecture ~mapping () in
  Alcotest.(check bool) "session = engine" true (from_session = from_engine);
  let steps id =
    List.concat_map
      (fun t -> t.Walkthrough.Verdict.steps)
      (find_result from_session id).Walkthrough.Verdict.traces
  in
  Alcotest.(check (list (list string)))
    "first entry wins; subtypes inherit the nearest mapped ancestor"
    [ [ "a" ]; [ "c" ]; [ "c" ]; [ "c" ] ]
    (List.map (fun st -> st.Walkthrough.Verdict.components) (steps "chain"));
  List.iter
    (fun sc ->
      let rendered =
        List.concat_map
          (List.map (fun step ->
               Scenarioml.Event.render ontology step.Scenarioml.Linearize.step_event))
          (Scenarioml.Linearize.scenario set sc).Scenarioml.Linearize.traces
      in
      Alcotest.(check (list string))
        ("step texts of " ^ sc.Scenarioml.Scen.scenario_id)
        rendered
        (List.map (fun st -> st.Walkthrough.Verdict.text) (steps sc.Scenarioml.Scen.scenario_id)))
    scenarios;
  Alcotest.(check string) "individuals by name" "Alice sends a request"
    (List.hd (steps "chain")).Walkthrough.Verdict.text;
  Alcotest.(check string) "first definition wins" "data is stored"
    (List.nth (steps "chain") 1).Walkthrough.Verdict.text;
  Alcotest.(check bool) "unmapped type reported" true
    (List.exists
       (function
         | Walkthrough.Verdict.Unmapped_event_type { event_type = "orphan"; _ } -> true
         | _ -> false)
       (find_result from_session "lost").Walkthrough.Verdict.inconsistencies)

(* ---------------- equivalence under random edit sequences ---------- *)

let gen_arch_spec =
  QCheck2.Gen.(
    let* n = int_range 2 6 in
    let* m = int_range 0 2 in
    let* wiring =
      list_size (int_range 0 10) (pair (int_range 0 (n + m - 1)) (int_range 0 (n + m - 1)))
    in
    return (n, m, wiring))

let build_arch (n, m, wiring) =
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
    (fun t (a, b) ->
      if a = b then t
      else
        match Adl.Build.biconnect t (brick a) (brick b) with
        | t -> t
        | exception Adl.Build.Duplicate _ -> t)
    base wiring

type edit = Retarget of (int * int * (int * int) list) | Drop_link of int

let gen_edit =
  QCheck2.Gen.(
    oneof
      [
        map (fun s -> Retarget s) gen_arch_spec;
        map (fun i -> Drop_link i) (int_range 0 30);
      ])

(* The diff an edit makes to [current]; [None] when a link drop finds
   no link. *)
let edit_ops current = function
  | Retarget spec' -> Some (Adl.Diff.diff current (build_arch spec'))
  | Drop_link i -> (
      match current.Adl.Structure.links with
      | [] -> None
      | links ->
          let l = List.nth links (i mod List.length links) in
          Some [ Adl.Diff.Remove_link l.Adl.Structure.link_id ])

let event_types = 5

let et i = Printf.sprintf "e%d" i

(* the project: a random chain-free architecture, a tiny ontology, a
   mapping of each event type onto one base component, and 1-3 random
   scenarios over those event types *)
let build_project spec scenario_specs =
  let architecture = build_arch spec in
  let n, _, _ = spec in
  let ontology =
    List.fold_left
      (fun o i ->
        Ontology.Build.add_event_type ~id:(et i) ~name:(et i) ~template:"something happens"
          o)
      (Ontology.Build.create ~id:"rand-o" ~name:"Random")
      (List.init event_types Fun.id)
  in
  let mapping =
    List.fold_left
      (fun m i ->
        Mapping.Build.map ~event_type:(et i) ~to_:[ Printf.sprintf "c%d" (i mod n) ] m)
      (Mapping.Build.create ~id:"rand-m" ~ontology ~architecture)
      (List.init event_types Fun.id)
  in
  let scenarios =
    List.mapi
      (fun j events ->
        Scenarioml.Scen.scenario
          ~id:(Printf.sprintf "sc%d" j)
          ~name:(Printf.sprintf "Scenario %d" j)
          (List.mapi
             (fun i e ->
               Scenarioml.Event.typed
                 ~id:(Printf.sprintf "ev%d-%d" j i)
                 ~event_type:(et e) [])
             events))
      scenario_specs
  in
  let set = Scenarioml.Scen.make_set ~id:"rand-s" ~name:"Random" ontology scenarios in
  { Core.Sosae.scenarios = set; architecture; mapping }

(* After arbitrary interleavings of whole-architecture retargets
   (applied as Adl.Diff edit scripts, exercising replay) and single
   link removals (exercising the eager fast path), the session's
   evaluation must equal evaluating its current project from scratch. *)
let prop_session_equals_fresh =
  QCheck2.Test.make ~name:"session: evaluate after random edits = fresh evaluate"
    ~count:75
    QCheck2.Gen.(
      tup3 gen_arch_spec
        (list_size (int_range 1 3) (list_size (int_range 1 5) (int_range 0 (event_types - 1))))
        (list_size (int_range 1 4) gen_edit))
    (fun (spec, scenario_specs, edits) ->
      let project = build_project spec scenario_specs in
      let session = Session.create project in
      let agrees () =
        let p = Session.project session in
        Session.evaluate session = Core.Sosae.evaluate p
      in
      agrees ()
      && List.for_all
           (fun edit ->
             let current = (Session.project session).Core.Sosae.architecture in
             Option.iter (Session.apply_diff session) (edit_ops current edit);
             agrees ())
           edits)

(* The domain-pool evaluation paths must be observationally equal to the
   sequential ones: same results in the same order, and — for sessions —
   the same cache statistics, since only stale walks fan out. *)
let prop_parallel_equals_sequential =
  QCheck2.Test.make ~name:"evaluate on a domain pool = sequential evaluate" ~count:50
    QCheck2.Gen.(
      tup3 gen_arch_spec
        (list_size (int_range 1 4) (list_size (int_range 1 5) (int_range 0 (event_types - 1))))
        (int_range 2 5))
    (fun (spec, scenario_specs, jobs) ->
      let project = build_project spec scenario_specs in
      Core.Sosae.evaluate ~jobs project = Core.Sosae.evaluate ~jobs:1 project
      && Core.Sosae.evaluate_suite ~jobs project
           project.Core.Sosae.scenarios.Scenarioml.Scen.scenarios
         = Core.Sosae.evaluate_suite ~jobs:1 project
             project.Core.Sosae.scenarios.Scenarioml.Scen.scenarios)

let prop_session_parallel_equals_sequential =
  QCheck2.Test.make ~name:"session: parallel evaluate = sequential, stats included"
    ~count:40
    QCheck2.Gen.(
      tup4 gen_arch_spec
        (list_size (int_range 1 4) (list_size (int_range 1 5) (int_range 0 (event_types - 1))))
        gen_arch_spec (int_range 2 5))
    (fun (spec, scenario_specs, spec', jobs) ->
      let run ?pool () =
        let project = build_project spec scenario_specs in
        let session = Session.create project in
        let first = Session.evaluate ?pool session in
        (* an edit leaves a mix of cached, replayable and stale entries *)
        Session.set_architecture session (build_arch spec');
        let second = Session.evaluate ?pool session in
        (first, second, Session.stats session)
      in
      Dsim.Pool.with_pool ~jobs (fun pool -> run ~pool ()) = run ())

(* Over random edit sequences, three routes to the verdicts agree after
   every edit: a session evaluating on the calling thread, a twin
   session on a shared pool, and a one-shot sequential evaluate of the
   current project. The two sessions' cumulative stats agree too. *)
let prop_session_pool_equals_sequential_after_edits =
  QCheck2.Test.make
    ~name:"session: sequential = pooled = one-shot evaluate after edits, stats included"
    ~count:40
    QCheck2.Gen.(
      tup3 gen_arch_spec
        (list_size (int_range 1 4) (list_size (int_range 1 5) (int_range 0 (event_types - 1))))
        (list_size (int_range 1 4) gen_edit))
    (fun (spec, scenario_specs, edits) ->
      let project = build_project spec scenario_specs in
      let sequential = Session.create project and pooled = Session.create project in
      Dsim.Pool.with_pool ~jobs:2 (fun pool ->
          let agrees () =
            let r = Session.evaluate sequential in
            r = Session.evaluate ~pool pooled
            && r = Core.Sosae.evaluate ~jobs:1 (Session.project sequential)
            && Session.stats sequential = Session.stats pooled
          in
          agrees ()
          && List.for_all
               (fun edit ->
                 let current = (Session.project sequential).Core.Sosae.architecture in
                 Option.iter
                   (fun ops ->
                     Session.apply_diff sequential ops;
                     Session.apply_diff pooled ops)
                   (edit_ops current edit);
                 agrees ())
               edits))

let suite =
  [
    Alcotest.test_case "pims: cache hits on repeat evaluation" `Quick test_cache_hits;
    Alcotest.test_case "pims: excision re-evaluates only touched scenarios" `Quick
      test_excision_invalidates_selectively;
    Alcotest.test_case "pims: wholesale replacement revalidates by replay" `Quick
      test_replay_revalidation;
    Alcotest.test_case "invalidate forces re-evaluation" `Quick test_invalidate;
    Alcotest.test_case "evaluate_scenario through the cache" `Quick test_evaluate_scenario;
    Alcotest.test_case "evaluate_scenarios shares one oracle" `Quick
      test_evaluate_scenarios;
    Alcotest.test_case "walk lookups: first entry wins, subtypes inherit" `Quick
      test_walk_lookups;
    QCheck_alcotest.to_alcotest prop_session_equals_fresh;
    QCheck_alcotest.to_alcotest prop_parallel_equals_sequential;
    QCheck_alcotest.to_alcotest prop_session_parallel_equals_sequential;
    QCheck_alcotest.to_alcotest prop_session_pool_equals_sequential_after_edits;
  ]
