(* Experiment harness: regenerates every table and figure of the paper
   (see EXPERIMENTS.md for the index) and runs the Bechamel
   micro-benchmarks.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- fig4    # one artifact
     dune exec bench/main.exe -- bench   # micro-benchmarks only *)

let header id title =
  let line = String.make 74 '=' in
  Printf.printf "\n%s\n== [%s] %s\n%s\n" line id title line

(* ------------------------------------------------------------------ *)
(* FIG1: overview of the approach                                     *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  header "FIG1" "Overview of the approach (paper Fig. 1)";
  print_string
    "  (1) Scenarios      requirements-level scenarios in ScenarioML\n\
    \                     (library: scenarioml; ontology: ontology)\n\
    \  (2) Architecture   structural + behavioral description, xADL-style\n\
    \                     (libraries: adl, statechart; styles: styles)\n\
    \  (3) Mapping        ontology event types -> architecture components\n\
    \                     (library: mapping)\n\
    \  (4) Evaluation     scenario walkthroughs over the structure, plus\n\
    \                     dynamic simulation for quality attributes\n\
    \                     (libraries: walkthrough, dsim)\n"

(* ------------------------------------------------------------------ *)
(* FIG2: PIMS scenarios and ontology                                  *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  header "FIG2" "PIMS scenarios and ontology event types (paper Fig. 2)";
  let ontology = Casestudies.Pims.ontology in
  print_endline (Ontology.Pretty.summary ontology);
  print_endline "Ontology event types (excerpt: actions performed by the actors):";
  List.iter
    (fun id ->
      match Ontology.Types.find_event_type ontology id with
      | Some e -> Format.printf "  @[<v>%a@]@." (Ontology.Pretty.pp_event_type ontology) e
      | None -> ())
    [ "user-initiates"; "user-enters"; "system-prompts"; "system-downloads"; "system-saves" ];
  Format.printf "%a@."
    (Scenarioml.Pretty.pp_scenario ontology)
    Casestudies.Pims.create_portfolio;
  Format.printf "%a@."
    (Scenarioml.Pretty.pp_scenario ontology)
    Casestudies.Pims.get_share_prices

(* ------------------------------------------------------------------ *)
(* FIG3: PIMS architecture                                            *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  header "FIG3" "PIMS layered architecture in xADL (paper Fig. 3)";
  Format.printf "%a@." Adl.Pretty.pp_layered Casestudies.Pims.architecture;
  print_endline (Adl.Pretty.summary Casestudies.Pims.architecture);
  Printf.printf "style violations: %d\n"
    (List.length (Styles.Check.check_declared Casestudies.Pims.architecture));
  print_endline "xADL serialization (first lines):";
  let xml = Adl.Xml_io.to_string Casestudies.Pims.architecture in
  String.split_on_char '\n' xml
  |> List.filteri (fun i _ -> i < 12)
  |> List.iter (fun l -> print_endline ("  " ^ l))

(* ------------------------------------------------------------------ *)
(* TAB1: the mapping table                                            *)
(* ------------------------------------------------------------------ *)

let tab1 () =
  header "TAB1" "Mapping between ontology event types and components (paper Table 1)";
  print_string
    (Mapping.Pretty.table_to_string ~event_type_label:Casestudies.Pims.event_type_label
       ~component_label:Casestudies.Pims.component_label Casestudies.Pims.mapping);
  let summary =
    Mapping.Coverage.summarize Casestudies.Pims.ontology Casestudies.Pims.architecture
      Casestudies.Pims.mapping
  in
  Format.printf "%a@." Mapping.Coverage.pp_summary summary;
  Printf.printf
    "Table 1 property (every event type mapped, every component mapped to): %b\n"
    (Mapping.Coverage.is_total Casestudies.Pims.ontology Casestudies.Pims.architecture
       Casestudies.Pims.mapping)

(* ------------------------------------------------------------------ *)
(* FIG4 (+WALK-A/WALK-B): the excised-link walkthrough                *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  header "FIG4" "Failed walkthrough of \"Get the current prices of shares\" (paper Fig. 4)";
  let set = Casestudies.Pims.scenario_set in
  let eval arch s =
    Walkthrough.Engine.evaluate_scenario ~set ~architecture:arch
      ~mapping:Casestudies.Pims.mapping s
  in
  print_endline "WALK-A/WALK-B expectations: \"our expectation was that the walkthrough of";
  print_endline "the Create portfolio scenario would succeed while the Get the current";
  print_endline "prices of shares scenario would fail.\"";
  print_endline "";
  print_endline "-- intact architecture --";
  print_endline
    (Walkthrough.Report.summary_line
       (eval Casestudies.Pims.architecture Casestudies.Pims.create_portfolio));
  print_endline
    (Walkthrough.Report.summary_line
       (eval Casestudies.Pims.architecture Casestudies.Pims.get_share_prices));
  print_endline "";
  print_endline "-- after excising the Loader / Data Access link --";
  let broken = Casestudies.Pims.broken_architecture in
  print_endline
    (Walkthrough.Report.summary_line (eval broken Casestudies.Pims.create_portfolio));
  Format.printf "%a@." Walkthrough.Report.pp_scenario_result
    (eval broken Casestudies.Pims.get_share_prices)

(* ------------------------------------------------------------------ *)
(* FIG5: CRASH high-level architecture                                *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  header "FIG5" "CRASH high-level architecture (paper Fig. 5)";
  let hl = Casestudies.Crash.high_level_architecture () in
  print_endline (Adl.Pretty.summary hl);
  List.iter
    (fun (org, name) ->
      Printf.printf "  %-14s %s: Display + Information Gathering Sources + C&C\n" org name)
    Casestudies.Crash.organizations;
  print_endline "  all Command and Control centers joined by the emergency ad hoc network";
  let g = Adl.Graph.of_structure hl in
  Printf.printf "  fire-cc can reach police-cc: %b\n"
    (Adl.Graph.reachable g "fire-cc" "police-cc");
  Printf.printf "  displays only reach their own C&C directly: %b\n"
    (Adl.Graph.reachable ~policy:Adl.Graph.Direct g "fire-display" "fire-cc"
    && not (Adl.Graph.reachable ~policy:Adl.Graph.Direct g "fire-display" "police-cc"))

(* ------------------------------------------------------------------ *)
(* FIG6: the Entity Availability scenario                             *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  header "FIG6" "\"Entity Availability\" scenario in ScenarioML (paper Fig. 6)";
  Format.printf "%a@."
    (Scenarioml.Pretty.pp_scenario Casestudies.Crash.ontology)
    Casestudies.Crash.entity_availability;
  print_endline "ScenarioML serialization:";
  print_string
    (Xmlight.Print.element_to_string
       (Scenarioml.Xml_io.scenario_to_element Casestudies.Crash.entity_availability));
  print_newline ()

(* ------------------------------------------------------------------ *)
(* FIG7: CRASH entity internal architecture                           *)
(* ------------------------------------------------------------------ *)

let fig7 () =
  header "FIG7" "Architecture of each CRASH entity (paper Fig. 7, C2 style)";
  Format.printf "%a@." Adl.Pretty.pp Casestudies.Crash.entity_architecture;
  Printf.printf "C2 style violations: %d\n"
    (List.length (Styles.Check.check_declared Casestudies.Crash.entity_architecture))

(* ------------------------------------------------------------------ *)
(* FIG8: ontology / scenario / architecture mapping                   *)
(* ------------------------------------------------------------------ *)

let fig8 () =
  header "FIG8" "CRASH ontology, scenario, and architecture mapping (paper Fig. 8)";
  Format.printf "%a@."
    (Scenarioml.Pretty.pp_scenario Casestudies.Crash.ontology)
    Casestudies.Crash.message_sequence;
  print_string
    (Mapping.Pretty.table_to_string ~event_type_label:Casestudies.Crash.event_type_label
       ~component_label:Casestudies.Crash.component_label Casestudies.Crash.entity_mapping);
  Printf.printf "\nsendMessage maps to: %s\n"
    (String.concat ", "
       (List.map Casestudies.Crash.component_label
          (Mapping.Types.components_of Casestudies.Crash.entity_mapping "send-message")));
  print_endline "-- static walkthroughs over the entity architecture --";
  let set = Casestudies.Crash.entity_scenario_set in
  List.iter
    (fun s ->
      let r =
        Walkthrough.Engine.evaluate_scenario ~set
          ~architecture:Casestudies.Crash.entity_architecture
          ~mapping:Casestudies.Crash.entity_mapping s
      in
      print_endline ("  " ^ Walkthrough.Report.summary_line r))
    set.Scenarioml.Scen.scenarios

(* ------------------------------------------------------------------ *)
(* WALK-C: availability, dynamic                                      *)
(* ------------------------------------------------------------------ *)

let crash_avail () =
  header "WALK-C" "Dynamic evaluation: Entity Availability (paper 4.2)";
  print_endline "Expectation: the Fire operator is alerted iff the architecture provides";
  print_endline "a failure-detection mechanism.";
  let run detector =
    let r = Casestudies.Crash_sim.run_availability ~detector in
    Format.printf "failure detector %-3s: %a | operator chart alerted: %b@."
      (if detector then "ON" else "OFF")
      Dsim.Checks.pp_availability r.Casestudies.Crash_sim.verdict
      r.Casestudies.Crash_sim.fire_alerted;
    r
  in
  let on = run true in
  let _off = run false in
  print_endline "network trace with the detector on:";
  Format.printf "%a@." Dsim.Trace_pp.pp_trace on.Casestudies.Crash_sim.events

(* ------------------------------------------------------------------ *)
(* WALK-D: message ordering, dynamic                                  *)
(* ------------------------------------------------------------------ *)

let crash_order () =
  header "WALK-D" "Dynamic evaluation: Message Sequence (paper 4.2)";
  print_endline "Expectation: the sequence is preserved iff channels are FIFO.";
  let run fifo =
    let r = Casestudies.Crash_sim.run_ordering ~fifo () in
    Format.printf "%-17s: %a@."
      (if fifo then "FIFO channels" else "jittered channels")
      Dsim.Checks.pp_ordering r.Casestudies.Crash_sim.verdict
  in
  run true;
  run false;
  print_endline "";
  print_endline "the paper's exact workload (2 messages, 5 s apart) under small jitter:";
  let r =
    Casestudies.Crash_sim.run_ordering ~messages:2 ~gap:5.0 ~jitter:2.0 ~fifo:false ()
  in
  Format.printf "%a@." Dsim.Checks.pp_ordering r.Casestudies.Crash_sim.verdict

(* ------------------------------------------------------------------ *)
(* COMPLX: the ontology link-complexity claim                         *)
(* ------------------------------------------------------------------ *)

let complexity () =
  header "COMPLX" "Mapping complexity with vs without the ontology (paper 1/5)";
  print_endline "Claim: \"the more extensive the reuse of the ontology definitions in the";
  print_endline "scenarios, the greater is the reduction in complexity.\"";
  print_endline "";
  print_endline "-- measured on the PIMS case study --";
  let stats = Scenarioml.Stats.of_set Casestudies.Pims.scenario_set in
  let counts =
    Mapping.Complexity.measure Casestudies.Pims.mapping ~usage:stats.Scenarioml.Stats.usage
  in
  Format.printf "%a@." Scenarioml.Stats.pp stats;
  Printf.printf
    "links with ontology: %d (occurrence->definition %d + definition->component %d)\n"
    counts.Mapping.Complexity.with_ontology counts.Mapping.Complexity.occurrences
    counts.Mapping.Complexity.definition_links;
  Printf.printf "links without ontology: %d\nreduction factor: %.2f\n"
    counts.Mapping.Complexity.without_ontology counts.Mapping.Complexity.reduction;
  print_endline "";
  print_endline "-- synthetic sweep (20 event types, fanout 3, 8 components) --";
  Printf.printf "%8s | %12s | %15s | %9s\n" "reuse" "with ontol." "without ontol." "reduction";
  Printf.printf "%s\n" (String.make 55 '-');
  List.iter
    (fun (r, c) ->
      Printf.printf "%8d | %12d | %15d | %9.2f\n" r c.Mapping.Complexity.with_ontology
        c.Mapping.Complexity.without_ontology c.Mapping.Complexity.reduction)
    (Mapping.Complexity.sweep ~event_types:20 ~fanout:3 ~components:8
       ~reuse:[ 1; 2; 4; 8; 16; 32; 64 ])

(* ------------------------------------------------------------------ *)
(* COVER: which components the 22 use cases exercise                  *)
(* ------------------------------------------------------------------ *)

let cover () =
  header "COVER" "Component coverage of the PIMS scenarios (paper 3.3)";
  let result =
    Walkthrough.Engine.evaluate_set ~set:Casestudies.Pims.scenario_set
      ~architecture:Casestudies.Pims.architecture ~mapping:Casestudies.Pims.mapping ()
  in
  Format.printf "%a@." Walkthrough.Coverage_report.pp
    (Walkthrough.Coverage_report.of_set_result Casestudies.Pims.architecture result)

(* ------------------------------------------------------------------ *)
(* ENTITY-SIM: executing messages on the Fig. 7 architecture          *)
(* ------------------------------------------------------------------ *)

let entity_sim () =
  header "ENTITY-SIM" "Executing messages on the entity architecture (Figs. 7/8)";
  print_endline "The operator composes a message at the User Interface; it must traverse";
  print_endline "exactly the three components Fig. 8 maps sendMessage to, then the network.";
  let r = Casestudies.Crash_behavior.run_message_paths () in
  Printf.printf "outgoing path : %s -> network (%s)\n"
    (String.concat " -> " r.Casestudies.Crash_behavior.outgoing_path)
    (if r.Casestudies.Crash_behavior.outgoing_reached_network then "delivered"
     else "LOST");
  Printf.printf "incoming path : %s (operator %s)\n"
    (String.concat " -> " r.Casestudies.Crash_behavior.incoming_path)
    (if r.Casestudies.Crash_behavior.incoming_informed_ui then "informed"
     else "NOT informed");
  print_endline "";
  print_endline "with the Sharing Info Manager severed from the lower bus:";
  let broken =
    Adl.Diff.excise_link_between Casestudies.Crash.entity_architecture
      "sharing-info-manager" "bus-bottom"
  in
  let r2 = Casestudies.Crash_behavior.run_message_paths_on broken in
  Printf.printf "outgoing path : %s (%s)\n"
    (String.concat " -> " r2.Casestudies.Crash_behavior.outgoing_path)
    (if r2.Casestudies.Crash_behavior.outgoing_reached_network then "delivered"
     else "message LOST before the network")

(* ------------------------------------------------------------------ *)
(* FAULTS: availability under intermittent failures and partitions    *)
(* ------------------------------------------------------------------ *)

let faults () =
  header "FAULTS" "Availability under intermittent failures (extension of WALK-C)";
  print_endline "Fire sends one request per second for 100 s; Police crash-restarts every";
  print_endline "10 s, staying down for a growing fraction of each period.";
  Printf.printf "%10s | %8s | %10s | %8s | %8s\n" "down frac" "sent" "delivered" "ratio"
    "notices";
  Printf.printf "%s\n" (String.make 56 '-');
  List.iter
    (fun p ->
      Printf.printf "%10.2f | %8d | %10d | %8.3f | %8d\n"
        p.Casestudies.Crash_sim.downtime_fraction p.Casestudies.Crash_sim.stats.Dsim.Checks.sent
        p.Casestudies.Crash_sim.stats.Dsim.Checks.delivered
        p.Casestudies.Crash_sim.stats.Dsim.Checks.delivery_ratio
        p.Casestudies.Crash_sim.failure_notices)
    (Casestudies.Crash_sim.run_fault_sweep
       ~downtime_fractions:[ 0.0; 0.1; 0.25; 0.5; 0.75; 0.9 ]
       ());
  print_endline "";
  print_endline "Silent partition (no failure detector signal), healing at t=10 of 20:";
  let stats = Casestudies.Crash_sim.run_partition () in
  Format.printf "  %a@." Dsim.Checks.pp_stats stats

(* ------------------------------------------------------------------ *)
(* ABL-POLICY: routed vs direct hop policy                            *)
(* ------------------------------------------------------------------ *)

let ablation_policy () =
  header "ABL-POLICY" "Ablation: Routed vs Direct communication policy";
  print_endline "The paper's Fig. 4 narrative routes requests \"through intervening";
  print_endline "connectors and components\" (Routed); the stricter Direct policy only";
  print_endline "lets connectors relay. Effect on the 22 PIMS walkthroughs:";
  let count policy =
    let config = Walkthrough.Engine.config ~policy () in
    let r =
      Walkthrough.Engine.evaluate_set ~config ~set:Casestudies.Pims.scenario_set
        ~architecture:Casestudies.Pims.architecture ~mapping:Casestudies.Pims.mapping ()
    in
    List.length (List.filter Walkthrough.Verdict.is_consistent r.Walkthrough.Engine.results)
  in
  Printf.printf "  Routed: %d/22 consistent\n" (count Adl.Graph.Routed);
  Printf.printf "  Direct: %d/22 consistent\n" (count Adl.Graph.Direct)

(* ------------------------------------------------------------------ *)
(* ABL-GENERAL: event generalization vs a flat event vocabulary       *)
(* ------------------------------------------------------------------ *)

let ablation_generalization () =
  header "ABL-GENERAL" "Ablation: generalized event types vs a flat per-occurrence vocabulary";
  print_endline "Without generalization every occurrence is its own definition (reuse 1);";
  print_endline "with the PIMS ontology occurrences share 17 definitions (paper 5).";
  let stats = Scenarioml.Stats.of_set Casestudies.Pims.scenario_set in
  let shared =
    Mapping.Complexity.measure Casestudies.Pims.mapping ~usage:stats.Scenarioml.Stats.usage
  in
  (* flat variant: one synthetic event type per occurrence, each mapped
     with its original fanout *)
  let flat_usage =
    List.concat_map
      (fun (et, n) -> List.init n (fun i -> (Printf.sprintf "%s#%d" et i, 1)))
      stats.Scenarioml.Stats.usage
  in
  let flat_mapping =
    {
      Mapping.Types.mapping_id = "flat";
      ontology_id = "flat";
      architecture_id = "pims-arch";
      entries =
        List.map
          (fun (et_occ, _) ->
            let base = List.hd (String.split_on_char '#' et_occ) in
            {
              Mapping.Types.event_type = et_occ;
              components = Mapping.Types.components_of Casestudies.Pims.mapping base;
              rationale = "flattened";
            })
          flat_usage;
    }
  in
  let flat = Mapping.Complexity.measure flat_mapping ~usage:flat_usage in
  Printf.printf "%24s | %10s | %10s\n" "" "shared" "flat";
  Printf.printf "%24s | %10d | %10d\n" "distinct definitions"
    stats.Scenarioml.Stats.distinct_event_types_used (List.length flat_usage);
  Printf.printf "%24s | %10d | %10d\n" "definition->component" shared.Mapping.Complexity.definition_links
    flat.Mapping.Complexity.definition_links;
  Printf.printf "%24s | %10d | %10d\n" "total maintained links" shared.Mapping.Complexity.with_ontology
    flat.Mapping.Complexity.with_ontology;
  Printf.printf "link growth without generalization: %.2fx\n"
    (float_of_int flat.Mapping.Complexity.with_ontology
    /. float_of_int shared.Mapping.Complexity.with_ontology)

(* ------------------------------------------------------------------ *)
(* ABL-DYNAMIC: static vs behavioral walkthrough                      *)
(* ------------------------------------------------------------------ *)

let ablation_dynamic () =
  header "ABL-DYNAMIC" "Ablation: static walkthrough vs behavioral execution";
  print_endline "A scenario that saves prices before downloading them: every hop exists";
  print_endline "structurally, but the Loader's statechart rejects the premature save.";
  let reordered = Casestudies.Pims_behavior.reordered_get_share_prices in
  let set =
    Scenarioml.Scen.make_set ~id:"abl" ~name:"Ablation" Casestudies.Pims.ontology
      [ reordered ]
  in
  let static =
    Walkthrough.Engine.evaluate_scenario ~set ~architecture:Casestudies.Pims.architecture
      ~mapping:Casestudies.Pims.mapping reordered
  in
  Printf.printf "  static    : %s\n"
    (match static.Walkthrough.Verdict.verdict with
    | Walkthrough.Verdict.Consistent -> "CONSISTENT (defect missed)"
    | Walkthrough.Verdict.Inconsistent -> "INCONSISTENT");
  let dynamic =
    Walkthrough.Dynamic.evaluate_scenario ~set ~mapping:Casestudies.Pims.mapping
      ~charts:Casestudies.Pims_behavior.charts reordered
  in
  Printf.printf "  behavioral: %s\n"
    (if dynamic.Walkthrough.Dynamic.ok then "ACCEPTED" else "REJECTED (defect caught)");
  Format.printf "%a@." Walkthrough.Dynamic.pp_result dynamic

(* ------------------------------------------------------------------ *)
(* ABL-INFER: manual vs entity-inferred mapping                       *)
(* ------------------------------------------------------------------ *)

let ablation_infer () =
  header "ABL-INFER" "Ablation: hand-written mapping vs entity-based inference (paper 8)";
  let associations =
    [
      { Mapping.Infer.entity = "user"; responsible = [ "master-controller" ] };
      { Mapping.Infer.entity = "system"; responsible = [ "master-controller" ] };
      { Mapping.Infer.entity = "portfolio"; responsible = [ "portfolio-manager" ] };
      { Mapping.Infer.entity = "transaction"; responsible = [ "transaction-manager" ] };
      { Mapping.Infer.entity = "share-price"; responsible = [ "loader" ] };
      { Mapping.Infer.entity = "password"; responsible = [ "authentication" ] };
      {
        Mapping.Infer.entity = "repository-data";
        responsible = [ "data-access"; "data-repository" ];
      };
      { Mapping.Infer.entity = "website"; responsible = [ "remote-price-db" ] };
    ]
  in
  let inferred =
    Mapping.Infer.infer ~id:"pims-inferred" ~ontology:Casestudies.Pims.ontology
      ~architecture:Casestudies.Pims.architecture associations
  in
  Printf.printf "entity associations: %d (vs %d hand-written mapping entries)\n"
    (List.length associations)
    (List.length Casestudies.Pims.mapping.Mapping.Types.entries);
  Printf.printf "inferred entries: %d, links: %d (manual links: %d)\n"
    (List.length inferred.Mapping.Types.entries)
    (Mapping.Types.link_count inferred)
    (Mapping.Types.link_count Casestudies.Pims.mapping);
  let divergences = Mapping.Infer.compare_mappings Casestudies.Pims.mapping inferred in
  Printf.printf "divergent event types: %d\n" (List.length divergences);
  List.iteri
    (fun i d -> if i < 6 then Format.printf "  %a@." Mapping.Infer.pp_divergence d)
    divergences

(* ------------------------------------------------------------------ *)
(* RANK: scenario prioritization                                      *)
(* ------------------------------------------------------------------ *)

let rank () =
  header "RANK" "Scenario prioritization (the ranking the paper leaves open, 3.2)";
  List.iter
    (fun sc -> Format.printf "  %a@." Scenarioml.Rank.pp_score sc)
    (Scenarioml.Rank.rank Casestudies.Pims.scenario_set);
  let top = Scenarioml.Rank.cover Casestudies.Pims.scenario_set 5 in
  Printf.printf "a 5-scenario evaluation suite: %s\n" (String.concat ", " top)

(* ------------------------------------------------------------------ *)
(* Bench sections: helpers shared by the cases                         *)
(* ------------------------------------------------------------------ *)

(* CI smoke mode: tiny suites and rep counts, just enough to catch
   bit-rot in the harness itself (set SOSAE_BENCH_SMOKE=1). *)
let smoke = Sys.getenv_opt "SOSAE_BENCH_SMOKE" <> None

(* Wall-clock milliseconds of [f ()]. Compacting first puts every
   measurement in the same heap state, so earlier cases (the
   allocation-heavy micro-benchmarks in particular) don't skew
   whichever one happens to run next. *)
let time_ms f =
  Gc.compact ();
  let t0 = Unix.gettimeofday () in
  f ();
  (Unix.gettimeofday () -. t0) *. 1000.0

(* A gated row names the metric bench/trend.exe compares across runs
   (a throughput: a drop is a regression) and the fractional drop it
   tolerates. *)
let gated metric bound row =
  row
  @ [
      ( "gate",
        Jsonlight.Obj
          [ ("metric", Jsonlight.String metric); ("bound", Jsonlight.Float bound) ] );
    ]

let with_temp_dir prefix f =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let rec rm_rf path =
    match Unix.lstat path with
    | { Unix.st_kind = Unix.S_DIR; _ } ->
        Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
        Unix.rmdir path
    | _ -> Unix.unlink path
    | exception Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* A chain of [components], walked by [scenarios] scenarios that each
   touch a contiguous segment of [span] components (segments spread
   evenly over the chain). Excising one link in the middle then only
   dirties the scenarios whose segment crosses it — the workload shape
   an evaluation session exploits. *)
let synthetic_suite ~components ~scenarios ~span =
  let name i = Printf.sprintf "c%d" i in
  let ontology =
    List.fold_left
      (fun o i ->
        Ontology.Build.add_event_type ~id:(Printf.sprintf "e%d" i)
          ~name:(Printf.sprintf "e%d" i)
          ~template:(Printf.sprintf "step %d happens" i)
          o)
      (Ontology.Build.create ~id:"syn" ~name:"Synthetic")
      (List.init components Fun.id)
  in
  let architecture =
    let with_components =
      List.fold_left
        (fun t i ->
          Adl.Build.add_component ~id:(name i) ~name:(name i) ~responsibilities:[ "r" ] t)
        (Adl.Build.create ~id:"syn-arch" ~name:"Synthetic chain" ())
        (List.init components Fun.id)
    in
    List.fold_left
      (fun t i -> Adl.Build.biconnect t (name i) (name (i + 1)))
      with_components
      (List.init (components - 1) Fun.id)
  in
  let mapping =
    List.fold_left
      (fun m i ->
        Mapping.Build.map ~event_type:(Printf.sprintf "e%d" i) ~to_:[ name i ] m)
      (Mapping.Build.create ~id:"syn-map" ~ontology ~architecture)
      (List.init components Fun.id)
  in
  let span = min span components in
  let scenario k =
    let start = if scenarios = 1 then 0 else k * (components - span) / (scenarios - 1) in
    Scenarioml.Scen.scenario
      ~id:(Printf.sprintf "seg%d" k)
      ~name:(Printf.sprintf "Walk %d..%d" start (start + span - 1))
      (List.init span (fun i ->
           Scenarioml.Event.typed
             ~id:(Printf.sprintf "s%d-%d" k i)
             ~event_type:(Printf.sprintf "e%d" (start + i))
             []))
  in
  let set =
    Scenarioml.Scen.make_set ~id:"syn-set" ~name:"Synthetic" ontology
      (List.init scenarios scenario)
  in
  (set, architecture, mapping)

(* the INCR and SCALE suites: one 12-component segment per 8 components *)
let chains = if smoke then [ 64; 128 ] else [ 64; 256; 1024 ]
let chain_label n = Printf.sprintf "chain-%04d (%d scen.)" n (n / 8)
let chain_suite n = synthetic_suite ~components:n ~scenarios:(n / 8) ~span:12

let pims_project =
  {
    Core.Sosae.scenarios = Casestudies.Pims.scenario_set;
    architecture = Casestudies.Pims.architecture;
    mapping = Casestudies.Pims.mapping;
  }

(* ------------------------------------------------------------------ *)
(* PERF: Bechamel micro-benchmarks                                    *)
(* ------------------------------------------------------------------ *)

let pims_xml = lazy (Scenarioml.Xml_io.set_to_string Casestudies.Pims.scenario_set)

let micro_tests =
  let open Bechamel in
  [
    Test.make ~name:"xml-parse-pims-scenarios"
      (Staged.stage (fun () -> Xmlight.Parse.parse_exn (Lazy.force pims_xml)));
    Test.make ~name:"scenarioml-load-pims"
      (Staged.stage (fun () -> Scenarioml.Xml_io.set_of_string (Lazy.force pims_xml)));
    Test.make ~name:"validate-pims-scenarios"
      (Staged.stage (fun () -> Scenarioml.Validate.check Casestudies.Pims.scenario_set));
    Test.make ~name:"graph-build-pims"
      (Staged.stage (fun () -> Adl.Graph.of_structure Casestudies.Pims.architecture));
    Test.make ~name:"walkthrough-pims-22-scenarios"
      (Staged.stage (fun () ->
           Walkthrough.Engine.evaluate_set ~set:Casestudies.Pims.scenario_set
             ~architecture:Casestudies.Pims.architecture ~mapping:Casestudies.Pims.mapping
             ()));
    Test.make ~name:"walkthrough-one-scenario"
      (Staged.stage (fun () ->
           Walkthrough.Engine.evaluate_scenario ~set:Casestudies.Pims.scenario_set
             ~architecture:Casestudies.Pims.architecture ~mapping:Casestudies.Pims.mapping
             Casestudies.Pims.get_share_prices));
    Test.make ~name:"style-check-c2-entity"
      (Staged.stage (fun () ->
           Styles.Check.check_declared Casestudies.Crash.entity_architecture));
    Test.make ~name:"complexity-sweep"
      (Staged.stage (fun () ->
           Mapping.Complexity.sweep ~event_types:50 ~fanout:3 ~components:10
             ~reuse:[ 1; 10; 100 ]));
    Test.make ~name:"owl-export-and-closure"
      (Staged.stage (fun () ->
           Semweb.Reason.closure
             (Semweb.Export.full_export Casestudies.Crash.ontology
                Casestudies.Crash.entity_mapping)));
    Test.make ~name:"sim-availability"
      (Staged.stage (fun () -> Casestudies.Crash_sim.run_availability ~detector:true));
    Test.make ~name:"sim-ordering-8-msgs"
      (Staged.stage (fun () -> Casestudies.Crash_sim.run_ordering ~fifo:false ()));
    Test.make ~name:"sim-broadcast-7-peers"
      (Staged.stage (fun () -> Casestudies.Crash_sim.run_all_peers_broadcast ()));
    Test.make ~name:"arch-sim-entity-message"
      (Staged.stage (fun () -> Casestudies.Crash_behavior.run_message_paths ()));
    Test.make ~name:"bgp-query-crash-export"
      (Staged.stage
         (let store =
            Semweb.Export.full_export Casestudies.Crash.ontology
              Casestudies.Crash.entity_mapping
          in
          fun () ->
            Semweb.Query.select store
              [
                Semweb.Query.pattern (Semweb.Query.v "event")
                  (Semweb.Query.iri (Semweb.Term.Vocab.sosae "mapsTo"))
                  (Semweb.Query.v "component");
              ]));
  ]
  (* walkthrough cost vs system size: one scenario across an n-chain *)
  @ List.map
      (fun n ->
        let set, architecture, mapping = synthetic_suite ~components:n ~scenarios:1 ~span:n in
        Test.make ~name:(Printf.sprintf "walkthrough-chain-%03d" n)
          (Staged.stage (fun () ->
               Walkthrough.Engine.evaluate_set ~set ~architecture ~mapping ())))
      [ 8; 32; 128 ]

let micro_case test =
  let open Bechamel in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let analyzed = Analyze.all ols instance (Benchmark.all cfg [ instance ] test) in
  let name, result =
    match List.of_seq (Hashtbl.to_seq analyzed) with
    | [ one ] -> one
    | _ -> assert false (* one test in, one estimate out *)
  in
  let estimate =
    match Analyze.OLS.estimates result with Some [ e ] -> e | Some _ | None -> nan
  in
  [
    ("name", Jsonlight.String name);
    ("ns_per_run", Jsonlight.Float estimate);
    ("r_square", Jsonlight.Float (Option.value ~default:nan (Analyze.OLS.r_square result)));
  ]

(* ------------------------------------------------------------------ *)
(* INCR: full vs incremental re-evaluation after an edit              *)
(* ------------------------------------------------------------------ *)

let links_between architecture a b =
  List.filter
    (fun l ->
      let f = l.Adl.Structure.link_from.Adl.Structure.anchor
      and t = l.Adl.Structure.link_to.Adl.Structure.anchor in
      (String.equal f a && String.equal t b) || (String.equal f b && String.equal t a))
    architecture.Adl.Structure.links

(* Timed comparison: after excising the links between [a] and [b],
   re-evaluate the whole suite. "full" runs a fresh evaluation; the
   session applies the diff to a warm cache and re-evaluates only what
   the excision touched. Warming the sessions (the state a long-lived
   tool already has) is not timed. *)
let incr_case ~label ~reps ~a ~b (set, architecture, mapping) =
  let ops =
    List.map
      (fun l -> Adl.Diff.Remove_link l.Adl.Structure.link_id)
      (links_between architecture a b)
  in
  assert (ops <> []);
  let broken = Adl.Diff.apply_all architecture ops in
  let full_ms =
    time_ms (fun () ->
        for _ = 1 to reps do
          ignore (Walkthrough.Engine.evaluate_set ~set ~architecture:broken ~mapping ())
        done)
  in
  let project = { Core.Sosae.scenarios = set; architecture; mapping } in
  let sessions =
    List.init reps (fun _ ->
        let s = Core.Sosae.Session.create project in
        ignore (Core.Sosae.Session.evaluate s);
        s)
  in
  let incr_ms =
    time_ms (fun () ->
        List.iter
          (fun s ->
            Core.Sosae.Session.apply_diff s ops;
            ignore (Core.Sosae.Session.evaluate s))
          sessions)
  in
  let stats = Core.Sosae.Session.stats (List.hd sessions) in
  let total = List.length set.Scenarioml.Scen.scenarios in
  let per_rep ms = Jsonlight.Float (ms /. float_of_int reps) in
  [
    ("suite", Jsonlight.String label);
    ("scenarios", Jsonlight.Int total);
    ("reps", Jsonlight.Int reps);
    ("full_ms_per_rep", per_rep full_ms);
    ("incremental_ms_per_rep", per_rep incr_ms);
    ("speedup", Jsonlight.Float (full_ms /. incr_ms));
    ("re_evaluated", Jsonlight.Int (stats.Core.Sosae.Session.evaluations - total));
  ]

(* One design iteration through a fresh session, as the serving
   benchmark's edit-evaluate workload runs it minus XML and HTTP:
   create, cold evaluate, then excise a mid-chain link, rename a
   component and rename it back, each edit followed by an evaluate.
   Unlike [incr_case], the session's set-up is timed too. *)
let edit_loop_case ~label ~reps (set, architecture, mapping) =
  let n = List.length architecture.Adl.Structure.components in
  let excise =
    List.map
      (fun l -> Adl.Diff.Remove_link l.Adl.Structure.link_id)
      (links_between architecture
         (Printf.sprintf "c%d" (n / 2))
         (Printf.sprintf "c%d" ((n / 2) + 1)))
  in
  let o = Printf.sprintf "c%d" (n / 4) in
  let rename a b = [ Adl.Diff.Rename_element { old_id = a; new_id = b } ] in
  let edits = [ excise; rename o (o ^ "-v2"); rename (o ^ "-v2") o ] in
  let project = { Core.Sosae.scenarios = set; architecture; mapping } in
  let cold_ms = ref 0.0 in
  let total_ms =
    time_ms (fun () ->
        for _ = 1 to reps do
          let t0 = Unix.gettimeofday () in
          let s = Core.Sosae.Session.create project in
          ignore (Core.Sosae.Session.evaluate s);
          cold_ms := !cold_ms +. ((Unix.gettimeofday () -. t0) *. 1000.0);
          List.iter
            (fun ops ->
              Core.Sosae.Session.apply_diff s ops;
              ignore (Core.Sosae.Session.evaluate s))
            edits
        done)
  in
  let per_rep ms = Jsonlight.Float (ms /. float_of_int reps) in
  [
    ("suite", Jsonlight.String label);
    ("reps", Jsonlight.Int reps);
    ("iteration_ms_per_rep", per_rep total_ms);
    ("cold_ms_per_rep", per_rep !cold_ms);
    ("edits_ms_per_rep", per_rep (total_ms -. !cold_ms));
  ]

(* ------------------------------------------------------------------ *)
(* SCALE: parallel suite evaluation vs number of domains              *)
(* ------------------------------------------------------------------ *)

(* Pool widths worth timing: Dsim.Pool clamps wider requests to the
   core count, so they would only re-measure the widest real pool. *)
let pool_widths () =
  List.filter (fun jobs -> jobs <= max 1 (Core.Sosae.default_jobs ())) [ 1; 2; 4; 8 ]

let scale_case ~label ~reps (set, architecture, mapping) =
  let project = { Core.Sosae.scenarios = set; architecture; mapping } in
  let ms_per_eval jobs =
    ignore (Core.Sosae.evaluate ~jobs project) (* warm-up, not timed *);
    time_ms (fun () ->
        for _ = 1 to reps do
          ignore (Core.Sosae.evaluate ~jobs project)
        done)
    /. float_of_int reps
  in
  let timings = List.map (fun jobs -> (jobs, ms_per_eval jobs)) (pool_widths ()) in
  let base = List.assoc 1 timings in
  [
    ("suite", Jsonlight.String label);
    ("scenarios", Jsonlight.Int (List.length set.Scenarioml.Scen.scenarios));
    ("reps", Jsonlight.Int reps);
    ("cores", Jsonlight.Int (Core.Sosae.default_jobs ()));
    ( "runs",
      Jsonlight.List
        (List.map
           (fun (jobs, ms) ->
             Jsonlight.Obj
               [
                 ("jobs", Jsonlight.Int jobs);
                 ("ms_per_eval", Jsonlight.Float ms);
                 ("speedup", Jsonlight.Float (base /. ms));
               ])
           timings) );
  ]

(* The create path's byte-level layers on one inline POST /sessions of
   a chain suite: HTTP framing fed in the daemon's 8 KiB reads, JSON
   body decoding, and parsing + decoding the three XML documents. Each
   is timed on its own and reported per KiB of request. *)
let ingest_case n =
  let set, architecture, mapping = chain_suite n in
  let scenarios = Scenarioml.Xml_io.set_to_string set in
  let architecture = Adl.Xml_io.to_string architecture in
  let mapping = Mapping.Xml_io.to_string mapping in
  let body =
    Jsonlight.to_string
      (Jsonlight.Obj
         [
           ("id", Jsonlight.String "ingest");
           ("scenarios", Jsonlight.String scenarios);
           ("architecture", Jsonlight.String architecture);
           ("mapping", Jsonlight.String mapping);
         ])
  in
  let request =
    Bytes.of_string
      (Printf.sprintf "POST /sessions HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
         (String.length body) body)
  in
  let kib = float_of_int (Bytes.length request) /. 1024.0 in
  let reps = if smoke then 2 else max 5 (4096 / n) in
  let frame () =
    let p = Server.Http.parser_ () in
    let rec go off =
      let len = min 8192 (Bytes.length request - off) in
      Server.Http.feed_bytes p request off len;
      match Server.Http.next p with
      | `Request r -> assert (String.length r.Server.Http.body = String.length body)
      | `Need_more -> go (off + len)
      | `Error _ -> assert false
    in
    go 0
  in
  let decode () = assert (Result.is_ok (Jsonlight.of_string body)) in
  let load () =
    assert (Result.is_ok (Core.Sosae.project_of_strings ~scenarios ~architecture ~mapping))
  in
  let us_per_kib f =
    f () (* warm-up, not timed *);
    time_ms (fun () ->
        for _ = 1 to reps do
          f ()
        done)
    *. 1000.0 /. float_of_int reps /. kib
  in
  let http = us_per_kib frame and json = us_per_kib decode and xml = us_per_kib load in
  gated "kib_per_second" 0.5
    [
      ("suite", Jsonlight.String (Printf.sprintf "ingest chain-%04d" n));
      ("request_kib", Jsonlight.Float kib);
      ("reps", Jsonlight.Int reps);
      ("http_us_per_kib", Jsonlight.Float http);
      ("json_us_per_kib", Jsonlight.Float json);
      ("load_us_per_kib", Jsonlight.Float xml);
      ("kib_per_second", Jsonlight.Float (1e6 /. (http +. json +. xml)));
    ]

(* ------------------------------------------------------------------ *)
(* WAL: write-ahead journal throughput                                *)
(* ------------------------------------------------------------------ *)

(* The project every create journals, plus its XML serialization —
   passed as [~source] the way the API layer hands over the request
   strings it parsed, so the bench measures the server's actual
   journaled-create path (no per-create re-serialization). *)
let wal_source =
  lazy
    ( Scenarioml.Xml_io.set_to_string Casestudies.Pims.scenario_set,
      Adl.Xml_io.to_string Casestudies.Pims.architecture,
      Mapping.Xml_io.to_string Casestudies.Pims.mapping )

(* [writers] threads share [registry], each adding its own slice of
   [creates] PIMS sessions — with a journal, each add is the
   acknowledged-durability path of POST /sessions (journaled and
   fsynced per policy before it returns). Returns the adds done and
   their rate. *)
let add_session registry id =
  match Server.Registry.add registry ~id ~source:(Lazy.force wal_source) pims_project with
  | Ok () -> ()
  | Error `Conflict -> assert false

let add_sessions registry ~prefix ~writers ~creates =
  ignore (Lazy.force wal_source) (* serialized once, outside the timing *);
  let per_writer = creates / writers in
  let add w =
    for i = 0 to per_writer - 1 do
      add_session registry (Printf.sprintf "%s%d-s%04d" prefix w i)
    done
  in
  let ms =
    time_ms (fun () ->
        if writers = 1 then add 0
        else List.iter Thread.join (List.init writers (Thread.create add)))
  in
  let added = per_writer * writers in
  (added, float_of_int added /. (ms /. 1000.0))

(* compaction pinned out of reach: the cases measure the journaling
   path itself, not snapshot cost *)
let with_persist ?group fsync f =
  with_temp_dir "sosae-wal" (fun dir ->
      let persist = fst (Server.Persist.open_ ~fsync ?group ~compact_bytes:max_int dir) in
      Fun.protect ~finally:(fun () -> Server.Persist.close persist) (fun () -> f persist))

let wal_gate = gated "creates_per_second" 0.5

(* single-writer creates; [None] is the in-memory baseline *)
let wal_case ~label ~creates policy =
  let run persist =
    let registry = Server.Registry.create ?persist () in
    let creates, cps = add_sessions registry ~prefix:"w" ~writers:1 ~creates in
    let stats = Option.map Server.Persist.stats persist in
    let stat f = Jsonlight.Int (Option.fold ~none:0 ~some:f stats) in
    wal_gate
      [
        ("case", Jsonlight.String label);
        ("creates", Jsonlight.Int creates);
        ("creates_per_second", Jsonlight.Float cps);
        ("journal_bytes", stat (fun s -> s.Store.Wal.bytes));
        ("fsyncs", stat (fun s -> s.Store.Wal.fsyncs));
        ("compactions", stat (fun s -> s.Store.Wal.compactions));
      ]
  in
  match policy with
  | None -> run None
  | Some fsync -> with_persist fsync (fun p -> run (Some p))

(* 8 writers on one registry — the contended path POST /sessions takes
   under concurrent load. With [group] the writers stage under the
   mutation lock but share fsyncs through the group-commit barrier;
   without it every create pays its own. The default group config
   (window 0) lets batches form from the writers that queue while the
   previous fsync is in flight: on this host a sleep-based
   accumulation window costs more than the fsyncs it saves. *)
let wal_concurrent_case ~label ~creates ~group fsync =
  let group = if group then Some Store.Journal.Group.default else None in
  with_persist ?group fsync (fun persist ->
      let registry = Server.Registry.create ~persist () in
      let creates, cps = add_sessions registry ~prefix:"w" ~writers:8 ~creates in
      let s = Server.Persist.stats persist in
      let saved, largest =
        match Server.Persist.group_stats persist with
        | Some g -> (g.Store.Journal.Group.fsyncs_saved, g.Store.Journal.Group.largest_batch)
        | None -> (0, 0)
      in
      wal_gate
        [
          ("case", Jsonlight.String label);
          ("creates", Jsonlight.Int creates);
          ("writers", Jsonlight.Int 8);
          ("creates_per_second", Jsonlight.Float cps);
          ("journal_bytes", Jsonlight.Int s.Store.Wal.bytes);
          ("fsyncs", Jsonlight.Int s.Store.Wal.fsyncs);
          ("fsyncs_saved", Jsonlight.Int saved);
          ("largest_batch", Jsonlight.Int largest);
          ("compactions", Jsonlight.Int s.Store.Wal.compactions);
        ])

(* ------------------------------------------------------------------ *)
(* REPL: log-shipping replication                                     *)
(* ------------------------------------------------------------------ *)

(* Poll [GET /replication] on [daemon] until the replica has applied
   at least [seq] with zero lag against its primary. *)
let repl_wait ?(timeout = 30.0) daemon ~seq =
  let c = Server.Client.connect ~port:(Server.Daemon.port daemon) () in
  Fun.protect
    ~finally:(fun () -> Server.Client.close c)
    (fun () ->
      let deadline = Unix.gettimeofday () +. timeout in
      let rec loop () =
        match Server.Client.replication c with
        | Ok r
          when r.Server.Client.applied_seq >= seq && r.Server.Client.lag = 0L
          ->
            ()
        | _ when Unix.gettimeofday () > deadline ->
            failwith "repl bench: replica did not catch up"
        | _ ->
            Thread.delay 0.005;
            loop ()
      in
      loop ())

let with_daemon config f =
  let daemon =
    Server.Daemon.start
      ~config:{ config with Server.Daemon.port = 0; queue_capacity = 256 }
      ()
  in
  Fun.protect ~finally:(fun () -> Server.Daemon.stop daemon) (fun () -> f daemon)

(* A primary journaling to a temp dir with a live replica tailing it:
   8 writers journal creates on the primary while a sampler polls the
   replica's lag. *)
let ship_lag_case () =
  with_temp_dir "sosae-repl" @@ fun dir ->
  with_daemon
    {
      Server.Daemon.default_config with
      workers = (if smoke then 2 else 4);
      data_dir = Some dir;
      fsync = Store.Journal.Never;
      compact_threshold = max_int;
    }
  @@ fun primary ->
  with_daemon
    {
      Server.Daemon.default_config with
      workers = (if smoke then 2 else 8);
      replica_of = Some ("127.0.0.1", Server.Daemon.port primary);
      replica_poll = 0.002;
    }
  @@ fun replica ->
  let registry = (Server.Daemon.ctx primary).Server.Api.registry in
  add_session registry "pims";
  repl_wait replica ~seq:1L;
  let stop_sampling = Atomic.make false in
  let max_lag = ref 0L in
  let samples = ref [] in
  let sampler =
    Thread.create
      (fun () ->
        let rport = Server.Daemon.port replica in
        let c = ref (Server.Client.connect ~port:rport ()) in
        while not (Atomic.get stop_sampling) do
          (match Server.Client.replication !c with
          | Ok r ->
              let lag = r.Server.Client.lag in
              if lag > !max_lag then max_lag := lag;
              samples := lag :: !samples
          | Error _ ->
              Server.Client.close !c;
              c := Server.Client.connect ~port:rport ());
          Thread.delay 0.002
        done;
        Server.Client.close !c)
      ()
  in
  let creates, cps =
    add_sessions registry ~prefix:"r" ~writers:8 ~creates:(if smoke then 16 else 200)
  in
  let t0 = Unix.gettimeofday () in
  repl_wait replica ~seq:(Int64.of_int (creates + 1));
  let catchup_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  Atomic.set stop_sampling true;
  Thread.join sampler;
  let mean_lag =
    match !samples with
    | [] -> 0.0
    | l ->
        List.fold_left (fun acc x -> acc +. Int64.to_float x) 0.0 l
        /. float_of_int (List.length l)
  in
  [
    ("case", Jsonlight.String "ship lag (8 writers)");
    ("creates", Jsonlight.Int creates);
    ("creates_per_second", Jsonlight.Float cps);
    ("max_lag_records", Jsonlight.Int (Int64.to_int !max_lag));
    ("mean_lag_records", Jsonlight.Float mean_lag);
    ("catchup_ms", Jsonlight.Float catchup_ms);
    ("lag_samples", Jsonlight.Int (List.length !samples));
  ]

(* A fresh replica tailing a journal of one create plus alternating
   component renames — small records, so a record-by-record replay
   costs exactly the per-record apply work that a snapshot bootstrap
   ([~snapshot]: the store is checkpointed first, so a fresh cursor
   gets the compacted snapshot's reset batch) collapses into one state
   install. *)
let catchup_case ~label ~snapshot =
  let records = if smoke then 200 else 10_000 in
  with_temp_dir "sosae-repl-catchup" @@ fun dir ->
  let persist, _ =
    Server.Persist.open_ ~fsync:Store.Journal.Never ~compact_bytes:max_int dir
  in
  Fun.protect ~finally:(fun () -> Server.Persist.close persist) @@ fun () ->
  let registry = Server.Registry.create ~persist () in
  add_session registry "pims";
  for i = 1 to records - 1 do
    let rename =
      if i land 1 = 1 then
        Adl.Diff.Rename_element { old_id = "loader"; new_id = "loader-b" }
      else Adl.Diff.Rename_element { old_id = "loader-b"; new_id = "loader" }
    in
    match Server.Registry.apply_diff registry "pims" ~ops:(fun _ -> [ rename ]) with
    | Ok _ -> ()
    | Error _ -> assert false
  done;
  if snapshot then Server.Registry.checkpoint registry;
  let replica = Server.Registry.create () in
  let applied = ref 0L in
  let batches = ref 0 in
  let rec pump () =
    let batch = Server.Persist.ship persist ~after:!applied in
    if batch.Store.Ship.reset || batch.Store.Ship.data <> "" then begin
      incr batches;
      (match
         Server.Registry.apply_shipped replica ~reset:batch.Store.Ship.reset
           batch.Store.Ship.data
       with
      | Ok (_, last) -> if last > !applied then applied := last
      | Error e -> failwith ("repl bench: bad batch: " ^ e));
      pump ()
    end
  in
  let ms = time_ms pump in
  gated "records_per_second" 0.5
    [
      ("case", Jsonlight.String label);
      ("records", Jsonlight.Int records);
      ("catchup_ms", Jsonlight.Float ms);
      ( "records_per_second",
        Jsonlight.Float (float_of_int records /. Float.max 1e-9 (ms /. 1000.0)) );
      ("batches", Jsonlight.Int !batches);
    ]

(* ------------------------------------------------------------------ *)
(* SIM: Monte-Carlo dependability campaigns                           *)
(* ------------------------------------------------------------------ *)

let sim_case ~label ~trials campaign =
  let seconds jobs =
    (* One reusable pool per jobs count; the warm-up batch also pays
       the domain-spawn cost so the timed batches measure trial
       throughput, not pool setup. *)
    Dsim.Pool.with_pool ~jobs (fun pool ->
        ignore (Dsim.Campaign.run ~pool ~trials:(min trials 50) campaign);
        time_ms (fun () -> ignore (Dsim.Campaign.run ~pool ~trials campaign)) /. 1000.0)
  in
  let timings = List.map (fun jobs -> (jobs, seconds jobs)) (pool_widths ()) in
  let base = List.assoc 1 timings in
  let report = Dsim.Campaign.report ~trials campaign in
  [
    ("campaign", Jsonlight.String label);
    ("trials", Jsonlight.Int trials);
    ("cores", Jsonlight.Int (Core.Sosae.default_jobs ()));
    ("completion_rate", Jsonlight.Float report.Dsim.Stats.completion_rate);
    ( "completion_ci",
      Jsonlight.Obj
        [
          ("lo", Jsonlight.Float report.Dsim.Stats.completion_ci.Dsim.Stats.lo);
          ("hi", Jsonlight.Float report.Dsim.Stats.completion_ci.Dsim.Stats.hi);
        ] );
    ("mean_uptime", Jsonlight.Float report.Dsim.Stats.mean_uptime);
    ( "runs",
      Jsonlight.List
        (List.map
           (fun (jobs, s) ->
             Jsonlight.Obj
               [
                 ("jobs", Jsonlight.Int jobs);
                 ("seconds", Jsonlight.Float s);
                 ( "trials_per_sec",
                   Jsonlight.Float (if s > 0.0 then float_of_int trials /. s else 0.0) );
                 ("speedup", Jsonlight.Float (base /. s));
               ])
           timings) );
  ]

(* ------------------------------------------------------------------ *)
(* The section table and its runner                                   *)
(* ------------------------------------------------------------------ *)

(* A section is data: its command-line target, its key in
   BENCH_walkthrough.json, a header and intro, and its cases. Each
   case runs once and returns one row of named fields, the first of
   which labels the row; bench/trend.exe compares the rows that carry
   a "gate". *)
type section = {
  target : string;
  key : string;
  id : string;
  title : string;
  intro : string;
  cases : (unit -> (string * Jsonlight.t) list) list;
}

let cores_note =
  Printf.sprintf
    "(host reports %d recommended domain(s) — speedup > 1 needs more than one core;\n\
     pools are clamped to that count, so only widths up to it are timed)\n"
    (Core.Sosae.default_jobs ())

let sections =
  [
    {
      target = "bench";
      key = "micro";
      id = "PERF";
      title = "Bechamel micro-benchmarks (one per pipeline stage)";
      intro = "";
      cases = List.map (fun test () -> micro_case test) micro_tests;
    };
    {
      target = "incr";
      key = "incremental";
      id = "INCR";
      title = "Full vs incremental re-evaluation after a single-link excision";
      intro =
        "Each suite is re-evaluated after excising one link: \"full\" evaluates\n\
         every scenario afresh; \"incremental\" replays a warm Sosae.Session\n\
         (per-rep times; re_evaluated = scenarios the session re-walked).\n\
         The edit-loop row times whole design iterations on a fresh session:\n\
         create + cold evaluate, then excise / rename / rename back, each\n\
         followed by an evaluate.\n";
      cases =
        List.map
          (fun n () ->
            incr_case ~label:(chain_label n)
              ~reps:(if smoke then 2 else max 3 (2048 / n))
              ~a:(Printf.sprintf "c%d" (n / 2))
              ~b:(Printf.sprintf "c%d" ((n / 2) + 1))
              (chain_suite n))
          chains
        @ [
            (fun () ->
              incr_case ~label:"pims-excise-loader-da" ~reps:(if smoke then 5 else 100)
                ~a:"loader" ~b:"data-access"
                ( Casestudies.Pims.scenario_set,
                  Casestudies.Pims.architecture,
                  Casestudies.Pims.mapping ));
            (fun () ->
              let n = List.fold_left max 0 chains in
              edit_loop_case
                ~label:(Printf.sprintf "edit-loop chain-%04d" n)
                ~reps:(if smoke then 2 else 20)
                (chain_suite n));
          ];
    };
    {
      target = "scale";
      key = "scale";
      id = "SCALE";
      title = "Suite evaluation wall-clock vs domain-pool size (--jobs), and create ingest";
      intro =
        "Every scenario of a suite is an independent walkthrough; Sosae.evaluate ~jobs\n\
         fans them out over an OCaml 5 domain pool (per-rep times)\n" ^ cores_note
        ^ "The ingest rows time one inline POST /sessions of a chain suite per layer,\n\
           in microseconds per KiB of request: HTTP framing in 8 KiB feeds, JSON body\n\
           decoding, and Sosae.project_of_strings (XML parsing and decoding).\n";
      cases =
        List.map
          (fun n () ->
            scale_case ~label:(chain_label n)
              ~reps:(if smoke then 2 else max 3 (4096 / n))
              (chain_suite n))
          chains
        @ List.map (fun n () -> ingest_case n) (if smoke then [ 64 ] else [ 256; 1024 ]);
    };
    {
      target = "wal";
      key = "wal";
      id = "WAL";
      title = "Durable session creation: journaled-create throughput per fsync policy";
      intro =
        "Each create journals the full PIMS project (~38 KB) before returning —\n\
         the same acknowledged-durability path POST /sessions takes with\n\
         --data-dir. \"no-journal\" is the in-memory baseline; the \"w8\" cases\n\
         share one registry between 8 concurrent writers.\n";
      cases =
        (let creates = if smoke then 5 else 200 in
         let w8 = if smoke then 8 else 400 in
         List.map
           (fun (label, policy) () -> wal_case ~label ~creates policy)
           [
             ("no-journal", None);
             ("fsync=never", Some Store.Journal.Never);
             ("fsync=interval:0.05", Some (Store.Journal.Interval 0.05));
             ("fsync=always", Some Store.Journal.Always);
           ]
         @ List.concat_map
             (fun (name, fsync) ->
               List.map
                 (fun group () ->
                   wal_concurrent_case
                     ~label:("w8 fsync=" ^ name ^ if group then " group" else "")
                     ~creates:w8 ~group fsync)
                 [ false; true ])
             [
               ("always", Store.Journal.Always);
               ("never", Store.Journal.Never);
               ("interval:0.05", Store.Journal.Interval 0.05);
             ]);
    };
    {
      target = "repl";
      key = "repl";
      id = "REPL";
      title = "Log-shipping replication (primary + replica, loopback TCP)";
      intro =
        "A replica tails the primary's journal over GET /replication/log; \"ship\n\
         lag\" samples GET /replication on the replica while 8 writers create\n\
         sessions on the primary. The catch-up cases tail a journal of one\n\
         create plus renames into a fresh replica, record by record and from\n\
         the compacted snapshot.\n";
      cases =
        [
          ship_lag_case;
          (fun () -> catchup_case ~label:"catch-up: full replay" ~snapshot:false);
          (fun () -> catchup_case ~label:"catch-up: snapshot bootstrap" ~snapshot:true);
        ];
    };
    {
      target = "sim";
      key = "sim";
      id = "SIM";
      title = "Monte-Carlo campaign trials/sec vs domain-pool size (--jobs)";
      intro =
        "Each trial runs one sampled fault plan (crash window + downtime, seeded\n\
         loss/jitter) through the architecture simulator; trials are independent and\n\
         fan out on a reusable Dsim.Pool\n" ^ cores_note;
      cases =
        (let trials = if smoke then 60 else 4000 in
         [
           (fun () ->
             sim_case ~label:"crash-availability" ~trials
               (Casestudies.Campaigns.crash_availability ~loss:0.05 ()));
           (fun () ->
             sim_case ~label:"pims-price-feed" ~trials
               (Casestudies.Campaigns.pims_price_feed ~loss:0.05 ()));
         ]);
    };
  ]

let rec show = function
  | Jsonlight.String s -> s
  | Jsonlight.Int i -> string_of_int i
  | Jsonlight.Float f -> Printf.sprintf (if Float.abs f >= 1000.0 then "%.0f" else "%.3f") f
  | Jsonlight.Obj fields ->
      "{" ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ show v) fields) ^ "}"
  | Jsonlight.List items -> String.concat "" (List.map (fun v -> "\n    " ^ show v) items)
  | v -> Jsonlight.to_string v

(* Prints the section and returns its JSON: one object per case. *)
let run_section s =
  header s.id s.title;
  print_string s.intro;
  print_newline ();
  let row case =
    let fields = case () in
    (match fields with
    | (_, label) :: rest ->
        Printf.printf "%-30s %s\n%!" (show label)
          (String.concat "  " (List.map (fun (k, v) -> k ^ "=" ^ show v) rest))
    | [] -> ());
    Jsonlight.Obj fields
  in
  (s.key, Jsonlight.List (List.map row s.cases))

let bench_json_file = "BENCH_walkthrough.json"

(* Machine-readable companion of the section tables, for tooling, the
   trend gate and EXPERIMENTS.md. Sections that did not run in this
   invocation are carried over from the existing file instead of being
   clobbered — only sections still in the table, so a retired section
   is dropped rather than copied forward. *)
let write_bench_json fresh =
  if fresh <> [] then begin
    let existing =
      if not (Sys.file_exists bench_json_file) then []
      else begin
        let ic = open_in_bin bench_json_file in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        match Jsonlight.of_string s with
        | Ok (Jsonlight.Obj fields) -> fields
        | Ok _ | Error _ -> []
      end
    in
    let section s =
      match List.assoc_opt s.key fresh with
      | Some rows -> Some (s.key, rows)
      | None -> Option.map (fun kept -> (s.key, kept)) (List.assoc_opt s.key existing)
    in
    let json =
      Jsonlight.Obj
        ([
           ("schema", Jsonlight.String "sosae-bench/1");
           ("sosae_version", Jsonlight.String Core.Sosae.version);
         ]
        @ List.filter_map section sections)
    in
    let write path =
      let oc = open_out path in
      output_string oc (Jsonlight.to_string json);
      output_char oc '\n';
      close_out oc
    in
    write bench_json_file;
    Printf.printf "\nwrote %s\n" bench_json_file;
    (* Trend history: every run also lands in bench/results/ as a
       timestamped file plus latest.json, which bench/trend.exe diffs
       against a previous run's latest.json. Skipped when not run from
       the repo root. *)
    if Sys.file_exists "bench" && Sys.is_directory "bench" then begin
      let results_dir = Filename.concat "bench" "results" in
      if not (Sys.file_exists results_dir) then Unix.mkdir results_dir 0o755;
      let tm = Unix.localtime (Unix.gettimeofday ()) in
      let stamped =
        Filename.concat results_dir
          (Printf.sprintf "%04d%02d%02d-%02d%02d%02d.json"
             (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
             tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec)
      in
      let latest = Filename.concat results_dir "latest.json" in
      write stamped;
      write latest;
      Printf.printf "wrote %s and %s\n" stamped latest
    end
  end

(* ------------------------------------------------------------------ *)
(* driver                                                             *)
(* ------------------------------------------------------------------ *)

let artifacts =
  [
    ("fig1", fig1);
    ("fig2", fig2);
    ("fig3", fig3);
    ("tab1", tab1);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("crash-avail", crash_avail);
    ("crash-order", crash_order);
    ("complexity", complexity);
    ("cover", cover);
    ("entity-sim", entity_sim);
    ("faults", faults);
    ("abl-policy", ablation_policy);
    ("abl-general", ablation_generalization);
    ("abl-dynamic", ablation_dynamic);
    ("abl-infer", ablation_infer);
    ("rank", rank);
  ]

let () =
  let targets =
    match Array.to_list Sys.argv with _ :: [] | [] -> [ "all" ] | _ :: rest -> rest
  in
  let fresh = ref [] in
  let run s = fresh := run_section s :: !fresh in
  List.iter
    (fun target ->
      let section = List.find_opt (fun s -> s.target = target) sections in
      match (List.assoc_opt target artifacts, section) with
      | Some f, _ -> f ()
      | None, Some s -> run s
      | None, None when target = "all" ->
          List.iter (fun (_, f) -> f ()) artifacts;
          List.iter run sections
      | None, None ->
          Printf.eprintf "unknown target %S; known: %s, all\n" target
            (String.concat ", "
               (List.map fst artifacts @ List.map (fun s -> s.target) sections));
          exit 2)
    targets;
  write_bench_json !fresh
