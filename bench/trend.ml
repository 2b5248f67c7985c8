(* Bench-trend gate: compare two bench result files (bench/main.exe
   writes them under bench/results/) and fail when a gated case
   regressed beyond its own bound.

     trend PREV.json NEXT.json

   Every section of a result file is a list of case rows whose first
   field is the row's label. A row of NEXT that carries
   "gate": {"metric": K, "bound": B} is compared with the row of the
   same section and label in PREV: a drop of K (a throughput) by more
   than the fraction B is a regression. Exit 0 when every gated case
   present in both files is within its bound (new and dropped cases are
   reported but never fatal), exit 1 on a regression, exit 2 on
   unusable inputs. CI runs this against the previous run's
   latest.json. *)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("trend: " ^ m); exit 2) fmt

let read_json path =
  match
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Jsonlight.of_string s
  with
  | Ok j -> j
  | Error m -> fail "%s: %s" path m
  | exception Sys_error m -> fail "%s" m

let number = function
  | Some (Jsonlight.Float f) -> Some f
  | Some (Jsonlight.Int i) -> Some (float_of_int i)
  | _ -> None

(* ("section / label", fields) for every case row of every section *)
let rows path =
  match read_json path with
  | Jsonlight.Obj sections ->
      List.concat_map
        (function
          | section, Jsonlight.List cases ->
              List.filter_map
                (function
                  | Jsonlight.Obj ((_, Jsonlight.String label) :: _ as fields) ->
                      Some (section ^ " / " ^ label, fields)
                  | _ -> None)
                cases
          | _ -> [])
        sections
  | _ -> fail "%s: not a bench result object" path

let gate fields =
  match List.assoc_opt "gate" fields with
  | Some g -> (
      match
        ( Option.bind (Jsonlight.member "metric" g) Jsonlight.string_opt,
          number (Jsonlight.member "bound" g) )
      with
      | Some metric, Some bound -> Some (metric, bound)
      | _ -> None)
  | None -> None

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ prev_path; next_path ] ->
      let prev = rows prev_path and next = rows next_path in
      let gated rows =
        List.filter_map
          (fun (name, fields) -> Option.map (fun g -> (name, fields, g)) (gate fields))
          rows
      in
      let next_gated = gated next in
      if next_gated = [] then fail "%s has no gated case" next_path;
      let regressions = ref 0 in
      List.iter
        (fun (name, fields, (metric, bound)) ->
          let now = number (List.assoc_opt metric fields) in
          let before =
            Option.bind (List.assoc_opt name prev) (fun f -> number (List.assoc_opt metric f))
          in
          match (before, now) with
          | _, None -> fail "%s: %s has no %s" next_path name metric
          | None, Some v -> Printf.printf "+ %-44s new case at %.0f %s\n" name v metric
          | Some old, Some v when old <= 0.0 ->
              (* the relative change against a 0 baseline is nan/inf,
                 which no bound comparison can flag — a dead case stays
                 dead only if we say so explicitly *)
              let regressed = v <= 0.0 in
              if regressed then incr regressions;
              Printf.printf "%c %-44s %10.0f -> %10.0f %s (baseline unusable)%s\n"
                (if regressed then '!' else '?')
                name old v metric
                (if regressed then "  REGRESSION (still 0)" else "  not compared")
          | Some old, Some v ->
              let change = (v -. old) /. old in
              let regressed = change < -.bound in
              if regressed then incr regressions;
              Printf.printf "%c %-44s %10.0f -> %10.0f %s (%+.1f%%, bound -%.0f%%)%s\n"
                (if regressed then '!' else '.')
                name old v metric (100.0 *. change) (100.0 *. bound)
                (if regressed then "  REGRESSION" else ""))
        next_gated;
      List.iter
        (fun (name, _, _) ->
          if not (List.mem_assoc name next) then Printf.printf "~ %-44s dropped\n" name)
        (gated prev);
      if !regressions > 0 then begin
        Printf.eprintf "trend: %d gated case(s) regressed beyond their bound\n" !regressions;
        exit 1
      end
  | _ ->
      prerr_endline "usage: trend PREV.json NEXT.json";
      exit 2
