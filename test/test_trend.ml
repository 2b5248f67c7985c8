(* The bench-trend gate, driven as a binary (made available by the dune
   (deps ...) clause as ../bench/trend.exe) over small result files. *)

let trend = "../bench/trend.exe"

let dir =
  lazy
    (let d = Filename.temp_file "sosae-trend" "" in
     Sys.remove d;
     Sys.mkdir d 0o755;
     d)

let fixture name json =
  let path = Filename.concat (Lazy.force dir) name in
  let oc = open_out_bin path in
  output_string oc json;
  close_out oc;
  path

let exit_code prev next =
  Sys.command
    (Printf.sprintf "%s %s %s > /dev/null 2>&1" trend (Filename.quote prev)
       (Filename.quote next))

let wal_row ?(gate = true) label cps =
  Printf.sprintf {|{"case":%S,"creates":200,"creates_per_second":%g%s}|} label cps
    (if gate then {|,"gate":{"metric":"creates_per_second","bound":0.5}|} else "")

let result rows = Printf.sprintf {|{"schema":"sosae-bench/1","wal":[%s]}|} (String.concat "," rows)

let prev = lazy (fixture "prev.json" (result [ wal_row "a" 1000.; wal_row "b" 500. ]))

let check what expected prev next =
  Alcotest.(check int) what expected (exit_code prev next)

let test_within_bound () =
  check "-40% against a 50% bound" 0 (Lazy.force prev)
    (fixture "within.json" (result [ wal_row "a" 600.; wal_row "b" 900. ]))

let test_regression () =
  check "-60% against a 50% bound" 1 (Lazy.force prev)
    (fixture "regressed.json" (result [ wal_row "a" 400.; wal_row "b" 500. ]))

let test_dropped_and_new () =
  check "b dropped, c new" 0 (Lazy.force prev)
    (fixture "reshaped.json" (result [ wal_row "a" 1000.; wal_row "c" 1. ]))

(* A baseline from before rows carried gates: a "serve" section nothing
   succeeds, no gate fields, and the catch-up throughput still under
   its old key. NEXT's gates decide what is compared. *)
let old_baseline =
  lazy
    (fixture "old.json"
       ({|{"schema":"sosae-bench/1",|}
       ^ {|"serve":[{"case":"GET /health","requests_per_second":40000}],|}
       ^ {|"wal":[|} ^ wal_row ~gate:false "a" 1000. ^ "],"
       ^ {|"repl":[{"case":"catch-up: full replay","records":200,"requests_per_second":90000}]}|}))

let next_with_catchup a =
  fixture "next.json"
    ({|{"schema":"sosae-bench/1","wal":[|} ^ wal_row "a" a ^ "],"
    ^ {|"repl":[{"case":"catch-up: full replay","records":200,"records_per_second":80000,|}
    ^ {|"gate":{"metric":"records_per_second","bound":0.5}}]}|})

let test_old_baseline () =
  check "pre-gate baseline" 0 (Lazy.force old_baseline) (next_with_catchup 900.);
  check "pre-gate baseline still gates a shared case" 1 (Lazy.force old_baseline)
    (next_with_catchup 100.)

let test_unusable () =
  let next = fixture "ok.json" (result [ wal_row "a" 1000. ]) in
  check "missing file" 2 (Filename.concat (Lazy.force dir) "absent.json") next;
  check "malformed file" 2 (fixture "bad.json" "{\"wal\":[") next;
  check "no gated case in NEXT" 2 (Lazy.force prev)
    (fixture "ungated.json" (result [ wal_row ~gate:false "a" 1000. ]));
  Alcotest.(check int) "one argument" 2 (Sys.command (trend ^ " " ^ next ^ " > /dev/null 2>&1"))

let suite =
  [
    Alcotest.test_case "within bound passes" `Quick test_within_bound;
    Alcotest.test_case "regression beyond a case's bound fails" `Quick test_regression;
    Alcotest.test_case "dropped and new cases are not fatal" `Quick test_dropped_and_new;
    Alcotest.test_case "baseline without gates or serve successor" `Quick test_old_baseline;
    Alcotest.test_case "unusable inputs exit 2" `Quick test_unusable;
  ]
