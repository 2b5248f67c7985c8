(* Unit and property tests for the XML substrate. *)

let parse_ok s =
  match Xmlight.Parse.parse s with
  | Ok doc -> doc
  | Error e -> Alcotest.failf "parse error: %s" (Xmlight.Parse.error_to_string e)

let parse_err s =
  match Xmlight.Parse.parse s with
  | Ok _ -> Alcotest.failf "expected a parse error on %S" s
  | Error e -> e

let test_minimal () =
  let doc = parse_ok "<root/>" in
  Alcotest.(check string) "tag" "root" doc.Xmlight.Doc.root.Xmlight.Doc.tag;
  Alcotest.(check int) "no children" 0 (List.length doc.Xmlight.Doc.root.Xmlight.Doc.children)

let test_declaration () =
  let doc = parse_ok "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<a/>" in
  Alcotest.(check int) "decl attrs" 2 (List.length doc.Xmlight.Doc.decl)

let test_attributes () =
  let doc = parse_ok "<a x=\"1\" y='two' z=\"a&amp;b\"/>" in
  let root = doc.Xmlight.Doc.root in
  Alcotest.(check (option string)) "x" (Some "1") (Xmlight.Doc.attr root "x");
  Alcotest.(check (option string)) "y" (Some "two") (Xmlight.Doc.attr root "y");
  Alcotest.(check (option string)) "z" (Some "a&b") (Xmlight.Doc.attr root "z");
  Alcotest.(check (option string)) "missing" None (Xmlight.Doc.attr root "w");
  Alcotest.(check string) "default" "d" (Xmlight.Doc.attr_default root "w" "d")

let test_text_and_entities () =
  let doc = parse_ok "<a>x &lt;&gt; &amp; &quot;&apos; y</a>" in
  Alcotest.(check string) "text" "x <> & \"' y" (Xmlight.Doc.child_text doc.Xmlight.Doc.root)

let test_numeric_entities () =
  let doc = parse_ok "<a>&#65;&#x42;</a>" in
  Alcotest.(check string) "decoded" "AB" (Xmlight.Doc.child_text doc.Xmlight.Doc.root)

let test_nested_structure () =
  let doc = parse_ok "<a><b><c/></b><b/><d>t</d></a>" in
  let root = doc.Xmlight.Doc.root in
  Alcotest.(check int) "bs" 2 (List.length (Xmlight.Doc.find_children root "b"));
  Alcotest.(check bool) "c under first b" true
    (match Xmlight.Doc.find_child root "b" with
    | Some b -> Xmlight.Doc.find_child b "c" <> None
    | None -> false);
  Alcotest.(check int) "node count" 5 (Xmlight.Doc.node_count root)

let test_comments_and_pi () =
  let doc = parse_ok "<!-- before --><a><!-- in --><?target data?><b/></a><!-- after -->" in
  let root = doc.Xmlight.Doc.root in
  Alcotest.(check int) "element children" 1 (List.length (Xmlight.Doc.children_elements root))

let test_cdata () =
  let doc = parse_ok "<a><![CDATA[<raw> & stuff]]></a>" in
  Alcotest.(check string) "cdata text" "<raw> & stuff"
    (Xmlight.Doc.child_text doc.Xmlight.Doc.root)

let test_doctype_skipped () =
  let doc = parse_ok "<!DOCTYPE a [ <!ELEMENT a EMPTY> ]><a/>" in
  Alcotest.(check string) "root" "a" doc.Xmlight.Doc.root.Xmlight.Doc.tag

let test_errors () =
  let e = parse_err "<a><b></a>" in
  Alcotest.(check bool) "mismatch mentioned" true
    (String.length e.Xmlight.Parse.message > 0);
  ignore (parse_err "<a>");
  ignore (parse_err "");
  ignore (parse_err "<a/><b/>");
  ignore (parse_err "<a x=1/>");
  ignore (parse_err "<a>&unknown;</a>")

let test_error_position () =
  let e = parse_err "<a>\n  <b>\n</a>" in
  Alcotest.(check bool) "line > 1" true (e.Xmlight.Parse.position.Xmlight.Parse.line > 1)

let test_print_escapes () =
  Alcotest.(check string) "text" "a&amp;b&lt;c&gt;" (Xmlight.Print.escape_text "a&b<c>");
  Alcotest.(check string) "attr" "&quot;x&apos;" (Xmlight.Print.escape_attr "\"x'")

let test_print_parse_roundtrip () =
  let e =
    Xmlight.Doc.element ~attrs:[ ("id", "r&d"); ("n", "<1>") ] "root"
      [
        Xmlight.Doc.elt "inline" [ Xmlight.Doc.text "hello <world> & co" ];
        Xmlight.Doc.elt ~attrs:[ ("k", "v") ] "empty" [];
        Xmlight.Doc.elt "nested" [ Xmlight.Doc.elt "deep" [ Xmlight.Doc.text "t" ] ];
      ]
  in
  let printed = Xmlight.Print.to_string (Xmlight.Doc.doc e) in
  let reparsed = parse_ok printed in
  Alcotest.(check bool) "equal" true (Xmlight.Doc.equal_element e reparsed.Xmlight.Doc.root)

let test_query_path () =
  let doc = parse_ok "<a><b><c i=\"1\"/><c i=\"2\"/></b><b><c i=\"3\"/></b></a>" in
  let root = doc.Xmlight.Doc.root in
  Alcotest.(check int) "path b c" 3 (List.length (Xmlight.Query.path root [ "b"; "c" ]));
  Alcotest.(check int) "filtered" 1
    (List.length (Xmlight.Query.with_attr "i" "2" (Xmlight.Query.path root [ "b"; "c" ])));
  Alcotest.(check bool) "by_id" true
    (Xmlight.Query.by_id root ~id_attr:"i" "3" <> None);
  Alcotest.(check bool) "by_id missing" true
    (Xmlight.Query.by_id root ~id_attr:"i" "9" = None);
  Alcotest.(check bool) "first" true (Xmlight.Query.first root [ "b" ] <> None)

let test_descendants () =
  let doc = parse_ok "<a><b><a/></b><a><a/></a></a>" in
  Alcotest.(check int) "descendant a" 3
    (List.length (Xmlight.Doc.descendants doc.Xmlight.Doc.root "a"))

(* --- property: print . parse = id on random documents --- *)

let gen_name =
  QCheck2.Gen.(
    let* first = oneofl [ 'a'; 'b'; 'x'; 't' ] in
    let* rest = string_size ~gen:(oneofl [ 'a'; 'b'; 'c'; '1'; '-' ]) (int_range 0 6) in
    return (Printf.sprintf "%c%s" first rest))

let gen_text =
  QCheck2.Gen.string_size
    ~gen:(QCheck2.Gen.oneofl [ 'a'; 'z'; ' '; '&'; '<'; '>'; '"'; '\'' ])
    (QCheck2.Gen.int_range 1 12)

let gen_element =
  QCheck2.Gen.(
    sized_size (int_range 0 3) @@ fix (fun self n ->
        let* tag = gen_name in
        let* attrs =
          list_size (int_range 0 3)
            (let* k = gen_name in
             let* v = gen_text in
             return (k, v))
        in
        (* attribute names must be unique within an element *)
        let attrs =
          List.fold_left
            (fun acc (k, v) -> if List.mem_assoc k acc then acc else acc @ [ (k, v) ])
            [] attrs
        in
        if n = 0 then
          let* txt = gen_text in
          return (Xmlight.Doc.element ~attrs tag [ Xmlight.Doc.text txt ])
        else
          let* children = list_size (int_range 0 3) (self (n - 1)) in
          return
            (Xmlight.Doc.element ~attrs tag
               (List.map (fun c -> Xmlight.Doc.Element c) children))))

let prop_roundtrip =
  QCheck2.Test.make ~name:"print then parse preserves the document" ~count:200 gen_element
    (fun e ->
      let printed = Xmlight.Print.to_string (Xmlight.Doc.doc e) in
      match Xmlight.Parse.parse printed with
      | Ok doc -> Xmlight.Doc.equal_element e doc.Xmlight.Doc.root
      | Error _ -> false)

(* --- property: the scanning parser agrees with the frozen reference --- *)

(* A parse outcome both parsers can produce: the document, or the
   error's line, column and message (or the exception that escaped). *)
let outcome ~parse ~error input =
  match parse input with
  | Ok doc -> Ok doc
  | Error e -> Error (error e)
  | exception ex -> Error (0, 0, "raised " ^ Printexc.to_string ex)

let current input =
  outcome ~parse:Xmlight.Parse.parse
    ~error:(fun e ->
      Xmlight.Parse.(e.position.line, e.position.column, e.message))
    input

let reference input =
  outcome ~parse:Xml_reference.parse
    ~error:(fun e ->
      Xml_reference.(e.position.line, e.position.column, e.message))
    input

let agrees input = current input = reference input

(* Raw document text exercising every construct the parser knows:
   entity and character references (some malformed), CDATA, comments,
   processing instructions, a DOCTYPE with an internal subset, and LF
   or CRLF line ends. *)
let gen_xml_source =
  QCheck2.Gen.(
    let* nl = oneofl [ "\n"; "\r\n" ] in
    let piece =
      oneof
        [
          map (String.make 1) (oneofl [ 'a'; 'Z'; ' '; '>'; '"'; '\''; '\t'; '\xc3' ]);
          oneofl
            [ "&amp;"; "&lt;"; "&gt;"; "&quot;"; "&apos;"; "&#65;"; "&#x3b1;"; "&#X1F600;";
              "&#0b101;"; "&bogus;"; "&#xZZ;"; "&#-1;"; "&"; "x;" ];
          return nl;
        ]
    in
    let chars = map (String.concat "") (list_size (int_range 0 6) piece) in
    let* root =
      sized_size (int_range 0 3) @@ fix (fun self n ->
          let* tag = gen_name in
          let* attrs =
            list_size (int_range 0 2)
              (let* k = gen_name in
               let* q = oneofl [ '"'; '\'' ] in
               let* v = chars in
               let v = String.concat "" (String.split_on_char q v) in
               return (Printf.sprintf " %s=%c%s%c" k q v q))
          in
          let leaf =
            oneof
              [
                map (fun t -> if String.contains t '<' then "t" else t) chars;
                map (Printf.sprintf "<![CDATA[%s]]>") chars;
                map (Printf.sprintf "<!--%s-->") (oneofl [ ""; " c "; "a-b"; nl ]);
                map (Printf.sprintf "<?pi %s?>") (oneofl [ ""; "x=1"; nl ]);
              ]
          in
          let* children =
            if n = 0 then list_size (int_range 0 2) leaf
            else list_size (int_range 0 4) (oneof [ leaf; self (n - 1) ])
          in
          let* sp = oneofl [ ""; " "; nl ] in
          let attrs = String.concat "" attrs in
          if children = [] then return (Printf.sprintf "<%s%s%s/>" tag attrs sp)
          else
            return
              (Printf.sprintf "<%s%s>%s</%s%s>" tag attrs (String.concat "" children) tag sp))
    in
    let* decl = oneofl [ ""; "<?xml version=\"1.0\" encoding='UTF-8'?>" ] in
    let* misc =
      list_size (int_range 0 2)
        (oneofl
           [ "<!-- prolog -->"; "<?style x?>";
             "<!DOCTYPE r [" ^ nl ^ "  <!ELEMENT r ANY>" ^ nl ^ "  <!ENTITY e \"[x]\">" ^ nl ^ "]>" ])
    in
    let* trailer = oneofl [ ""; nl; "<!-- end -->" ^ nl ] in
    return (decl ^ nl ^ String.concat nl misc ^ nl ^ root ^ trailer))

(* the bytes a corruption may write *)
let corrupt_bytes = "<>&;\"'/!?[]-=\n\r a\000"

let corrupt input i c =
  String.mapi (fun j x -> if j = i then c else x) input

let prop_reference_agrees =
  QCheck2.Test.make
    ~name:"parser agrees with the frozen reference on documents, truncations and corruptions"
    ~count:300
    QCheck2.Gen.(
      let* src = gen_xml_source in
      let n = String.length src in
      let* cuts = list_size (int_range 1 8) (int_range 0 n) in
      let* flips =
        list_size (int_range 1 8)
          (pair (int_range 0 (max 0 (n - 1))) (oneofl (List.of_seq (String.to_seq corrupt_bytes))))
      in
      return (src, cuts, flips))
    ~print:(fun (src, _, _) -> src)
    (fun (src, cuts, flips) ->
      agrees src
      && List.for_all (fun k -> agrees (String.sub src 0 k)) cuts
      && List.for_all (fun (i, c) -> src = "" || agrees (corrupt src i c)) flips)

(* a linear chain of [n] components, one event type each, and one
   scenario per eight components — the shape of the chain benchmarks *)
let chain_project n =
  let name i = Printf.sprintf "c%d" i in
  let ontology =
    List.fold_left
      (fun o i ->
        let e = Printf.sprintf "e%d" i in
        Ontology.Build.add_event_type ~id:e ~name:e ~template:("step " ^ e) o)
      (Ontology.Build.create ~id:"syn" ~name:"Synthetic")
      (List.init n Fun.id)
  in
  let architecture =
    List.fold_left
      (fun t i -> Adl.Build.biconnect t (name i) (name (i + 1)))
      (List.fold_left
         (fun t i -> Adl.Build.add_component ~id:(name i) ~name:(name i) ~responsibilities:[ "r" ] t)
         (Adl.Build.create ~id:"syn-arch" ~name:"Synthetic chain" ())
         (List.init n Fun.id))
      (List.init (n - 1) Fun.id)
  in
  let mapping =
    List.fold_left
      (fun m i -> Mapping.Build.map ~event_type:(Printf.sprintf "e%d" i) ~to_:[ name i ] m)
      (Mapping.Build.create ~id:"syn-map" ~ontology ~architecture)
      (List.init n Fun.id)
  in
  let scenario k =
    Scenarioml.Scen.scenario ~id:(Printf.sprintf "seg%d" k) ~name:(Printf.sprintf "Walk %d" k)
      (List.init 8 (fun i ->
           Scenarioml.Event.typed ~id:(Printf.sprintf "s%d-%d" k i)
             ~event_type:(Printf.sprintf "e%d" ((8 * k) + i))
             []))
  in
  ( Scenarioml.Scen.make_set ~id:"syn-set" ~name:"Synthetic" ontology (List.init (n / 8) scenario),
    architecture,
    mapping )

let test_reference_on_projects () =
  let serialized (set, architecture, mapping) =
    [
      Scenarioml.Xml_io.set_to_string set;
      Adl.Xml_io.to_string architecture;
      Mapping.Xml_io.to_string mapping;
    ]
  in
  let documents =
    List.concat_map serialized
      [
        ( Casestudies.Pims.scenario_set,
          Casestudies.Pims.architecture,
          Casestudies.Pims.mapping );
        ( Casestudies.Crash.entity_scenario_set,
          Casestudies.Crash.entity_architecture,
          Casestudies.Crash.entity_mapping );
        chain_project 64;
      ]
  in
  let rng = Random.State.make [| 15 |] in
  List.iter
    (fun doc ->
      let n = String.length doc in
      Alcotest.(check bool) "document parses alike" true (agrees doc);
      Alcotest.(check bool) "document parses" true (Result.is_ok (current doc));
      for _ = 1 to 40 do
        let k = Random.State.int rng n in
        let c = corrupt_bytes.[Random.State.int rng (String.length corrupt_bytes)] in
        if not (agrees (String.sub doc 0 k)) then
          Alcotest.failf "truncation at %d of %d bytes disagrees" k n;
        if not (agrees (corrupt doc k c)) then
          Alcotest.failf "byte %d set to %C disagrees" k c
      done)
    documents

let suite =
  [
    Alcotest.test_case "minimal document" `Quick test_minimal;
    Alcotest.test_case "xml declaration" `Quick test_declaration;
    Alcotest.test_case "attributes" `Quick test_attributes;
    Alcotest.test_case "text and entities" `Quick test_text_and_entities;
    Alcotest.test_case "numeric entities" `Quick test_numeric_entities;
    Alcotest.test_case "nested structure" `Quick test_nested_structure;
    Alcotest.test_case "comments and processing instructions" `Quick test_comments_and_pi;
    Alcotest.test_case "cdata" `Quick test_cdata;
    Alcotest.test_case "doctype skipped" `Quick test_doctype_skipped;
    Alcotest.test_case "malformed inputs rejected" `Quick test_errors;
    Alcotest.test_case "error positions" `Quick test_error_position;
    Alcotest.test_case "escaping" `Quick test_print_escapes;
    Alcotest.test_case "print/parse round trip" `Quick test_print_parse_roundtrip;
    Alcotest.test_case "query paths and filters" `Quick test_query_path;
    Alcotest.test_case "descendants" `Quick test_descendants;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_reference_agrees;
    Alcotest.test_case "reference parser agrees on the case-study projects" `Quick
      test_reference_on_projects;
  ]
