type position = { line : int; column : int }

type error = { position : position; message : string }

exception Parse_error of error

let error_to_string e =
  Printf.sprintf "%d:%d: %s" e.position.line e.position.column e.message

(* The cursor is a byte offset into the input. Line and column are
   derived from it only when an error is reported, so the happy path
   does no per-byte bookkeeping. *)
type cursor = { input : string; len : int; mutable pos : int }

let cursor input = { input; len = String.length input; pos = 0 }

(* Lines are counted by '\n'; the column is the 1-based byte offset
   from the start of the line. *)
let position cur =
  let line = ref 1 and bol = ref 0 in
  for i = 0 to cur.pos - 1 do
    if String.unsafe_get cur.input i = '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  { line = !line; column = cur.pos - !bol + 1 }

let fail cur message = raise (Parse_error { position = position cur; message })

let eof cur = cur.pos >= cur.len

(* The byte [k] past the cursor, '\000' beyond the end. *)
let peek_at cur k =
  let i = cur.pos + k in
  if i < cur.len then String.unsafe_get cur.input i else '\000'

let peek cur = peek_at cur 0

let rec matches input i s k =
  k = String.length s
  || (String.unsafe_get input (i + k) = String.unsafe_get s k && matches input i s (k + 1))

(* Does [s] occur at offset [i]? *)
let occurs_at cur i s = i + String.length s <= cur.len && matches cur.input i s 0

let looking_at cur s = occurs_at cur cur.pos s

let expect cur s =
  if looking_at cur s then cur.pos <- cur.pos + String.length s
  else fail cur (Printf.sprintf "expected %S" s)

(* Offset of the first [s] at or after the cursor, or the input length. *)
let find cur s =
  let rec go i =
    match String.index_from_opt cur.input i s.[0] with
    | None -> cur.len
    | Some j -> if occurs_at cur j s then j else go (j + 1)
  in
  go cur.pos

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

let skip_space cur =
  while cur.pos < cur.len && is_space (String.unsafe_get cur.input cur.pos) do
    cur.pos <- cur.pos + 1
  done

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

(* Advance over a name; its start is the cursor before the call. *)
let skip_name cur =
  if not (is_name_start (peek cur)) then fail cur "expected a name";
  while cur.pos < cur.len && is_name_char (String.unsafe_get cur.input cur.pos) do
    cur.pos <- cur.pos + 1
  done

let parse_name cur =
  let start = cur.pos in
  skip_name cur;
  String.sub cur.input start (cur.pos - start)

(* Decode an entity reference starting at '&'. *)
let parse_entity cur =
  expect cur "&";
  let start = cur.pos in
  match String.index_from_opt cur.input start ';' with
  | None ->
      cur.pos <- cur.len;
      fail cur "unterminated entity reference"
  | Some semi -> (
      let name = String.sub cur.input start (semi - start) in
      cur.pos <- semi + 1;
      match name with
      | "lt" -> "<"
      | "gt" -> ">"
      | "amp" -> "&"
      | "apos" -> "'"
      | "quot" -> "\""
      | _ ->
          if String.length name > 1 && name.[0] = '#' then begin
            let code =
              try
                if name.[1] = 'x' || name.[1] = 'X' then
                  int_of_string ("0x" ^ String.sub name 2 (String.length name - 2))
                else int_of_string (String.sub name 1 (String.length name - 1))
              with Failure _ -> fail cur (Printf.sprintf "bad character reference &%s;" name)
            in
            if code < 0 || code > 0x10FFFF then fail cur "character reference out of range";
            (* Encode as UTF-8. *)
            let buf = Buffer.create 4 in
            Buffer.add_utf_8_uchar buf (Uchar.of_int code);
            Buffer.contents buf
          end
          else fail cur (Printf.sprintf "unknown entity &%s;" name))

(* Character data up to [stop] or the end of input, with entity
   references decoded; the cursor is left on [stop] (or at the end).
   A run without '&' is one [String.sub]; a buffer appears only once
   an entity does. *)
let rec run_end cur stop i =
  if i >= cur.len then i
  else
    let c = String.unsafe_get cur.input i in
    if c = stop || c = '&' then i else run_end cur stop (i + 1)

let scan_chars cur stop =
  let start = cur.pos in
  cur.pos <- run_end cur stop start;
  if peek cur <> '&' then String.sub cur.input start (cur.pos - start)
  else begin
    let buf = Buffer.create (2 * (cur.pos - start) + 16) in
    Buffer.add_substring buf cur.input start (cur.pos - start);
    while peek cur = '&' do
      Buffer.add_string buf (parse_entity cur);
      let from = cur.pos in
      cur.pos <- run_end cur stop from;
      Buffer.add_substring buf cur.input from (cur.pos - from)
    done;
    Buffer.contents buf
  end

let parse_quoted cur =
  let quote = peek cur in
  if quote <> '"' && quote <> '\'' then fail cur "expected a quoted value";
  cur.pos <- cur.pos + 1;
  let value = scan_chars cur quote in
  if eof cur then fail cur "unterminated attribute value";
  cur.pos <- cur.pos + 1;
  value

let parse_attributes cur =
  let rec loop acc =
    skip_space cur;
    if is_name_start (peek cur) then begin
      let attr_name = parse_name cur in
      skip_space cur;
      expect cur "=";
      skip_space cur;
      let attr_value = parse_quoted cur in
      loop ({ Doc.attr_name; attr_value } :: acc)
    end
    else List.rev acc
  in
  loop []

(* The bytes from the cursor up to [close], which is then skipped. *)
let delimited cur close ~unterminated =
  let start = cur.pos in
  cur.pos <- find cur close;
  if eof cur then fail cur unterminated;
  let s = String.sub cur.input start (cur.pos - start) in
  cur.pos <- cur.pos + String.length close;
  s

let parse_comment cur =
  expect cur "<!--";
  delimited cur "-->" ~unterminated:"unterminated comment"

let parse_pi cur =
  expect cur "<?";
  let target = parse_name cur in
  skip_space cur;
  (target, delimited cur "?>" ~unterminated:"unterminated processing instruction")

let parse_cdata cur =
  expect cur "<![CDATA[";
  delimited cur "]]>" ~unterminated:"unterminated CDATA section"

let skip_doctype cur =
  expect cur "<!DOCTYPE";
  (* Skip to the matching '>', tracking nested '[' ... ']' internal subsets. *)
  let depth = ref 0 in
  let rec loop () =
    if eof cur then fail cur "unterminated DOCTYPE"
    else begin
      let c = peek cur in
      cur.pos <- cur.pos + 1;
      match c with
      | '[' ->
          incr depth;
          loop ()
      | ']' ->
          decr depth;
          loop ()
      | '>' when !depth = 0 -> ()
      | _ -> loop ()
    end
  in
  loop ()

(* Is the input between [start] and [stop] exactly [name]? *)
let name_is cur start stop name =
  stop - start = String.length name && occurs_at cur start name

let rec parse_element cur =
  expect cur "<";
  let tag = parse_name cur in
  let attrs = parse_attributes cur in
  skip_space cur;
  if looking_at cur "/>" then begin
    cur.pos <- cur.pos + 2;
    { Doc.tag; attrs; children = [] }
  end
  else begin
    expect cur ">";
    let children = parse_content cur tag in
    { Doc.tag; attrs; children }
  end

and parse_content cur tag =
  let rec loop acc =
    if eof cur then fail cur (Printf.sprintf "unterminated element <%s>" tag)
    else if peek cur <> '<' then loop (Doc.Text (scan_chars cur '<') :: acc)
    else
      match peek_at cur 1 with
      | '/' ->
          (* the close tag is matched in place against [tag] *)
          cur.pos <- cur.pos + 2;
          let start = cur.pos in
          skip_name cur;
          let stop = cur.pos in
          skip_space cur;
          expect cur ">";
          if name_is cur start stop tag then List.rev acc
          else
            fail cur
              (Printf.sprintf "mismatched close tag </%s> for <%s>"
                 (String.sub cur.input start (stop - start))
                 tag)
      | '!' when looking_at cur "<!--" -> loop (Doc.Comment (parse_comment cur) :: acc)
      | '!' when looking_at cur "<![CDATA[" -> loop (Doc.Text (parse_cdata cur) :: acc)
      | '?' ->
          let target, content = parse_pi cur in
          loop (Doc.Pi (target, content) :: acc)
      | c when is_name_start c -> loop (Doc.Element (parse_element cur) :: acc)
      | _ -> fail cur "unexpected '<'"
  in
  loop []

let parse_prolog cur =
  let decl =
    if looking_at cur "<?xml" then begin
      cur.pos <- cur.pos + 5;
      let attrs = parse_attributes cur in
      skip_space cur;
      expect cur "?>";
      attrs
    end
    else []
  in
  let rec skip_misc () =
    skip_space cur;
    if looking_at cur "<!--" then begin
      ignore (parse_comment cur);
      skip_misc ()
    end
    else if looking_at cur "<!DOCTYPE" then begin
      skip_doctype cur;
      skip_misc ()
    end
    else if looking_at cur "<?" then begin
      ignore (parse_pi cur);
      skip_misc ()
    end
  in
  skip_misc ();
  decl

let parse_exn input =
  let cur = cursor input in
  let decl = parse_prolog cur in
  if eof cur then fail cur "missing root element";
  let root = parse_element cur in
  skip_space cur;
  let rec skip_trailing () =
    if looking_at cur "<!--" then begin
      ignore (parse_comment cur);
      skip_space cur;
      skip_trailing ()
    end
  in
  skip_trailing ();
  if not (eof cur) then fail cur "trailing content after root element";
  { Doc.decl; root }

let parse input =
  match parse_exn input with
  | doc -> Ok doc
  | exception Parse_error e -> Error e

let parse_file path =
  match
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with
  | s -> parse s
  | exception Sys_error msg ->
      Error { position = { line = 0; column = 0 }; message = msg }
