type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* Escaping copies clean spans with [Buffer.add_substring] instead of
   walking char by char: journal payloads embed whole XML documents as
   JSON strings, where only the occasional quote, backslash or newline
   interrupts a run. The table maps each byte to '\000' (clean) or the
   letter of its two-character escape ('u' for the \u00xx forms). *)
let esc_table =
  String.init 256 (fun i ->
      match Char.chr i with
      | '"' -> '"'
      | '\\' -> '\\'
      | '\n' -> 'n'
      | '\r' -> 'r'
      | '\t' -> 't'
      | '\b' -> 'b'
      | '\012' -> 'f'
      | c when Char.code c < 0x20 -> 'u'
      | _ -> '\000')

let escape_to buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  let start = ref 0 in
  let i = ref 0 in
  while !i < n do
    let esc =
      String.unsafe_get esc_table (Char.code (String.unsafe_get s !i))
    in
    if esc <> '\000' then begin
      if !i > !start then Buffer.add_substring buf s !start (!i - !start);
      if esc = 'u' then
        Buffer.add_string buf
          (Printf.sprintf "\\u%04x" (Char.code (String.unsafe_get s !i)))
      else begin
        Buffer.add_char buf '\\';
        Buffer.add_char buf esc
      end;
      start := !i + 1
    end;
    incr i
  done;
  if n > !start then Buffer.add_substring buf s !start (n - !start);
  Buffer.add_char buf '"'

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.12g" f)
      else Buffer.add_string buf "null"
  | String s -> escape_to buf s
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_to buf k;
          Buffer.add_char buf ':';
          to_buffer buf v)
        fields;
      Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  to_buffer buf j;
  Buffer.contents buf

let strings l = List (List.map (fun s -> String s) l)

(* ------------------------------------------------------------------ *)
(* Reused-buffer writer                                               *)
(* ------------------------------------------------------------------ *)

module Writer = struct
  (* A [Buffer.t] whose storage survives [clear]: serializing a stream
     of similarly-sized documents through one writer allocates the
     backing store once instead of re-growing a fresh buffer per
     document. [raw] is the splice primitive — pre-serialized JSON
     (a cached response body, say) is copied in verbatim, never
     re-parsed or re-rendered. *)
  type json = t

  type t = { buf : Buffer.t }

  let create ?(size = 4096) () = { buf = Buffer.create size }

  let clear w = Buffer.clear w.buf

  let length w = Buffer.length w.buf

  let contents w = Buffer.contents w.buf

  let raw w s = Buffer.add_string w.buf s

  let char w c = Buffer.add_char w.buf c

  let int w i = Buffer.add_string w.buf (string_of_int i)

  let string w s = escape_to w.buf s

  let json w j = to_buffer w.buf j

  let field w ~first name =
    if not first then Buffer.add_char w.buf ',';
    escape_to w.buf name;
    Buffer.add_char w.buf ':'
end

(* ------------------------------------------------------------------ *)
(* Parsing                                                            *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

let parse_error fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

type cursor = { input : string; len : int; mutable pos : int }

(* '\000' past the end of input: callers that must tell the end from a
   NUL byte ask [at_end]. A sentinel instead of an option keeps the
   per-byte peek allocation-free. *)
let peek c = if c.pos < c.len then String.unsafe_get c.input c.pos else '\000'

let at_end c = c.pos >= c.len

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  while
    match peek c with
    | ' ' | '\t' | '\n' | '\r' ->
        advance c;
        true
    | _ -> false
  do
    ()
  done

let expect c ch =
  if at_end c then parse_error "expected %C at offset %d, found end of input" ch c.pos
  else
    let x = peek c in
    if x = ch then advance c else parse_error "expected %C at offset %d, found %C" ch c.pos x

let literal c word value =
  let n = String.length word in
  if c.pos + n <= c.len && String.sub c.input c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else parse_error "invalid literal at offset %d" c.pos

(* Offset of the next '"' or '\\' at or after [i], or the input length. *)
let rec clean_run_end c i =
  if i >= c.len then i
  else
    match String.unsafe_get c.input i with
    | '"' | '\\' -> i
    | _ -> clean_run_end c (i + 1)

(* Decode the escape after a backslash (the cursor is past it) into [buf]. *)
let unescape c buf =
  if at_end c then parse_error "unterminated escape at offset %d" c.pos;
  let simple ch =
    advance c;
    Buffer.add_char buf ch
  in
  match peek c with
  | '"' -> simple '"'
  | '\\' -> simple '\\'
  | '/' -> simple '/'
  | 'n' -> simple '\n'
  | 'r' -> simple '\r'
  | 't' -> simple '\t'
  | 'b' -> simple '\b'
  | 'f' -> simple '\012'
  | 'u' ->
      advance c;
      if c.pos + 4 > c.len then parse_error "truncated \\u escape at offset %d" c.pos;
      let code =
        try int_of_string ("0x" ^ String.sub c.input c.pos 4)
        with Failure _ -> parse_error "invalid \\u escape at offset %d" c.pos
      in
      c.pos <- c.pos + 4;
      (* Escaped control characters are all we emit; anything else
         is preserved as UTF-8. *)
      if code < 0x80 then Buffer.add_char buf (Char.chr code)
      else if code < 0x800 then begin
        Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
        Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
      end
      else begin
        Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
        Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
      end
  | x -> parse_error "invalid escape \\%C at offset %d" x c.pos

(* Clean spans up to the next quote or backslash are copied whole, the
   mirror of [escape_to]: a string without escapes is one [String.sub],
   and XML documents embedded as strings copy run by run. *)
let parse_string c =
  expect c '"';
  let start = c.pos in
  c.pos <- clean_run_end c start;
  if peek c = '"' then begin
    advance c;
    String.sub c.input start (c.pos - 1 - start)
  end
  else begin
    let buf = Buffer.create (c.pos - start + 16) in
    Buffer.add_substring buf c.input start (c.pos - start);
    let rec loop () =
      if at_end c then parse_error "unterminated string at offset %d" c.pos
      else if peek c = '"' then advance c
      else begin
        (* a backslash *)
        advance c;
        unescape c buf;
        let from = c.pos in
        c.pos <- clean_run_end c from;
        Buffer.add_substring buf c.input from (c.pos - from);
        loop ()
      end
    in
    loop ();
    Buffer.contents buf
  end

let parse_number c =
  let start = c.pos in
  let is_float = ref false in
  let rec loop () =
    match peek c with
    | '0' .. '9' | '-' | '+' -> advance c; loop ()
    | '.' | 'e' | 'E' ->
        is_float := true;
        advance c;
        loop ()
    | _ -> ()
  in
  loop ();
  let text = String.sub c.input start (c.pos - start) in
  if !is_float then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> parse_error "invalid number %S at offset %d" text start
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
        (* out-of-range integer literals still parse as floats *)
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> parse_error "invalid number %S at offset %d" text start)

let rec parse_value c =
  skip_ws c;
  if at_end c then parse_error "unexpected end of input at offset %d" c.pos;
  match peek c with
  | 'n' -> literal c "null" Null
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | '"' -> String (parse_string c)
  | '-' | '0' .. '9' -> parse_number c
  | '[' ->
      advance c;
      skip_ws c;
      if peek c = ']' then begin
        advance c;
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | ',' ->
              advance c;
              items (v :: acc)
          | ']' ->
              advance c;
              List.rev (v :: acc)
          | _ when at_end c -> parse_error "unterminated array at offset %d" c.pos
          | x -> parse_error "expected ',' or ']' at offset %d, found %C" c.pos x
        in
        List (items [])
      end
  | '{' ->
      advance c;
      skip_ws c;
      if peek c = '}' then begin
        advance c;
        Obj []
      end
      else begin
        let field () =
          skip_ws c;
          let k = parse_string c in
          skip_ws c;
          expect c ':';
          (k, parse_value c)
        in
        let rec fields acc =
          let kv = field () in
          skip_ws c;
          match peek c with
          | ',' ->
              advance c;
              fields (kv :: acc)
          | '}' ->
              advance c;
              List.rev (kv :: acc)
          | _ when at_end c -> parse_error "unterminated object at offset %d" c.pos
          | x -> parse_error "expected ',' or '}' at offset %d, found %C" c.pos x
        in
        Obj (fields [])
      end
  | x -> parse_error "unexpected %C at offset %d" x c.pos

let of_string s =
  let c = { input = s; len = String.length s; pos = 0 } in
  match parse_value c with
  | v ->
      skip_ws c;
      if c.pos < String.length s then
        Error (Printf.sprintf "trailing content at offset %d" c.pos)
      else Ok v
  | exception Parse_error m -> Error m

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let string_opt = function String s -> Some s | _ -> None

let int_opt = function Int i -> Some i | _ -> None

let bool_opt = function Bool b -> Some b | _ -> None

let list_opt = function List l -> Some l | _ -> None
