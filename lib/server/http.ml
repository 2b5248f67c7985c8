type meth = GET | HEAD | POST | PUT | DELETE | OPTIONS | Other of string

let meth_to_string = function
  | GET -> "GET"
  | HEAD -> "HEAD"
  | POST -> "POST"
  | PUT -> "PUT"
  | DELETE -> "DELETE"
  | OPTIONS -> "OPTIONS"
  | Other m -> m

let meth_of_string = function
  | "GET" -> GET
  | "HEAD" -> HEAD
  | "POST" -> POST
  | "PUT" -> PUT
  | "DELETE" -> DELETE
  | "OPTIONS" -> OPTIONS
  | m -> Other m

type request = {
  meth : meth;
  target : string;
  path : string list;
  query : (string * string) list;
  version : [ `Http_1_0 | `Http_1_1 ];
  headers : (string * string) list;
  body : string;
}

let header r name =
  let name = String.lowercase_ascii name in
  List.assoc_opt name r.headers

let keep_alive r =
  match (r.version, Option.map String.lowercase_ascii (header r "connection")) with
  | _, Some "close" -> false
  | `Http_1_1, _ -> true
  | `Http_1_0, Some "keep-alive" -> true
  | `Http_1_0, _ -> false

(* If-None-Match: "*" matches anything; otherwise a comma-separated
   list of (quoted) entity tags. RFC 9110 §13.1.2 mandates weak
   comparison here, so a "W/" prefix (e.g. added by an intermediary)
   is stripped from each candidate; the opaque tags themselves are
   compared byte-for-byte — this server only mints strong tags. *)
let strip_weak_prefix tag =
  if String.length tag >= 2 && tag.[0] = 'W' && tag.[1] = '/' then
    String.sub tag 2 (String.length tag - 2)
  else tag

let if_none_match_matches r ~etag =
  match header r "if-none-match" with
  | None -> false
  | Some "*" -> true
  | Some value ->
      String.split_on_char ',' value
      |> List.exists (fun candidate ->
             String.equal (strip_weak_prefix (String.trim candidate)) etag)

type parse_error =
  | Bad_request of string
  | Head_too_large
  | Body_too_large
  | Unsupported of string

let parse_error_message = function
  | Bad_request m -> m
  | Head_too_large -> "request head exceeds the configured limit"
  | Body_too_large -> "request body exceeds the configured limit"
  | Unsupported m -> m

(* ------------------------------------------------------------------ *)
(* Target decoding                                                    *)
(* ------------------------------------------------------------------ *)

let hex_value c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

(* Percent-decoding; [plus_is_space] for query components. Invalid
   escapes are kept verbatim rather than rejected: the target already
   passed the token checks, and a literal '%' in a session id should
   round-trip rather than kill the request. *)
let percent_decode ?(plus_is_space = false) s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | '%' when !i + 2 < n -> (
        match (hex_value s.[!i + 1], hex_value s.[!i + 2]) with
        | Some hi, Some lo ->
            Buffer.add_char buf (Char.chr ((hi * 16) + lo));
            i := !i + 2
        | _ -> Buffer.add_char buf '%')
    | '+' when plus_is_space -> Buffer.add_char buf ' '
    | c -> Buffer.add_char buf c);
    incr i
  done;
  Buffer.contents buf

let split_target target =
  let raw_path, raw_query =
    match String.index_opt target '?' with
    | Some q ->
        (String.sub target 0 q, String.sub target (q + 1) (String.length target - q - 1))
    | None -> (target, "")
  in
  let path =
    String.split_on_char '/' raw_path
    |> List.filter (fun seg -> seg <> "")
    |> List.map percent_decode
  in
  let query =
    if raw_query = "" then []
    else
      String.split_on_char '&' raw_query
      |> List.filter (fun kv -> kv <> "")
      |> List.map (fun kv ->
             match String.index_opt kv '=' with
             | Some e ->
                 ( percent_decode ~plus_is_space:true (String.sub kv 0 e),
                   percent_decode ~plus_is_space:true
                     (String.sub kv (e + 1) (String.length kv - e - 1)) )
             | None -> (percent_decode ~plus_is_space:true kv, ""))
  in
  (path, query)

(* ------------------------------------------------------------------ *)
(* Incremental parsing                                                *)
(* ------------------------------------------------------------------ *)

(* Unconsumed bytes live in [buf] between [start] and [stop]. Once a
   head parses, its request waits in [pending] with a body buffer of
   exactly the declared length: later bytes are copied straight into
   it, so a large body is copied once from the caller's chunks into its
   final string, and the head is never re-parsed. *)
type pending = {
  request : request;
  framed : int;  (** head bytes consumed, counted by [buffered] *)
  body_buf : Bytes.t;
  mutable filled : int;
}

type parser_ = {
  max_head : int;
  max_body : int;
  mutable buf : Bytes.t;
  mutable start : int;
  mutable stop : int;
  mutable scanned : int;  (** bytes after [start] already searched for the head's end *)
  mutable pending : pending option;
  mutable failed : parse_error option;  (** sticky *)
}

let parser_ ?(max_head = 16 * 1024) ?(max_body = 4 * 1024 * 1024) () =
  {
    max_head;
    max_body;
    buf = Bytes.empty;
    start = 0;
    stop = 0;
    scanned = 0;
    pending = None;
    failed = None;
  }

let buffered p =
  p.stop - p.start
  + match p.pending with Some b -> b.framed + b.filled | None -> 0

(* Room for [n] more bytes after [stop]: slide the unconsumed bytes to
   the front when that frees enough, otherwise grow at least twofold. *)
let reserve p n =
  if p.stop + n > Bytes.length p.buf then begin
    let live = p.stop - p.start in
    let cap = Bytes.length p.buf in
    let dst =
      if live + n <= cap / 2 then p.buf
      else Bytes.create (max (live + n) (max 4096 (2 * cap)))
    in
    Bytes.blit p.buf p.start dst 0 live;
    p.buf <- dst;
    p.start <- 0;
    p.stop <- live
  end

let feed_bytes p bytes off len =
  let off, len =
    match p.pending with
    | Some b ->
        let k = min len (Bytes.length b.body_buf - b.filled) in
        Bytes.blit bytes off b.body_buf b.filled k;
        b.filled <- b.filled + k;
        (off + k, len - k)
    | None -> (off, len)
  in
  if len > 0 then begin
    reserve p len;
    Bytes.blit bytes off p.buf p.stop len;
    p.stop <- p.stop + len
  end

(* [feed_bytes] only reads its source, so the string is never mutated *)
let feed p s = feed_bytes p (Bytes.unsafe_of_string s) 0 (String.length s)

(* offset of "\r\n\r\n" in [buf] between [from] and [stop], if any *)
let find_head_end p from =
  let rec go i =
    if i + 3 >= p.stop then None
    else if
      Bytes.unsafe_get p.buf i = '\r'
      && Bytes.unsafe_get p.buf (i + 1) = '\n'
      && Bytes.unsafe_get p.buf (i + 2) = '\r'
      && Bytes.unsafe_get p.buf (i + 3) = '\n'
    then Some i
    else go (i + 1)
  in
  go from

let is_tchar c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true
  | '!' | '#' | '$' | '%' | '&' | '\'' | '*' | '+' | '-' | '.' | '^' | '_' | '`'
  | '|' | '~' ->
      true
  | _ -> false

let is_token s = s <> "" && String.for_all is_tchar s

let trim_ows s = String.trim s

let ( let* ) = Result.bind

let parse_request_line line =
  match String.split_on_char ' ' line with
  | [ meth; target; version ] ->
      let* () =
        if is_token meth then Ok ()
        else Error (Bad_request (Printf.sprintf "malformed method %S" meth))
      in
      let* () =
        if target <> "" && target.[0] = '/' then Ok ()
        else Error (Bad_request (Printf.sprintf "malformed request target %S" target))
      in
      let* version =
        match version with
        | "HTTP/1.1" -> Ok `Http_1_1
        | "HTTP/1.0" -> Ok `Http_1_0
        | v -> Error (Bad_request (Printf.sprintf "unsupported protocol version %S" v))
      in
      Ok (meth_of_string meth, target, version)
  | _ -> Error (Bad_request (Printf.sprintf "malformed request line %S" line))

let parse_header_line line =
  match String.index_opt line ':' with
  | None -> Error (Bad_request (Printf.sprintf "malformed header line %S" line))
  | Some colon ->
      let name = String.sub line 0 colon in
      let value = String.sub line (colon + 1) (String.length line - colon - 1) in
      if not (is_token name) then
        Error (Bad_request (Printf.sprintf "malformed header name %S" name))
      else Ok (String.lowercase_ascii name, trim_ows value)

(* The head's lines, split by index: each line is copied once. *)
let split_crlf_lines s =
  let n = String.length s in
  let rec go from i acc =
    if i + 1 >= n then List.rev (if from < n then String.sub s from (n - from) :: acc else acc)
    else if s.[i] = '\r' && s.[i + 1] = '\n' then
      go (i + 2) (i + 2) (String.sub s from (i - from) :: acc)
    else go from (i + 1) acc
  in
  go 0 0 []

let parse_headers lines =
  List.fold_left
    (fun acc line ->
      let* acc = acc in
      if line <> "" && (line.[0] = ' ' || line.[0] = '\t') then
        Error (Bad_request "obsolete header folding is not supported")
      else
        let* kv = parse_header_line line in
        Ok (kv :: acc))
    (Ok []) lines
  |> Result.map List.rev

let content_length p headers =
  match List.filter (fun (k, _) -> k = "content-length") headers with
  | [] -> Ok 0
  | (_, v) :: rest ->
      if List.exists (fun (_, v') -> v' <> v) rest then
        Error (Bad_request "conflicting Content-Length headers")
      else if not (v <> "" && String.for_all (function '0' .. '9' -> true | _ -> false) v)
      then Error (Bad_request (Printf.sprintf "malformed Content-Length %S" v))
      else (
        (* lengths within the limit always fit in an int *)
        match int_of_string_opt v with
        | Some n when n <= p.max_body -> Ok n
        | Some _ | None -> Error Body_too_large)

let parse_head p head =
  let* lines =
    match split_crlf_lines head with
    | [] -> Error (Bad_request "empty request head")
    | request_line :: header_lines -> Ok (request_line, header_lines)
  in
  let request_line, header_lines = lines in
  let* meth, target, version = parse_request_line request_line in
  let* headers = parse_headers header_lines in
  let* () =
    if List.mem_assoc "transfer-encoding" headers then
      Error (Unsupported "Transfer-Encoding is not supported; use Content-Length")
    else Ok ()
  in
  let* length = content_length p headers in
  let path, query = split_target target in
  Ok ({ meth; target; path; query; version; headers; body = "" }, length)

let rec next p =
  match (p.failed, p.pending) with
  | Some e, _ -> `Error e
  | None, Some b ->
      if b.filled < Bytes.length b.body_buf then `Need_more
      else begin
        p.pending <- None;
        (* the body buffer is dropped here, so it is never mutated again *)
        `Request { b.request with body = Bytes.unsafe_to_string b.body_buf }
      end
  | None, None -> (
      (* tolerate CRLFs preceding the request line (RFC 9112 §2.2) *)
      while
        p.start + 1 < p.stop
        && Bytes.get p.buf p.start = '\r'
        && Bytes.get p.buf (p.start + 1) = '\n'
      do
        p.start <- p.start + 2;
        p.scanned <- 0
      done;
      let fail e =
        p.failed <- Some e;
        `Error e
      in
      match find_head_end p (p.start + max 0 (p.scanned - 3)) with
      | None ->
          p.scanned <- p.stop - p.start;
          if p.stop - p.start > p.max_head then fail Head_too_large else `Need_more
      | Some head_end when head_end - p.start > p.max_head -> fail Head_too_large
      | Some head_end -> (
          match parse_head p (Bytes.sub_string p.buf p.start (head_end - p.start)) with
          | Error e -> fail e
          | Ok (request, length) ->
              let framed = head_end + 4 - p.start in
              p.start <- head_end + 4;
              p.scanned <- 0;
              let filled = min length (p.stop - p.start) in
              let body_buf = Bytes.create length in
              Bytes.blit p.buf p.start body_buf 0 filled;
              p.start <- p.start + filled;
              p.pending <- Some { request; framed; body_buf; filled };
              next p))

(* ------------------------------------------------------------------ *)
(* Responses                                                          *)
(* ------------------------------------------------------------------ *)

type response = {
  status : int;
  reason : string;
  resp_headers : (string * string) list;
  resp_body : string;
}

let reason_phrase = function
  | 200 -> "OK"
  | 201 -> "Created"
  | 204 -> "No Content"
  | 304 -> "Not Modified"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 409 -> "Conflict"
  | 413 -> "Content Too Large"
  | 429 -> "Too Many Requests"
  | 500 -> "Internal Server Error"
  | 501 -> "Not Implemented"
  | 503 -> "Service Unavailable"
  | s when s >= 200 && s < 300 -> "OK"
  | s when s >= 400 && s < 500 -> "Client Error"
  | _ -> "Server Error"

let response ?(headers = []) status body =
  { status; reason = reason_phrase status; resp_headers = headers; resp_body = body }

(* 204 and 304 are defined body-less (RFC 9110 §6.4.1); 1xx cannot
   carry one either. The [Content-Length] stays explicit — 0 for the
   body-less statuses — so keep-alive clients always know where the
   response ends without waiting for a close. *)
let body_suppressed status = status = 204 || status = 304 || status / 100 = 1

let serialize_to buf ?request_meth ~close r =
  let suppressed = body_suppressed r.status in
  Buffer.add_string buf (Printf.sprintf "HTTP/1.1 %d %s\r\n" r.status r.reason);
  List.iter
    (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "%s: %s\r\n" k v))
    r.resp_headers;
  Buffer.add_string buf
    (Printf.sprintf "Content-Length: %d\r\n"
       (if suppressed then 0 else String.length r.resp_body));
  if close then Buffer.add_string buf "Connection: close\r\n";
  Buffer.add_string buf "\r\n";
  (match request_meth with
  | Some HEAD -> ()
  | Some _ | None -> if not suppressed then Buffer.add_string buf r.resp_body)

let serialize ?request_meth ~close r =
  let buf = Buffer.create (String.length r.resp_body + 256) in
  serialize_to buf ?request_meth ~close r;
  Buffer.contents buf
