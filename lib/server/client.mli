(** A minimal blocking HTTP/1.1 client, just enough to talk to
    {!Daemon}: one keep-alive connection, [Content-Length]-framed
    responses. Used by the e2e tests, the benchmarks, and the CI
    smoke script — not a general-purpose client. *)

type t

val connect : ?host:string -> port:int -> unit -> t
(** TCP to [host] (default 127.0.0.1). The host is resolved with
    [getaddrinfo], so names like ["localhost"] work as well as numeric
    addresses. *)

val connect_unix : string -> t
(** Unix-domain socket at the given path. *)

val of_fd : Unix.file_descr -> t
(** Wrap an already-connected descriptor (e.g. one end of a
    socketpair) — lets tests drive the protocol machinery with no
    listener. The client takes ownership: {!close} closes it. *)

type response = { status : int; headers : (string * string) list; body : string }

val request :
  t ->
  ?headers:(string * string) list ->
  ?body:string ->
  Http.meth ->
  string ->
  (response, string) result
(** [request t meth target] sends one request and reads the response.
    A [Content-Length] header is added when [body] is given. A [HEAD]
    response is read as header-only (its [Content-Length] names the
    GET body it does not carry). [Error] means the connection is
    unusable (closed, timed out, or the response did not parse) —
    reconnect to retry. Never raises. *)

val get : t -> string -> (response, string) result

val post : t -> string -> body:string -> (response, string) result

val close : t -> unit

val write_all : Unix.file_descr -> string -> unit
(** Write every byte of the string, retrying a write a signal
    interrupts ([EINTR]) — how both ends of the protocol put bytes on
    the wire, {!Daemon} included. Other errors raise
    [Unix.Unix_error]. *)

(** {2 Retries}

    Restart-tolerant calls: {!with_retry} reconnects and retries
    through the window where a daemon is down or draining. *)

type retry_policy = {
  max_attempts : int;  (** total tries, including the first *)
  base_delay : float;  (** seconds before the first retry *)
  multiplier : float;  (** exponential growth factor *)
  max_delay : float;  (** cap on any single delay, seconds *)
  jitter : float;  (** 0..1 — each delay is shrunk by up to this
                       fraction of itself *)
}

val default_policy : retry_policy
(** 6 attempts, 50 ms base, doubling, 2 s cap, 0.2 jitter — worst
    case a little under 4 s of waiting. *)

val retryable_status : int -> bool
(** [true] for 408 (request timeout), 429 (overloaded) and 503.
    Deliberately NOT 421 (a replica's read-only rejection): retrying
    the same replica can never succeed, so plain calls fail fast and
    only [~follow_primary] redirects. Exception: a 421 carrying
    [Retry-After] is retried by {!with_retry}/{!call} after at least
    that many seconds — the server is saying the rejection is
    transient (a promotion in flight), not structural. *)

val retry_after : response -> float option
(** The server-sent [Retry-After] header in seconds, when present and
    numeric. {!with_retry} and {!call} use it as a floor under every
    backoff sleep: the server knows its own drain or promotion
    timeline better than the client's jitter schedule. *)

val read_only_primary : response -> string option
(** [Some "HOST:PORT"] when the response is a replica's [421]
    [read_only] rejection advertising its primary. *)

val backoff_schedule : ?seed:int -> retry_policy -> float list
(** The exact delays {!with_retry} would sleep with the same [seed] —
    [max_attempts - 1] of them. Deterministic, for tests. *)

(** {2 Persistent connections}

    {!with_retry} opens and closes a connection per call — correct, but
    it pays the TCP handshake every time. A {!persistent} handle keeps
    one keep-alive connection open across calls and composes the same
    backoff/reconnect behavior into each call: the warm path is a
    single request/response on an already-open socket. *)

type persistent

val persistent :
  ?policy:retry_policy ->
  ?seed:int ->
  ?sleep:(float -> unit) ->
  ?follow_primary:bool ->
  ?connect_to:(string * int -> t) ->
  (unit -> t) ->
  persistent
(** [persistent connect] — no connection is opened until the first
    {!call}. [policy], [seed], and [sleep] mean what they mean for
    {!with_retry}; the jitter schedule is shared across the handle's
    lifetime. With [follow_primary] (default [false]), a replica's
    [421] [read_only] rejection makes the handle reconnect to the
    advertised primary — sticky for the handle's lifetime — instead of
    returning the 421. [connect_to] (default: a TCP {!connect}) opens
    the connection to a redirect target, injectable so follow-primary
    behavior is testable without sockets. Not thread-safe: one handle
    per thread. *)

val call : persistent -> (t -> (response, string) result) -> (response, string) result
(** Run [f] on the held connection, opening or reopening it as needed.
    A torn connection (or a failed [connect]) drops the socket, backs
    off, and retries like {!with_retry}; a {!retryable_status} response
    backs off and retries on the same connection; any other response is
    returned and the connection stays open for the next [call]. A
    response carrying [Connection: close] (the daemon's per-connection
    request cap, or a drain) closes the socket eagerly so the next
    [call] reconnects instead of failing into a retry. Note the retry
    semantics assume [f] is safe to repeat, exactly as {!with_retry}
    does. *)

val persistent_close : persistent -> unit
(** Close the held connection, if any. The handle stays usable — the
    next {!call} reconnects. *)

val with_retry :
  ?policy:retry_policy ->
  ?seed:int ->
  ?sleep:(float -> unit) ->
  ?follow_primary:bool ->
  ?connect_to:(string * int -> t) ->
  connect:(unit -> t) ->
  (t -> (response, string) result) ->
  (response, string) result
(** [with_retry ~connect f] opens a fresh connection, runs [f], and
    closes it. A refused/torn connection ([connect] raising
    [Unix_error], or [f] returning [Error]) or a {!retryable_status}
    response triggers a capped, jittered exponential backoff and a
    reconnect, up to [policy.max_attempts] tries; the final outcome is
    returned as-is when retries run out. [seed] fixes the jitter
    schedule; [sleep] (default [Unix.sleepf]) is injectable so tests
    can record delays instead of waiting. With [follow_primary]
    (default [false]), a [421] [read_only] response redirects the
    remaining attempts to the advertised primary — the redirect counts
    as an attempt but skips the backoff sleep. [connect_to] (default:
    a TCP {!connect}) opens the redirect connection; if the advertised
    primary is itself unreachable the remaining attempts back off and
    fail like any refused connect — never an infinite follow loop. *)

(** {2 Replication status} *)

type replication = {
  role : string;  (** ["primary"] or ["replica"] *)
  primary : string option;  (** upstream address, when a replica *)
  applied_seq : int64;
  covered_seq : int64;
  lag : int64;
}

val replication : t -> (replication, string) result
(** [GET /replication], decoded. Sequence fields are [0L] when the
    server omits them (a primary without a journal). *)

(** {2 Replica sets}

    Client-side failover over a fleet of daemons — a primary plus its
    (possibly chained) replicas. Reads spread round-robin across the
    healthy endpoints and fail over to a sibling when a hop dies;
    mutations chase the primary, wherever promotion has moved it. One
    connection per operation: the abstraction is about placement, not
    connection reuse. Not thread-safe: one handle per thread. *)

type replica_set

val replica_set :
  ?policy:retry_policy ->
  ?seed:int ->
  ?sleep:(float -> unit) ->
  ?connect_to:(string * int -> t) ->
  ?max_lag:int64 ->
  (string * int) list ->
  replica_set
(** [replica_set endpoints] — no connection is opened until the first
    operation (which runs {!probe} if none has). [policy], [seed], and
    [sleep] govern the between-pass backoff exactly as in
    {!with_retry}; [connect_to] opens every connection, injectable for
    tests. [max_lag] (default 1024): a replica reporting more shipped
    records outstanding than this is skipped by reads until a probe
    sees it caught up. @raise Invalid_argument on an empty list. *)

val probe : replica_set -> unit
(** One [GET /replication] per endpoint: refresh reachability, role,
    and lag, and learn where the primary is (an endpoint answering as
    primary wins; failing that, a replica's advertised upstream).
    Runs automatically before the first operation and after a fully
    failed read pass; call it explicitly after reshaping the fleet. *)

val healthy_endpoints : replica_set -> (string * int) list
(** The endpoints the last probe (or operation) left marked healthy:
    reachable, and — for replicas — within [max_lag]. *)

val read :
  replica_set -> (t -> (response, string) result) -> (response, string) result
(** Run one read, trying healthy endpoints round-robin. A hop that
    dies mid-request (connect refused, torn connection) is marked
    unhealthy and the read moves to the next sibling back-to-back —
    no backoff between siblings, they are different hosts. When a
    whole pass fails (or only {!retryable_status} answers came back),
    the set backs off per [policy] (floored by any [Retry-After]),
    re-probes, and tries again, up to [policy.max_attempts] passes.
    The endpoint that answers is marked healthy and the rotation
    advances past it. [f] must be safe to repeat. *)

val mutate :
  replica_set -> (t -> (response, string) result) -> (response, string) result
(** Run one mutation against the primary: first the best-known primary
    address (from probes, 421 redirects, or a previous success), then
    the fleet in rotation, with [~follow_primary] turning every [421]
    [read_only] rejection into a redirect toward the advertised
    primary. The address that finally accepts (any status below 400)
    is remembered for the next call. Retry/backoff semantics are
    {!with_retry}'s. [f] must be safe to repeat. *)
