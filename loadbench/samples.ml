(* The benchmark's clock, growable sample vectors and nearest-rank
   quantiles. *)

(* Monotonic seconds with nanosecond resolution. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type t = { mutable data : float array; mutable n : int }

let create () = { data = Array.make 1024 0.0; n = 0 }

let add t x =
  if t.n = Array.length t.data then begin
    let d = Array.make (2 * t.n) 0.0 in
    Array.blit t.data 0 d 0 t.n;
    t.data <- d
  end;
  t.data.(t.n) <- x;
  t.n <- t.n + 1

let count t = t.n

let sum t =
  let s = ref 0.0 in
  for i = 0 to t.n - 1 do
    s := !s +. t.data.(i)
  done;
  !s

let append ~into t =
  for i = 0 to t.n - 1 do
    add into t.data.(i)
  done

let sorted t =
  let a = Array.sub t.data 0 t.n in
  Array.sort Float.compare a;
  a

(* Nearest rank; 0 for no samples. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then 0.0 else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let quantile t q = quantile_sorted (sorted t) q

let median_of l = quantile_sorted (let a = Array.of_list l in Array.sort Float.compare a; a) 0.5
