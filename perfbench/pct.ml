(* Percentiles with the sample-count rule: a percentile is reported only
   when at least [beyond] samples lie above it, so a p99 needs n >= 1000. *)

let beyond = 10

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank: the smallest sample with at least q of the data at or
   below it. *)
let rank n q = max 1 (int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9)))

let supported n q = n > 0 && n - rank n q >= beyond

(* [at sorted q] is the q-quantile of an already sorted array, [None] when
   too few samples lie beyond it (the median needs only one sample). *)
let at a q =
  let n = Array.length a in
  if n = 0 then None
  else if q <= 0.5 || supported n q then Some a.(rank n q - 1)
  else None

let median xs = at (sorted xs) 0.5

type summary = { n : int; p50 : float option; p99 : float option }

let summary xs =
  let a = sorted xs in
  { n = Array.length a; p50 = at a 0.5; p99 = at a 0.99 }
