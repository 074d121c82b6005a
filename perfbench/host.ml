(* Host speed. The benchmark gets two cores of a shared host whose speed
   swings by 2x over minutes: a fixed CPU loop, and every timing of the
   benchmark with it, runs at half speed for minutes at a time, with no
   steal time reported. Two sets of runs of the same code then disagree by
   more than any bound unless their timings are scaled to one host speed.
   The probe is a fixed CPU loop over a 256 KB array, which allocates
   nothing and does not touch the program under test, timed every 100 ms
   of the window; [slowdown] is its time over a reference time of 1 ms,
   so a scaled timing is the one the run would have measured on a host
   where the loop takes 1 ms. *)

let words = 32_768
let data = Array.make words 0

let burst () =
  let x = ref 1 in
  for _ = 1 to 400_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = !x land (words - 1) in
    data.(j) <- data.(j) + !x
  done;
  ignore (Sys.opaque_identity !x)

(* One timed burst (ns). *)
let probe () =
  let t0 = Span.now () in
  burst ();
  float_of_int (Span.now () - t0)

let reference_ns = 1_000_000.

(* How many times slower than the reference the host ran: the fast-side
   quartile of a run's probe times over [reference_ns], so the probes that
   waited for a core the server was using do not count. *)
let slowdown probes =
  let s = Pct.sorted probes in
  s.(Pct.rank (Array.length s) 0.25 - 1) /. reference_ns
