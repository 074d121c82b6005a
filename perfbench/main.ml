(* The repository benchmark. One run:

     main.exe --workload point_text|mixed_rw|analytic --seed N --seconds S --trace 0|1

   spawns the shipped systemr_server on a script generated from the seed
   and sets it up (load, statistics, warm-up: set-up time) several times in
   turn; every server but the last is stopped once set up, and the last is
   driven for S seconds over two closed-loop connections. Every answer is
   checked. The gated timings are scaled to a reference host speed,
   probed in the same run (Host), and the report carries them as measured
   too. With --trace 1 the run then replays the same seeded data and
   statement streams, in the order the driven server completed them, on an
   embedded engine twice, spans off and on, and reports the per-layer
   metrics instead. The line before the last is a full report (run
   context, every metric with its unit and sample count); the last line is
   the result object. *)

open Perfbench

(* Set-ups per run; setup_s is their median. mixed_rw's set-up is the
   shortest (~0.15 s, mostly warm-up), so host noise moves it most and it
   takes the most samples. *)
let setups = function
  | Gen.Point_text -> 7
  | Gen.Mixed_rw -> 15
  | Gen.Analytic -> 5

let run_dir = ".perfbench_run"

(* --- arguments ------------------------------------------------------------ *)

let usage =
  "main.exe --workload point_text|mixed_rw|analytic --seed N --seconds S --trace 0|1"

let args () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S measured window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match Gen.of_name !workload with
  | Some w when !seed >= 0 && !seconds > 0 && (!trace = 0 || !trace = 1) ->
    (w, !seed, !seconds, !trace = 1)
  | _ ->
    prerr_endline usage;
    exit 2

(* --- JSON ----------------------------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let json_obj kvs =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) kvs) ^ "}"

let json_list vs = "[" ^ String.concat ", " vs ^ "]"

(* --- metrics -------------------------------------------------------------- *)

(* A metric as measured: [None] when it cannot be measured on this run
   (too few samples, or the layer does not run on this workload). *)
type metric = { name : string; unit : string; value : float option; n : int option }

let m ?n name unit value = { name; unit; value; n }

let metric_json x =
  json_obj
    ([ ("value", Option.fold ~none:"null" ~some:json_float x.value);
       ("unit", json_string x.unit) ]
     @ Option.fold ~none:[] ~some:(fun n -> [ ("samples", string_of_int n) ]) x.n)

let ratio a b = if b > 0. then Some (a /. b) else None
let fi = float_of_int

(* --- run context ---------------------------------------------------------- *)

(* The commit, read straight from .git when the run happens in a clone
   (benchmark checkouts are usually plain trees). *)
let commit () =
  let read path = In_channel.with_open_text path In_channel.input_all |> String.trim in
  try
    let head = read ".git/HEAD" in
    if String.starts_with ~prefix:"ref: " head then
      read (Filename.concat ".git" (String.sub head 5 (String.length head - 5)))
    else head
  with Sys_error _ -> "unknown (not a git checkout)"

let flush_policy =
  "GROUP_COMMIT ON, COMMIT_DELAY 0; WAL flushed to the server's in-memory \
   image, no device sync"

let unmeasured =
  [ "latch wait, lock wait, commit-queue wait, lock-table size and MVCC \
     status-table size: not visible from outside the program (needs \
     in-program tracing)";
    "parallel executor: server sessions pin DOP 1";
    "a metric whose value is null does not apply to this workload (its \
     layer does no work here) or lacks the samples its percentile needs" ]

let pages db =
  List.map
    (fun rel ->
      ( rel.Catalog.rel_name,
        match rel.Catalog.rstats with Some s -> s.Stats.tcard | None -> 0 ))
    (Catalog.relations (Database.catalog db))

(* --- the wire run ---------------------------------------------------------- *)

(* The class qps and lat_p50_us time: what the workload exists to time
   (reads, writes, analytic queries). On mixed_rw that leaves out the
   reader, whose rate is bimodal across runs: it either slots in between
   the writer's statements or waits behind them, and the writer's speed
   moves with it. *)
let primary = function
  | Gen.Point_text -> Gen.Read
  | Gen.Mixed_rw -> Gen.Write
  | Gen.Analytic -> Gen.Analytic_query

(* mixed_rw's server slows down and grows with every write (nothing
   reclaims dead versions), so in a fixed time a slow host does less of
   that damage than a fast one. Its gated metrics therefore cover the
   window's first this many writes, the same work on every host, and
   server_peak_rss_mb is read once they are done. The other workloads are
   steady and use the whole window. *)
let measured_ops = function
  | Gen.Mixed_rw -> Some 5_000
  | Gen.Point_text | Gen.Analytic -> None

type window = {
  logs : Wire.log array;  (* per connection *)
  start : int;   (* ns *)
  stop : int;    (* ns *)
  rss_setup_mb : float;  (* VmRSS once set up *)
  hwm_setup_mb : float;  (* VmHWM once set up: the load's peak *)
  rss_end_mb : float;    (* VmRSS at the end of the window *)
  hwm_end_mb : float;    (* VmHWM at the end of the window *)
  hwm_at_mb : float option;  (* VmHWM once [measured_ops] were done *)
  group : int * int;  (* group-commit (commits, flushes) during the window *)
  probes : float array;  (* Host.probe every 100 ms of the window *)
}

type wire = {
  setup_s : float array;
  warm : Wire.log array;  (* the driven server's warm-up, per connection *)
  win : window;           (* the driven server's timed window *)
  warm_attempted : int;   (* over every set-up *)
  warm_failed : int;
}

(* Spawn, connect, prepare and warm up: everything between starting the
   server process and the first timed request. *)
let set_up (ds : Gen.t) ~reference ~script ~sock =
  let t0 = Span.now () in
  let srv = Wire.spawn ~script ~sock in
  let clients = Array.init Gen.connections (fun _ -> Wire.connect srv) in
  if ds.Gen.workload = Gen.Mixed_rw then Wire.prepare clients.(1);
  let streams = Array.init Gen.connections (fun conn -> Gen.stream ds ~conn) in
  let warm = Array.init Gen.connections (fun _ -> Wire.new_log ()) in
  Array.iteri
    (fun i c -> Wire.warm_up c ds ~reference ~stream:streams.(i) ~n:(Gen.warmup ds) warm.(i))
    clients;
  let dt = fi (Span.now () - t0) /. 1e9 in
  (srv, clients, streams, dt, warm)

(* The timed window on a set-up server: both connections in closed loops
   for [window] ns. *)
let measure (ds : Gen.t) ~reference ~window (srv, clients, streams) =
  let gc0 = Wire.group_commit clients.(0) ds in
  let rss_setup_mb = Wire.status_mb srv "VmRSS" and hwm_setup_mb = Wire.status_mb srv "VmHWM" in
  let logs = Array.init Gen.connections (fun _ -> Wire.new_log ()) in
  let c = Gen.cls_index (primary ds.Gen.workload) in
  let done_ () = Array.fold_left (fun a (l : Wire.log) -> a + l.Wire.per_cls.(c)) 0 logs in
  let start = Span.now () in
  let stop () = Span.now () >= start + window in
  (* one system thread per connection: OCaml code runs one thread at a
     time, so the client never competes with itself for the two cores *)
  let threads =
    Array.init Gen.connections (fun i ->
        Thread.create
          (fun () -> Wire.drive clients.(i) ds ~reference ~stream:streams.(i) ~stop logs.(i))
          ())
  in
  (* Meanwhile this thread probes the host every 100 ms; while it does, it
     holds the runtime lock, so the connections' threads pause for the
     probe's 1 ms. *)
  let hwm_at_mb = ref None and probes = ref [] in
  while not (stop ()) do
    Thread.delay 0.1;
    probes := Host.probe () :: !probes;
    match measured_ops ds.Gen.workload with
    | Some target when !hwm_at_mb = None && done_ () >= target ->
      hwm_at_mb := Some (Wire.status_mb srv "VmHWM")
    | _ -> ()
  done;
  Array.iter Thread.join threads;
  let rss_end_mb = Wire.status_mb srv "VmRSS" and hwm_end_mb = Wire.status_mb srv "VmHWM" in
  let c1, f1 = Wire.group_commit clients.(0) ds in
  { logs; start; stop = start + window; rss_setup_mb; hwm_setup_mb; rss_end_mb; hwm_end_mb;
    hwm_at_mb = !hwm_at_mb; group = (c1 - fst gc0, f1 - snd gc0);
    probes = Array.of_list !probes }

let failures (l : Wire.log) =
  let n = ref 0 in
  for i = 0 to l.Wire.n - 1 do if not l.Wire.good.(i) then incr n done;
  !n

(* Half the set-ups run before the window, the last of them being the
   driven server, and half after it, so their median samples the host over
   the whole run rather than one moment of it. *)
let wire_run (ds : Gen.t) ~reference ~seconds ~script =
  let sock = Filename.concat run_dir (Printf.sprintf "s%d.sock" (Unix.getpid ())) in
  let n = setups ds.Gen.workload in
  let warm_attempted = ref 0 and warm_failed = ref 0 in
  let set_up () =
    let srv, clients, streams, dt, warm = set_up ds ~reference ~script ~sock in
    Array.iter
      (fun l ->
        warm_attempted := !warm_attempted + l.Wire.n;
        warm_failed := !warm_failed + failures l)
      warm;
    let stop () = Array.iter Client.close clients; Wire.stop srv in
    (srv, clients, streams, dt, warm, stop)
  in
  let set_up_only () =
    let _, _, _, dt, _, stop = set_up () in
    stop ();
    dt
  in
  let before = (n + 1) / 2 in
  let pre = List.init (before - 1) (fun _ -> set_up_only ()) in
  let srv, clients, streams, dt, warm, stop = set_up () in
  let win =
    Fun.protect ~finally:stop (fun () ->
        measure ds ~reference ~window:(seconds * 1_000_000_000) (srv, clients, streams))
  in
  let post = List.init (n - before) (fun _ -> set_up_only ()) in
  { setup_s = Array.of_list (pre @ (dt :: post)); warm; win;
    warm_attempted = !warm_attempted; warm_failed = !warm_failed }

(* Latencies (us) of the window's successful ops of class [cls] (completed
   within [lo, hi) if given). *)
let latencies ?(within = (min_int, max_int)) win cls =
  let c = Gen.cls_index cls and lo, hi = within in
  let xs = ref [] in
  Array.iter
    (fun (l : Wire.log) ->
      for i = 0 to l.Wire.n - 1 do
        if l.Wire.good.(i) && l.Wire.cls.(i) = c && l.Wire.t1.(i) >= lo && l.Wire.t1.(i) < hi
        then xs := fi (l.Wire.t1.(i) - l.Wire.t0.(i)) /. 1e3 :: !xs
      done)
    win.logs;
  Array.of_list !xs

(* The host is shared, and bursts of contention from other tenants (0.25
   to 2 s long, at random moments) slow every process on it, so a median
   over the whole window moves with the share of the window they happen to
   cover. The steady workloads' window is therefore cut into 80 slices,
   and the slices into segments of ten. Within each segment a metric takes
   the quartile of its slices on the fast side; the run reports the median
   over segments: the speed the server sustains while the host leaves it
   alone. *)
let n_slices = 80
let per_segment = 10

(* The completion (ns) of the window's [k]th op of class [cls], or the end
   of the window when there are fewer. *)
let span_end win cls k =
  let c = Gen.cls_index cls and t1s = ref [] in
  Array.iter
    (fun (l : Wire.log) ->
      for i = 0 to l.Wire.n - 1 do
        if l.Wire.cls.(i) = c then t1s := l.Wire.t1.(i) :: !t1s
      done)
    win.logs;
  let t1s = Array.of_list !t1s in
  Array.sort compare t1s;
  if Array.length t1s >= k then t1s.(k - 1) else win.stop

(* Completed operations of class [cls] per second in each slice: each op
   counts by the share of its own duration that falls in the slice, which
   keeps slices smooth when ops are long. *)
let slice_rates win cls =
  let slice = (win.stop - win.start) / n_slices and c = Gen.cls_index cls in
  let done_ = Array.make n_slices 0. in
  Array.iter
    (fun (l : Wire.log) ->
      for i = 0 to l.Wire.n - 1 do
        if l.Wire.good.(i) && l.Wire.cls.(i) = c then begin
          let a = l.Wire.t0.(i) and b = l.Wire.t1.(i) in
          let d = fi (max 1 (b - a)) in
          for s = (a - win.start) / slice to min (n_slices - 1) ((b - 1 - win.start) / slice) do
            let lo = win.start + (s * slice) in
            let overlap = min b (lo + slice) - max a lo in
            if overlap > 0 then done_.(s) <- done_.(s) +. (fi overlap /. d)
          done
        end
      done)
    win.logs;
  Array.map (fun x -> Some (x /. (fi slice /. 1e9))) done_

(* The median latency (us) of the successful ops of class [cls] completed
   in each slice; [None] for a slice without one. *)
let slice_p50s win cls =
  let slice = (win.stop - win.start) / n_slices and c = Gen.cls_index cls in
  let by = Array.make n_slices [] in
  Array.iter
    (fun (l : Wire.log) ->
      for i = 0 to l.Wire.n - 1 do
        let s = (l.Wire.t1.(i) - win.start) / slice in
        if l.Wire.good.(i) && l.Wire.cls.(i) = c && s < n_slices then
          by.(s) <- (fi (l.Wire.t1.(i) - l.Wire.t0.(i)) /. 1e3) :: by.(s)
      done)
    win.logs;
  Array.map (fun xs -> Pct.median (Array.of_list xs)) by

(* The median over segments of the [q]-quantile of each segment's slices
   (0.75 for a rate, 0.25 for a latency: the fast side either way). *)
let over_segments q (xs : float option array) =
  let n = Array.length xs in
  let k = max 1 (n / per_segment) in
  List.init k (fun i ->
      let lo = i * n / k and hi = (i + 1) * n / k in
      match Array.of_list (List.filter_map Fun.id (Array.to_list (Array.sub xs lo (hi - lo)))) with
      | [||] -> None
      | ys ->
        let s = Pct.sorted ys in
        Some s.(Pct.rank (Array.length s) q - 1))
  |> List.filter_map Fun.id |> Array.of_list |> Pct.median

(* qps and lat_p50_us of class [cls], as measured: over the window's
   segments on a steady workload; over the first [k] ops on mixed_rw, as
   their mean rate and median latency. There the reader's mode moves the
   writer too (see [primary]), and a fast-side quartile would pick a mode
   rather than average over them. *)
let rate_and_p50 win cls = function
  | None -> (over_segments 0.75 (slice_rates win cls), over_segments 0.25 (slice_p50s win cls))
  | Some k ->
    let until = span_end win cls k in
    let lat = latencies ~within:(win.start, until + 1) win cls in
    (Some (fi (Array.length lat) /. (fi (until - win.start) /. 1e9)), Pct.median lat)

(* Throughput retained from the window's first half to its second, for the
   workload's own class (reads / writes / queries): below 1 when state the
   workload leaves behind slows the server down. A closed loop's rate is
   the inverse of its op latency, so each half's rate is taken from its
   median latency, which a burst of host preemption cannot move. Halves,
   not tenths: on mixed_rw throughput falls steeply early in the window,
   and a ratio of tenths spreads too much across runs. *)
let tput_retained cls win =
  let half = win.start + ((win.stop - win.start) / 2) in
  let p50 within = Option.get (Pct.median (latencies ~within win cls)) in
  p50 (win.start, half) /. p50 (half, win.stop)

let count (win : window) f =
  Array.fold_left
    (fun acc (l : Wire.log) ->
      let n = ref 0 in
      for i = 0 to l.Wire.n - 1 do if f l i then incr n done;
      acc + !n)
    0 win.logs

(* A percentile pair for class [cls] over the window, with its sample
   count (a p99 only where ten samples lie beyond it). *)
let pct (w : wire) name unit cls =
  let s = Pct.summary (latencies w.win cls) in
  let scale = if unit = "ms" then 1e-3 else 1. in
  let v = Option.map (( *. ) scale) in
  [ m ~n:s.Pct.n (name ^ "_p50_" ^ unit) unit (v s.Pct.p50);
    m ~n:s.Pct.n (name ^ "_p99_" ^ unit) unit (v s.Pct.p99) ]

let end_to_end (ds : Gen.t) (w : wire) =
  let completed = count w.win (fun l i -> l.Wire.good.(i)) in
  let attempted = count w.win (fun _ _ -> true) in
  let by_class =
    match ds.Gen.workload with
    | Gen.Point_text -> pct w "read" "us" Gen.Read
    | Gen.Mixed_rw -> pct w "read" "us" Gen.Read @ pct w "write" "us" Gen.Write
    | Gen.Analytic -> pct w "query" "ms" Gen.Analytic_query
  in
  let win = w.win and cls = primary ds.Gen.workload in
  let work = measured_ops ds.Gen.workload in
  let until = Option.fold ~none:win.stop ~some:(span_end win cls) work in
  let setup = Pct.median w.setup_s and q, lat = rate_and_p50 win cls work in
  let n_setup = Array.length w.setup_s
  and n_lat = Array.length (latencies ~within:(win.start, until + 1) win cls) in
  (* the gated timings, scaled to the reference host speed (see Host) *)
  let slow = Host.slowdown win.probes in
  let scaled f = Option.map (fun x -> f x slow) in
  [ m ~n:n_setup "setup_s" "s" (scaled ( /. ) setup);
    m ~n:n_lat "qps" "ops/s" (scaled ( *. ) q);
    m ~n:n_lat "lat_p50_us" "us" (scaled ( /. ) lat);
    m ~n:(Array.length win.probes) "host_slowdown" "ratio" (Some slow);
    m ~n:n_setup "setup_s_measured" "s" setup;
    m ~n:n_lat "qps_measured" "ops/s" q;
    m ~n:completed "all_ops_per_s" "ops/s"
      (Some (fi completed /. (fi (win.stop - win.start) /. 1e9)));
    m ~n:n_lat "lat_p50_us_measured" "us" lat;
    m "tput_retained" "ratio" (Some (tput_retained cls win));
    (* at the window's end if the host was too slow to finish [measured_ops] *)
    m "server_peak_rss_mb" "MB" (Some (Option.value win.hwm_at_mb ~default:win.hwm_end_mb));
    m "measured_span_s" "s" (Some (fi (until - win.start) /. 1e9));
    m "server_end_peak_rss_mb" "MB" (Some win.hwm_end_mb);
    m "server_setup_peak_rss_mb" "MB" (Some win.hwm_setup_mb);
    m "server_rss_growth_mb" "MB" (Some (win.rss_end_mb -. win.rss_setup_mb));
    m ~n:attempted "failed_frac" "fraction"
      (Some (Replay.failed_frac { Replay.attempted; failed = attempted - completed })) ]
  @ by_class

(* --- the traced replay ----------------------------------------------------- *)

(* Ops the replay runs: a prefix of the wire run's order, long enough for
   stable medians and short enough to keep every span in memory. *)
let replay_ops = function
  | Gen.Point_text -> 20_000
  | Gen.Mixed_rw -> 3_600
  | Gen.Analytic -> 480

(* The connection of each op of the driven server, warm-up and window, in
   the order they completed. *)
let wire_order (w : wire) =
  let timed =
    Array.concat
      (List.concat_map
         (fun logs ->
           Array.to_list
             (Array.mapi
                (fun c (l : Wire.log) -> Array.init l.Wire.n (fun i -> (l.Wire.t1.(i), c)))
                logs))
         [ w.warm; w.win.logs ])
  in
  Array.sort compare timed;
  Array.map snd timed

(* "session minus parse": each session.<kind> span is preceded by a sibling
   parse span of the same statement. *)
let minus_parse (s : Span.t array) kind =
  let name = "session." ^ kind in
  let xs = ref [] in
  Array.iteri
    (fun i (sp : Span.t) ->
      if sp.Span.name = name && i > 0 && s.(i - 1).Span.name = "parser.parse"
         && s.(i - 1).Span.parent = sp.Span.parent
      then
        let dur (x : Span.t) = x.Span.stop - x.Span.start in
        xs := fi (dur sp - dur s.(i - 1)) /. 1e3 :: !xs)
    s;
  Array.of_list !xs

let per_layer (ds : Gen.t) (w : wire) ~(untraced : Replay.pass) ~(traced : Replay.pass) =
  let r = traced.Replay.r in
  let self = Span.self_us_by_name traced.Replay.spans in
  let med ?(xs : float array option) name unit span =
    let xs = Option.value xs ~default:(self span) in
    m ~n:(Array.length xs) name unit (Pct.median xs)
  in
  let io = r.Replay.io in
  let q = fi r.Replay.queries in
  let cls = primary ds.Gen.workload in
  let server_cls = if ds.Gen.workload = Gen.Mixed_rw then Gen.Read else cls in
  let wire_p50 = Pct.median (latencies w.win server_cls) in
  let embedded_p50 =
    Pct.median untraced.Replay.lat_us.(Gen.cls_index server_cls)
  in
  let qe = Pct.sorted (Array.of_list r.Replay.qerrors) in
  let writes = fi r.Replay.writes and commits = fi r.Replay.commits in
  let gc_commits, gc_flushes = w.win.group in
  [ m "server.overhead_us" "us"
      (match wire_p50, embedded_p50 with
       | Some a, Some b -> Some (a -. b)
       | _ -> None);
    med "parser.parse_us" "us" "parser.parse";
    med "normalize.fingerprint_us" "us" "normalize.fingerprint";
    med "semant.resolve_us" "us" "semant.resolve";
    med "plan_cache.probe_us" "us" "plan_cache.probe";
    m ~n:r.Replay.probes "plan_cache.hit_ratio" "ratio"
      (ratio (fi r.Replay.hits) (fi r.Replay.probes));
    med "optimizer.optimize_us" "us" "optimizer.optimize";
    m ~n:(Array.length qe) "optimizer.cost_qerror_p50" "ratio" (Pct.at qe 0.5);
    m ~n:(Array.length qe) "optimizer.cost_qerror_p90" "ratio" (Pct.at qe 0.9);
    med "executor.run_us" "us" "executor.run";
    m "executor.rsi_per_row" "count"
      (ratio (fi io.Rss.Counters.rsi_calls) (fi r.Replay.out_rows));
    m "executor.sort_runs_per_query" "count" (ratio (fi io.Rss.Counters.sort_runs) q);
    med "btree.lookup_us" "us" "btree.lookup";
    m "btree.height" "count" (Some (fi (Replay.btree_height r)));
    m "buffer_pool.hit_ratio" "ratio"
      (ratio (fi io.Rss.Counters.buffer_hits)
         (fi (io.Rss.Counters.buffer_hits + io.Rss.Counters.page_fetches)));
    m "pager.page_fetches_per_query" "count" (ratio (fi io.Rss.Counters.page_fetches) q);
    med ~xs:(minus_parse traced.Replay.spans "update") "session.update_us" "us" "";
    med ~xs:(minus_parse traced.Replay.spans "delete") "session.delete_us" "us" "";
    med ~xs:(minus_parse traced.Replay.spans "insert") "session.insert_us" "us" "";
    m "wal.bytes_per_write" "bytes" (ratio (fi traced.Replay.wal_bytes) writes);
    m "wal.flushes_per_commit" "count" (ratio (fi traced.Replay.wal_flushes) commits);
    m "wal.resident_records" "count" (Some (fi traced.Replay.wal_records));
    m "engine.group_batch_mean" "count" (ratio (fi gc_commits) (fi gc_flushes));
    m "catalog.versions_per_row" "ratio" (Some traced.Replay.versions);
    m "trace.overhead_frac" "ratio"
      (ratio (fi (traced.Replay.wall_ns - untraced.Replay.wall_ns))
         (fi untraced.Replay.wall_ns)) ]

(* Metrics the result line carries: those measurable on every workload and
   steady enough across runs for their bound. The report line carries all
   of them. tput_retained is report-only: on mixed_rw write latency climbs
   in steps that fall at different moments in each run, so its ratio
   spreads past any bound (IQR/median up to 0.34 over ten seeds); so are
   the reader's figures on mixed_rw (see [primary]). mixed_rw itself is
   left out of BENCHMARK.json: even its writer's qps spreads up to 0.24 of
   the median over ten seeds, so it runs by hand only. qps is report-only
   too: in some periods the host delays a share of all requests by
   hundreds of us (on point_text p99 rose from 117 us to 721 us with p50
   unchanged), which halves a closed loop's throughput evenly through the
   run, past any slice or probe; lat_p50_us carries the per-request cost. *)
let final_end_to_end = [ "setup_s"; "lat_p50_us"; "server_peak_rss_mb" ]

let final_per_layer =
  [ "server.overhead_us"; "parser.parse_us"; "semant.resolve_us";
    "plan_cache.probe_us"; "plan_cache.hit_ratio"; "optimizer.optimize_us";
    "optimizer.cost_qerror_p50"; "optimizer.cost_qerror_p90"; "executor.run_us";
    "executor.rsi_per_row"; "executor.sort_runs_per_query"; "btree.lookup_us";
    "btree.height"; "buffer_pool.hit_ratio"; "pager.page_fetches_per_query";
    "trace.overhead_frac" ]

(* --- main ------------------------------------------------------------------ *)

let main () =
  let workload, seed, seconds, trace = args () in
  if not (Sys.file_exists Wire.server_exe) then
    failwith ("server binary missing: " ^ Wire.server_exe);
  (try Unix.mkdir run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let ds = Gen.make workload ~seed in
  let tag = Printf.sprintf "%s-%d-%d" (Gen.name workload) seed (Unix.getpid ()) in
  let script = Filename.concat run_dir ("seed-" ^ tag ^ ".sql") in
  Out_channel.with_open_text script (fun oc -> output_string oc ds.Gen.script);
  (* answers to compare against, computed outside every timed interval *)
  let pages, reference =
    match workload with
    | Gen.Analytic ->
      let db, answers = Replay.reference ds in
      (pages db, answers)
    | Gen.Point_text | Gen.Mixed_rw -> (pages (Replay.open_db ds), [||])
  in
  (* the embedded engine is garbage now: keep its heap out of the
     client's collections during the timed windows *)
  Gc.compact ();
  let w = wire_run ds ~reference ~seconds ~script in
  Sys.remove script;
  let e2e = end_to_end ds w in
  let order = wire_order w in
  let order = Array.sub order 0 (min (Array.length order) (replay_ops workload)) in
  let layers, replay_tally =
    if not trace then ([], [])
    else begin
      let untraced = Replay.pass ~traced:false ~reference ~order ds in
      let traced = Replay.pass ~traced:true ~reference ~order ds in
      Span.write (Filename.concat run_dir ("spans-" ^ tag ^ ".tsv")) traced.Replay.spans;
      ( per_layer ds w ~untraced ~traced,
        [ untraced.Replay.r.Replay.tally; traced.Replay.r.Replay.tally ] )
    end
  in
  let window_attempted = count w.win (fun _ _ -> true) in
  let window_failed = count w.win (fun l i -> not l.Wire.good.(i)) in
  let ops_per_conn order =
    json_list
      (List.init Gen.connections (fun c ->
           string_of_int (Array.fold_left (fun n x -> if x = c then n + 1 else n) 0 order)))
  in
  let attempted =
    window_attempted + w.warm_attempted
    + List.fold_left (fun a t -> a + t.Replay.attempted) 0 replay_tally
  in
  let failed =
    window_failed + w.warm_failed
    + List.fold_left (fun a t -> a + t.Replay.failed) 0 replay_tally
  in
  let all = e2e @ layers in
  let context =
    [ ("workload", json_string (Gen.name workload));
      ("seed", string_of_int seed);
      ("seconds", string_of_int seconds);
      ("trace", string_of_bool trace);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", json_string Sys.ocaml_version);
      ("commit", json_string (commit ()));
      ("connections", string_of_int Gen.connections);
      ("loop", json_string "closed: one request in flight per connection, no think time");
      ("flush_policy", json_string flush_policy);
      ("buffer_pool_pages", "64");
      ("tables",
       json_obj
         (List.map
            (fun (t, rows) ->
              ( t,
                json_obj
                  [ ("rows", string_of_int rows);
                    ("pages", string_of_int (Option.value (List.assoc_opt t pages) ~default:0)) ] ))
            ds.Gen.tables));
      ("window_ops", json_obj [ ("attempted", string_of_int window_attempted);
                                ("completed", string_of_int (window_attempted - window_failed)) ]);
      ("window_ops_per_connection",
       json_list (Array.to_list (Array.map (fun l -> string_of_int l.Wire.n) w.win.logs)));
      ("replay_ops_per_connection", if trace then ops_per_conn order else "null");
      ("setup_samples_s", json_list (Array.to_list (Array.map json_float w.setup_s)));
      ("unmeasured", json_list (List.map json_string unmeasured)) ]
  in
  print_endline
    (json_obj
       [ ("report",
          json_obj
            (context
             @ [ ("metrics", json_obj (List.map (fun x -> (x.name, metric_json x)) all)) ])) ]);
  let wanted = if trace then final_per_layer else final_end_to_end in
  let final =
    List.map
      (fun name ->
        match List.find_opt (fun x -> x.name = name) all with
        | Some ({ value = Some v; _ } as x) when Float.is_finite v ->
          (name, json_obj [ ("value", json_float v); ("unit", json_string x.unit) ])
        | _ -> failwith ("metric not measured: " ^ name))
      wanted
  in
  let correct = failed = 0 in
  print_endline
    (json_obj
       [ ("correct", string_of_bool correct);
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ("metrics", json_obj final) ]);
  if not correct then exit 1

let () =
  (* stopping the run must stop its servers too: exit runs the at_exit
     hook that kills them *)
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigint; Sys.sigterm ];
  try main ()
  with e ->
    prerr_endline ("perfbench: " ^ Printexc.to_string e);
    exit 2
