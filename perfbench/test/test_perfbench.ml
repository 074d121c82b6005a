(* Tests of the benchmark's own code: percentile sample-count rule, host
   slowdown, span self time, generator determinism, answer checks, failure accounting and
   the replay's B-tree probes. The replays run the real engine on the
   small size. *)

open Perfbench

let floats n = Array.init n (fun i -> float_of_int (i + 1))

let test_percentile_rule () =
  Alcotest.(check bool) "1000 samples support p99" true (Pct.supported 1000 0.99);
  Alcotest.(check bool) "999 samples do not" false (Pct.supported 999 0.99);
  let s = Pct.summary (floats 1000) in
  Alcotest.(check (option (float 0.))) "p99 of 1..1000" (Some 990.) s.Pct.p99;
  Alcotest.(check (option (float 0.))) "p50 of 1..1000" (Some 500.) s.Pct.p50;
  Alcotest.(check int) "sample count" 1000 s.Pct.n;
  let s = Pct.summary (floats 999) in
  Alcotest.(check (option (float 0.))) "no p99 below 1000" None s.Pct.p99;
  Alcotest.(check (option (float 0.))) "median of 3" (Some 2.)
    (Pct.median [| 3.; 1.; 2. |]);
  Alcotest.(check (option (float 0.))) "median of nothing" None (Pct.median [||]);
  Alcotest.(check (option (float 0.))) "p90 needs 100" None
    (Pct.at (floats 99) 0.9)

(* The host slowdown is the fast-side quartile of the probe times over the
   1 ms reference: probes slowed by contention do not count. *)
let test_host_slowdown () =
  let probes = Array.append (Array.make 6 2e6) (Array.make 2 4e6) in
  Alcotest.(check (float 1e-9)) "fast quartile over 1 ms" 2. (Host.slowdown probes);
  Alcotest.(check (float 1e-9)) "slow stragglers ignored" 1.
    (Host.slowdown (Array.append (Array.make 30 1e6) (Array.make 10 9e6)));
  Alcotest.(check bool) "a probe takes time" true (Host.probe () > 0.)

let span name start stop parent = { Span.name; start; stop; parent; req = 0 }

let test_self_time () =
  (* a root [0,100) with children [10,30) and [20,50) (overlapping: counted
     once), and [90,120) (clipped to the parent); one grandchild *)
  let s =
    [| span "root" 0 100 (-1); span "a" 10 30 0; span "b" 20 50 0;
       span "c" 90 120 0; span "d" 12 18 1 |]
  in
  Alcotest.(check (array int)) "self times" [| 50; 14; 30; 30; 6 |] (Span.self_times s);
  (* live spans nest through the call stack *)
  Span.reset ();
  Span.enabled := true;
  Span.with_request 7 "req" (fun () ->
      Span.with_ "x" (fun () -> Span.with_ "y" ignore);
      Span.with_ "z" ignore);
  Span.enabled := false;
  let s = Span.all () in
  Alcotest.(check (list string)) "entry order" [ "req"; "x"; "y"; "z" ]
    (Array.to_list (Array.map (fun sp -> sp.Span.name) s));
  Alcotest.(check (list int)) "parents" [ -1; 0; 1; 0 ]
    (Array.to_list (Array.map (fun sp -> sp.Span.parent) s));
  Alcotest.(check bool) "request id" true (Array.for_all (fun sp -> sp.Span.req = 7) s);
  let self = Span.self_times s in
  Alcotest.(check bool) "self within duration" true
    (Array.for_all2 (fun sp t -> t >= 0 && t <= sp.Span.stop - sp.Span.start) s self);
  Span.reset ();
  Alcotest.(check int) "off records nothing" 0
    (Span.with_ "off" (fun () -> Array.length (Span.all ())))

let ops ds conn n =
  let next = Gen.stream ds ~conn in
  List.init n (fun _ -> next ())

let test_determinism () =
  List.iter
    (fun w ->
      let a = Gen.make ~size:Gen.small w ~seed:7 and b = Gen.make ~size:Gen.small w ~seed:7 in
      let name = Gen.name w in
      Alcotest.(check string) (name ^ " script") a.Gen.script b.Gen.script;
      Alcotest.(check bool) (name ^ " streams") true
        (ops a 0 500 = ops b 0 500 && ops a 1 500 = ops b 1 500);
      Alcotest.(check bool) (name ^ " queries") true (a.Gen.queries = b.Gen.queries);
      let c = Gen.make ~size:Gen.small w ~seed:8 in
      Alcotest.(check bool) (name ^ " another seed differs") true
        (c.Gen.script <> a.Gen.script || ops c 0 500 <> ops a 0 500))
    Gen.workloads

let rows vs = List.map (fun v -> Array.of_list (List.map (fun i -> Rel.Value.Int i) v)) vs

let test_checks () =
  let expected = rows [ [ 1; 10 ]; [ 1; 11 ]; [ 2; 12 ] ] in
  let ok got = Check.result ~order_cols:[ 0 ] ~expected (rows got) in
  Alcotest.(check bool) "ties may permute" true (ok [ [ 1; 11 ]; [ 1; 10 ]; [ 2; 12 ] ]);
  Alcotest.(check bool) "order is checked" false (ok [ [ 2; 12 ]; [ 1; 10 ]; [ 1; 11 ] ]);
  Alcotest.(check bool) "multiset is checked" false (ok [ [ 1; 10 ]; [ 1; 10 ]; [ 2; 12 ] ]);
  Alcotest.(check bool) "unordered" true
    (Check.result ~order_cols:[] ~expected (rows [ [ 2; 12 ]; [ 1; 11 ]; [ 1; 10 ] ]));
  let str s = Rel.Value.Str s in
  Alcotest.(check bool) "tagged value" true
    (Check.read ~key:5 ~join:false [ [| str "k5:u3" |] ]);
  Alcotest.(check bool) "another key's value" false
    (Check.read ~key:5 ~join:false [ [| str "k50:u3" |] ]);
  Alcotest.(check bool) "two rows" false
    (Check.read ~key:5 ~join:false [ [| str "k5:a" |]; [| str "k5:b" |] ]);
  Alcotest.(check bool) "join dname" true
    (Check.read ~key:55 ~join:true [ [| str "k55:x"; str "d5" |] ]);
  Alcotest.(check bool) "DML tag" true (Check.one_row "updated" "1 row updated");
  Alcotest.(check bool) "DML tag, no row" false (Check.one_row "deleted" "0 rows deleted")

let replay ?script ds =
  let reference =
    if ds.Gen.workload = Gen.Analytic then snd (Replay.reference ds) else [||]
  in
  Replay.pass ?script ~traced:true ~reference ~order:(Array.init 80 (fun i -> i mod 2)) ds

(* Every workload runs clean on two seeds, the analytic answers of the
   cached, histogram-driven path matching the reference path's. *)
let test_two_seeds_clean () =
  List.iter
    (fun w ->
      List.iter
        (fun seed ->
          let p = replay (Gen.make ~size:Gen.small w ~seed) in
          let t = p.Replay.r.Replay.tally in
          Alcotest.(check bool)
            (Printf.sprintf "%s seed %d attempted" (Gen.name w) seed)
            true (t.Replay.attempted > 0);
          Alcotest.(check int)
            (Printf.sprintf "%s seed %d failed" (Gen.name w) seed)
            0 t.Replay.failed)
        [ 1; 2 ])
    Gen.workloads

(* Loading another seed's data makes every point read return a value the
   generator did not store for this seed: each must count as failed. *)
let test_injected_wrong_answer () =
  let ds = Gen.make ~size:Gen.small Gen.Point_text ~seed:1 in
  let other = Gen.make ~size:Gen.small Gen.Point_text ~seed:2 in
  let p = replay ~script:other.Gen.script ds in
  let t = p.Replay.r.Replay.tally in
  Alcotest.(check int) "every op failed" t.Replay.attempted t.Replay.failed;
  Alcotest.(check bool) "failed_frac raised" true (Replay.failed_frac t = 1.)

(* Each read's B-tree descent is timed after the counted ops: every
   btree.lookup span starts after the last request ends, and the traced
   pass's I/O counters equal those of an untraced pass, which runs no
   probes. *)
let test_probes_after_ops () =
  let ds = Gen.make ~size:Gen.small Gen.Point_text ~seed:1 in
  let order = Array.init 80 (fun i -> i mod 2) in
  let traced = Replay.pass ~traced:true ~reference:[||] ~order ds in
  let untraced = Replay.pass ~traced:false ~reference:[||] ~order ds in
  let spans = Array.to_list traced.Replay.spans in
  let lookups = List.filter (fun sp -> sp.Span.name = "btree.lookup") spans in
  let last_request =
    List.fold_left
      (fun acc sp -> if sp.Span.parent = -1 && sp.Span.name <> "btree.lookup" then max acc sp.Span.stop else acc)
      0 spans
  in
  Alcotest.(check int) "one probe per read" 80 (List.length lookups);
  Alcotest.(check bool) "probes after the ops" true
    (List.for_all (fun sp -> sp.Span.start >= last_request) lookups);
  let io (p : Replay.pass) =
    let c = p.Replay.r.Replay.io in
    (c.Rss.Counters.buffer_hits, c.Rss.Counters.page_fetches)
  in
  Alcotest.(check (pair int int)) "probes leave the counted I/O alone" (io untraced) (io traced)

let () =
  Alcotest.run "perfbench"
    [ ( "perfbench",
        [ Alcotest.test_case "percentile sample-count rule" `Quick test_percentile_rule;
          Alcotest.test_case "host slowdown" `Quick test_host_slowdown;
          Alcotest.test_case "self time from nested spans" `Quick test_self_time;
          Alcotest.test_case "generator determinism" `Quick test_determinism;
          Alcotest.test_case "answer checks" `Quick test_checks;
          Alcotest.test_case "two seeds run clean" `Quick test_two_seeds_clean;
          Alcotest.test_case "injected wrong answer fails" `Quick
            test_injected_wrong_answer;
          Alcotest.test_case "B-tree probes after the counted ops" `Quick
            test_probes_after_ops ] ) ]
