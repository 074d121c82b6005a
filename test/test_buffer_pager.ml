let test_lru_basics () =
  let pool = Rss.Buffer_pool.create ~capacity:2 in
  Alcotest.(check bool) "miss 1" true (Rss.Buffer_pool.touch pool 1 = `Miss);
  Alcotest.(check bool) "miss 2" true (Rss.Buffer_pool.touch pool 2 = `Miss);
  Alcotest.(check bool) "hit 1" true (Rss.Buffer_pool.touch pool 1 = `Hit);
  (* 2 is now LRU; touching 3 evicts it *)
  Alcotest.(check bool) "miss 3" true (Rss.Buffer_pool.touch pool 3 = `Miss);
  Alcotest.(check bool) "2 evicted" false (Rss.Buffer_pool.contains pool 2);
  Alcotest.(check bool) "1 resident" true (Rss.Buffer_pool.contains pool 1);
  Alcotest.(check int) "resident" 2 (Rss.Buffer_pool.resident pool)

let test_lru_recency_order () =
  let pool = Rss.Buffer_pool.create ~capacity:3 in
  List.iter (fun i -> ignore (Rss.Buffer_pool.touch pool i)) [ 1; 2; 3 ];
  ignore (Rss.Buffer_pool.touch pool 1);  (* order now 1,3,2 *)
  ignore (Rss.Buffer_pool.touch pool 4);  (* evicts 2 *)
  Alcotest.(check bool) "2 out" false (Rss.Buffer_pool.contains pool 2);
  ignore (Rss.Buffer_pool.touch pool 5);  (* evicts 3 *)
  Alcotest.(check bool) "3 out" false (Rss.Buffer_pool.contains pool 3);
  Alcotest.(check bool) "1 still in" true (Rss.Buffer_pool.contains pool 1)

let test_lru_capacity_one () =
  let pool = Rss.Buffer_pool.create ~capacity:1 in
  ignore (Rss.Buffer_pool.touch pool 1);
  Alcotest.(check bool) "rehit" true (Rss.Buffer_pool.touch pool 1 = `Hit);
  ignore (Rss.Buffer_pool.touch pool 2);
  Alcotest.(check bool) "evicted" false (Rss.Buffer_pool.contains pool 1)

let test_evict_all () =
  let pool = Rss.Buffer_pool.create ~capacity:4 in
  List.iter (fun i -> ignore (Rss.Buffer_pool.touch pool i)) [ 1; 2; 3 ];
  Rss.Buffer_pool.evict_all pool;
  Alcotest.(check int) "empty" 0 (Rss.Buffer_pool.resident pool);
  Alcotest.(check bool) "cold again" true (Rss.Buffer_pool.touch pool 1 = `Miss)

let test_bad_capacity () =
  Alcotest.check_raises "zero" (Invalid_argument "Buffer_pool.create: capacity < 1")
    (fun () -> ignore (Rss.Buffer_pool.create ~capacity:0))

(* --- pager ------------------------------------------------------------- *)

let test_pager_counters () =
  let pager = Rss.Pager.create ~buffer_pages:2 () in
  let p1 = Rss.Pager.alloc_data_page pager in
  let p2 = Rss.Pager.alloc_data_page pager in
  let p3 = Rss.Pager.alloc_data_page pager in
  let c = Rss.Pager.counters pager in
  Alcotest.(check int) "no fetches yet" 0 c.Rss.Counters.page_fetches;
  ignore (Rss.Pager.read_data_page pager (Rss.Page.id p1));
  ignore (Rss.Pager.read_data_page pager (Rss.Page.id p1));
  Alcotest.(check int) "one fetch" 1 c.Rss.Counters.page_fetches;
  Alcotest.(check int) "one hit" 1 c.Rss.Counters.buffer_hits;
  ignore (Rss.Pager.read_data_page pager (Rss.Page.id p2));
  ignore (Rss.Pager.read_data_page pager (Rss.Page.id p3));
  (* p1 evicted by p3 (capacity 2) *)
  ignore (Rss.Pager.read_data_page pager (Rss.Page.id p1));
  Alcotest.(check int) "four fetches" 4 c.Rss.Counters.page_fetches;
  Rss.Pager.note_rsi_call pager;
  Rss.Pager.note_page_written pager;
  Alcotest.(check int) "rsi" 1 c.Rss.Counters.rsi_calls;
  Alcotest.(check int) "written" 1 c.Rss.Counters.pages_written

let test_counters_diff_cost () =
  let c = Rss.Counters.create () in
  c.Rss.Counters.page_fetches <- 10;
  c.Rss.Counters.rsi_calls <- 4;
  let before = Rss.Counters.snapshot c in
  c.Rss.Counters.page_fetches <- 15;
  c.Rss.Counters.rsi_calls <- 10;
  c.Rss.Counters.pages_written <- 2;
  let d = Rss.Counters.diff ~after:(Rss.Counters.snapshot c) ~before in
  Alcotest.(check int) "fetch diff" 5 d.Rss.Counters.page_fetches;
  Alcotest.(check int) "rsi diff" 6 d.Rss.Counters.rsi_calls;
  Alcotest.(check (float 1e-9)) "cost" (5. +. 2. +. (0.5 *. 6.))
    (Rss.Counters.cost ~w:0.5 d)

let test_pager_page_id_namespace () =
  let pager = Rss.Pager.create () in
  let p = Rss.Pager.alloc_data_page pager in
  let id2 = Rss.Pager.alloc_page_id pager in
  Alcotest.(check bool) "distinct ids" true (Rss.Page.id p <> id2)

(* LRU pool vs a naive reference model *)
let prop_lru_model =
  QCheck.Test.make ~name:"LRU matches reference model" ~count:200
    QCheck.(list (int_bound 7))
    (fun accesses ->
      let cap = 3 in
      let pool = Rss.Buffer_pool.create ~capacity:cap in
      (* model: list of resident pages, most recent first *)
      let model = ref [] in
      List.for_all
        (fun pg ->
          let expected =
            if List.mem pg !model then begin
              model := pg :: List.filter (( <> ) pg) !model;
              `Hit
            end
            else begin
              model := pg :: !model;
              if List.length !model > cap then
                model := List.filteri (fun i _ -> i < cap) !model;
              `Miss
            end
          in
          Rss.Buffer_pool.touch pool pg = expected)
        accesses)

(* Latched, driven from one domain, the pool must behave exactly like the
   unlatched one: same hit/miss per touch and same membership after every
   step (hence the same eviction order), across cold restarts and latch
   transitions. Touches mostly stay in a hot set that fits the pool, so long
   runs of hits overflow the promotion buffer before the next miss. *)
type op = Touch of int | Evict_all | Toggle_latch

let ops_gen =
  QCheck.Gen.(
    int_range 1 6 >>= fun cap ->
    let op =
      frequency
        [ (150, map (fun i -> Touch i) (int_bound (cap - 1)));
          (3, map (fun i -> Touch i) (int_bound 11));
          (1, return Evict_all);
          (1, return Toggle_latch) ]
    in
    map (fun ops -> (cap, ops)) (list_size (int_range 0 1500) op))

let prop_latched_single_domain_exact =
  QCheck.Test.make ~name:"latched single domain = unlatched" ~count:300
    (QCheck.make
       ~print:(fun (cap, ops) ->
         Printf.sprintf "capacity %d, %d ops" cap (List.length ops))
       ops_gen)
    (fun (cap, ops) ->
      let plain = Rss.Buffer_pool.create ~capacity:cap in
      let latched = Rss.Buffer_pool.create ~capacity:cap in
      Rss.Buffer_pool.set_latched latched true;
      let on = ref true in
      let same_members () =
        List.for_all
          (fun i ->
            Rss.Buffer_pool.contains plain i = Rss.Buffer_pool.contains latched i)
          (List.init 12 Fun.id)
      in
      let ok =
        List.for_all
          (fun op ->
            (match op with
             | Touch i ->
               Rss.Buffer_pool.touch plain i = Rss.Buffer_pool.touch latched i
             | Evict_all ->
               Rss.Buffer_pool.evict_all plain;
               Rss.Buffer_pool.evict_all latched;
               true
             | Toggle_latch ->
               on := not !on;
               Rss.Buffer_pool.set_latched latched !on;
               true)
            && same_members ())
          ops
      in
      Rss.Buffer_pool.check latched;
      ok)

(* Two domains hammer one latched pool: afterwards the structure is intact
   and every touch was counted exactly once. *)
let test_two_domain_stress () =
  let cap = 8 and n = 20_000 in
  let pool = Rss.Buffer_pool.create ~capacity:cap in
  Rss.Buffer_pool.set_latched pool true;
  let worker seed () =
    let r = Random.State.make [| seed |] in
    let hits = ref 0 and misses = ref 0 in
    for _ = 1 to n do
      (* a hot set that mostly fits, plus a cold tail that forces evictions *)
      let id =
        if Random.State.int r 4 = 0 then 8 + Random.State.int r 40
        else Random.State.int r 6
      in
      match Rss.Buffer_pool.touch pool id with
      | `Hit -> incr hits
      | `Miss -> incr misses
    done;
    Rss.Buffer_pool.flush_local pool;
    (!hits, !misses)
  in
  let d = Domain.spawn (worker 1) in
  let h0, m0 = worker 2 () in
  let h1, m1 = Domain.join d in
  Rss.Buffer_pool.check pool;
  Alcotest.(check bool) "resident <= capacity" true
    (Rss.Buffer_pool.resident pool <= cap);
  Alcotest.(check int) "hits + misses = touches" (2 * n) (h0 + m0 + h1 + m1);
  Alcotest.(check bool) "both outcomes seen" true (h0 + h1 > 0 && m0 + m1 > 0);
  Rss.Buffer_pool.set_latched pool false;
  Rss.Buffer_pool.check pool

let () =
  Alcotest.run "buffer_pager"
    [ ( "lru",
        [ Alcotest.test_case "basics" `Quick test_lru_basics;
          Alcotest.test_case "recency order" `Quick test_lru_recency_order;
          Alcotest.test_case "capacity one" `Quick test_lru_capacity_one;
          Alcotest.test_case "evict all" `Quick test_evict_all;
          Alcotest.test_case "bad capacity" `Quick test_bad_capacity;
          Alcotest.test_case "two-domain stress" `Quick test_two_domain_stress ] );
      ( "pager",
        [ Alcotest.test_case "counters" `Quick test_pager_counters;
          Alcotest.test_case "diff and cost" `Quick test_counters_diff_cost;
          Alcotest.test_case "page id namespace" `Quick test_pager_page_id_namespace ] );
      ( "props",
        [ QCheck_alcotest.to_alcotest prop_lru_model;
          QCheck_alcotest.to_alcotest prop_latched_single_domain_exact ] ) ]
