(* Crash-recovery torture: a generated multi-transaction workload is run
   against the engine once under Failpoint.count_only to enumerate every
   durability-relevant write it performs, then re-run once per enumerated
   crash point with that point armed. Each armed run dies mid-flight with
   Failpoint.Crash; the WAL bytes that survive the "power cut" are replayed
   into a fresh database (Database.recover) and the recovered state is
   compared against an independent oracle computed from the committed prefix
   of those same bytes. Appends only buffer; the durability boundary is
   Wal.flush (the "wal.group_flush" site, one flush per commit group), so a
   crash at wal.group_flush expands into a torn-tail sweep over the *batch*
   that was being written — truncated at every byte offset up to the batch
   size — while a crash at wal.append tears nothing (the record never left
   the buffer).

   The multi-session variant below ([gen_ms_workload]/[torture_ms]) drives
   interleaved transactions from several sessions of one engine under
   [Engine.set_group_hold], so explicit flush points form multi-commit
   batches deterministically; it additionally tracks which commits were
   *acknowledged* (their covering [Engine.flush_group] returned) and checks
   the group-commit ack rule per crash image: an acknowledged commit must
   survive every torn truncation — a crash mid-batch may lose only commits
   whose ack was never released.

   The oracle shares only the WAL codec (property-tested separately in
   test_lock_wal) with the recovery path it audits: it is a naive replay of
   Insert/Delete records of committed transactions into an association list,
   with none of Recovery's segment/page machinery.

   What a divergence means:
   - an effect of a committed transaction is missing after recovery, or
   - an effect of an uncommitted/aborted transaction survived recovery, or
   - heap and indexes disagree after the post-recovery index rebuild
     (Database.check_integrity), or
   - an armed failpoint failed to fire on the re-run (the workload is not
     deterministic — a harness bug).

   Small structural knobs make tiny workloads reach the deep code paths:
   databases are built with a 2-page buffer pool (evictions) and a B-tree
   order override of 4 (splits). *)

module V = Rel.Value
module F = Rss.Failpoint
module W = Rss.Wal

(* --- workloads ---------------------------------------------------------- *)

type dml =
  | Ins of string * V.t list list            (* table, rows *)
  | Del of string * (string * V.t) option    (* table, optional col = lit *)
  | Upd of string * (string * V.t) option    (* SET c0 = c0 + 1 *)

type group =
  | Auto of dml                              (* auto-commit statement *)
  | Txn of dml list * [ `Commit | `Rollback ]
  | Vac                                      (* VACUUM: reclaim dead versions *)

type workload = { scenario : Fuzz_gen.scenario; groups : group list }

let gen_rows rng (t : Fuzz_gen.table) =
  let n = 1 + Random.State.int rng 3 in
  List.init n (fun _ ->
      List.map
        (fun (c : Fuzz_gen.column) ->
          Fuzz_gen.gen_value rng
            (fun () -> Random.State.int rng c.Fuzz_gen.distinct)
            c)
        t.Fuzz_gen.cols)

let gen_dml rng (t : Fuzz_gen.table) =
  match Random.State.int rng 6 with
  | 0 | 1 -> Del (t.Fuzz_gen.tname, Fuzz_mvcc.gen_dml_pred rng t)
  | 2 -> Upd (t.Fuzz_gen.tname, Fuzz_mvcc.gen_dml_pred rng t)
  | _ -> Ins (t.Fuzz_gen.tname, gen_rows rng t)

let gen_workload rng =
  let scenario = Fuzz_gen.gen_scenario rng in
  let tables = Array.of_list scenario.Fuzz_gen.tables in
  let pick_table () = tables.(Random.State.int rng (Array.length tables)) in
  let ngroups = 3 + Random.State.int rng 5 in
  let groups =
    List.init ngroups (fun _ ->
        if Random.State.int rng 6 = 0 then Vac
        else if Random.State.int rng 3 = 0 then Auto (gen_dml rng (pick_table ()))
        else begin
          let n = 1 + Random.State.int rng 3 in
          let dmls = List.init n (fun _ -> gen_dml rng (pick_table ())) in
          let fin =
            if Random.State.int rng 4 = 0 then `Rollback else `Commit
          in
          Txn (dmls, fin)
        end)
  in
  { scenario; groups }

(* --- rendering ----------------------------------------------------------- *)

let dml_sql b = function
  | Ins (t, rows) -> Fuzz_sql.insert_rows b ~name:t rows
  | Del (t, p) -> Buffer.add_string b (Fuzz_mvcc.(op_sql (Delete (t, p))) ^ ";\n")
  | Upd (t, p) -> Buffer.add_string b (Fuzz_mvcc.(op_sql (Update (t, p))) ^ ";\n")

let workload_sql (w : workload) =
  let b = Buffer.create 512 in
  List.iter
    (function
      | Auto d -> dml_sql b d
      | Vac -> Buffer.add_string b "VACUUM;\n"
      | Txn (ds, fin) ->
        Buffer.add_string b "BEGIN;\n";
        List.iter (dml_sql b) ds;
        Buffer.add_string b
          (match fin with `Commit -> "COMMIT;\n" | `Rollback -> "ROLLBACK;\n"))
    w.groups;
  Buffer.contents b

(* DDL + initial data + workload as a paste-ready script. *)
let reproducer (w : workload) =
  Fuzz_harness.ddl_script ~indexes:true w.scenario ^ workload_sql w

(* --- database construction ----------------------------------------------- *)

(* A deliberately cramped instance: 2 buffer pages force evictions and
   order-4 B-trees force splits on workloads of a dozen rows. [data] is off
   for recovery targets — their contents come from the log, not the DDL. *)
let build_db ~data (s : Fuzz_gen.scenario) =
  Rss.Btree.set_order_override (Some 4);
  Fun.protect
    ~finally:(fun () -> Rss.Btree.set_order_override None)
    (fun () ->
      let db = Database.create ~buffer_pages:2 () in
      let b = Buffer.create 1024 in
      List.iter
        (fun (t : Fuzz_gen.table) ->
          Fuzz_sql.create_table b ~name:t.Fuzz_gen.tname
            ~cols:
              (List.map
                 (fun (c : Fuzz_gen.column) -> (c.Fuzz_gen.cname, c.Fuzz_gen.cty))
                 t.Fuzz_gen.cols);
          if data then Fuzz_sql.insert_rows b ~name:t.Fuzz_gen.tname t.Fuzz_gen.rows;
          List.iter
            (fun (name, cols, clustered) ->
              Fuzz_sql.create_index b ~name ~table:t.Fuzz_gen.tname ~cols
                ~clustered)
            t.Fuzz_gen.indexes)
        s.Fuzz_gen.tables;
      ignore (Database.exec_script db (Buffer.contents b));
      db)

let run_workload db w = ignore (Database.exec_script db (workload_sql w))

(* --- the committed-prefix oracle ----------------------------------------- *)

(* rel_id -> sorted multiset of rendered rows, by naive replay of the
   surviving bytes. Relations are identified by creation order, which the
   recovery target reproduces by running the same DDL. *)
let oracle_multisets bytes =
  let recs = W.records (W.of_bytes bytes) in
  let committed =
    List.filter_map (function W.Commit tx -> Some tx | _ -> None) recs
  in
  let is_committed tx = List.mem tx committed in
  let live = ref [] in
  let rec remove_first key = function
    | [] -> []
    | (k, _) :: rest when k = key -> rest
    | b :: rest -> b :: remove_first key rest
  in
  List.iter
    (function
      | W.Insert { txn; rel_id; tid; tuple } when is_committed txn ->
        live := ((tid, rel_id), tuple) :: !live
      | W.Delete { txn; rel_id; tid; _ } when is_committed txn ->
        live := remove_first (tid, rel_id) !live
      | _ -> ())
    recs;
  let by_rel : (int, string list) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun ((_, rel_id), tuple) ->
      let prev = Option.value (Hashtbl.find_opt by_rel rel_id) ~default:[] in
      Hashtbl.replace by_rel rel_id (Fuzz_harness.row_key tuple :: prev))
    !live;
  fun rel_id ->
    List.sort String.compare
      (Option.value (Hashtbl.find_opt by_rel rel_id) ~default:[])

let db_multiset db tname =
  match Catalog.find_relation (Database.catalog db) tname with
  | None -> []
  | Some rel ->
    let tuples =
      Rss.Scan.to_list
        (Rss.Scan.open_segment_scan rel.Catalog.segment
           ~rel_id:rel.Catalog.rel_id ())
    in
    List.sort String.compare
      (List.map (fun (_, tup) -> Fuzz_harness.row_key tup) tuples)

(* --- divergences --------------------------------------------------------- *)

type divergence = {
  t_site : string;      (* failpoint site; "clean" for the no-crash pass *)
  t_hit : int;          (* 1-based hit index the crash was armed at *)
  t_torn : int;         (* bytes torn off the final WAL record (0 = whole) *)
  t_table : string;     (* "" when not table-specific *)
  t_detail : string;
  t_expected : string list;
  t_actual : string list;
}

let pp_divergence ppf d =
  Format.fprintf ppf
    "site=%s hit=%d torn=%d%s: %s@\nexpected: [%s]@\nactual:   [%s]"
    d.t_site d.t_hit d.t_torn
    (if d.t_table = "" then "" else " table=" ^ d.t_table)
    d.t_detail
    (String.concat "; " d.t_expected)
    (String.concat "; " d.t_actual)

(* Recover a fresh database from [bytes] and compare it against the oracle:
   committed effects present, uncommitted effects absent, heap and indexes
   in agreement. *)
let check_recovery (s : Fuzz_gen.scenario) bytes ~site ~hit ~torn =
  let oracle = oracle_multisets bytes in
  let rdb = build_db ~data:false s in
  ignore (Database.recover rdb bytes);
  match Database.check_integrity rdb with
  | Error msg ->
    Some
      { t_site = site; t_hit = hit; t_torn = torn; t_table = "";
        t_detail = "integrity after recovery: " ^ msg;
        t_expected = []; t_actual = [] }
  | Ok () ->
    List.find_map
      (fun (rel_id, (t : Fuzz_gen.table)) ->
        let expected = oracle rel_id in
        let actual = db_multiset rdb t.Fuzz_gen.tname in
        if expected <> actual then
          Some
            { t_site = site; t_hit = hit; t_torn = torn;
              t_table = t.Fuzz_gen.tname;
              t_detail = "recovered state differs from committed prefix";
              t_expected = expected; t_actual = actual }
        else None)
      (List.mapi (fun i t -> (i, t)) s.Fuzz_gen.tables)

(* --- the torture loop ---------------------------------------------------- *)

(* Maximal torn span of a crash at [site]: a crash during the flush tears
   the batch that was being written (the whole batch, down to nothing); a
   crash anywhere else leaves the device exactly at the last completed
   flush, so nothing tears. *)
let torn_span ~site db bytes =
  if site = "wal.group_flush" then
    min (W.last_flush_size (Database.wal db)) (String.length bytes)
  else 0

(* One armed run: build, arm, execute until the crash, capture the frozen
   log. Returns whether the crash fired, the serialized WAL, and the torn
   sweep span. *)
let crash_run (w : workload) ~site ~at =
  let db = build_db ~data:true w.scenario in
  F.arm ~site ~at;
  let fired = (try run_workload db w; false with F.Crash _ -> true) in
  F.disarm ();
  let bytes = W.to_bytes (Database.wal db) in
  let torn = torn_span ~site db bytes in
  F.reset ();
  (fired, bytes, torn)

exception Found of divergence

(* Run the full torture over one workload: enumerate crash points with a
   counting pass, then crash at every [crash_every]-th hit of every site
   (plus the torn-tail sweep for wal.group_flush crashes) and check recovery
   of each surviving image. Returns the number of crash-point images checked
   and the first divergence, if any. *)
let torture ?(crash_every = 1) (w : workload) : int * divergence option =
  let points = ref 0 in
  let harness_bug detail =
    { t_site = "harness"; t_hit = 0; t_torn = 0; t_table = "";
      t_detail = detail; t_expected = []; t_actual = [] }
  in
  try
    (* counting pass: which sites does this workload reach, how often? *)
    let db = build_db ~data:true w.scenario in
    F.count_only ();
    run_workload db w;
    F.disarm ();
    let counts = F.counts () in
    F.reset ();
    (* clean pass: with no crash, the log must fully describe the live
       database, and recovering from it must reproduce that state *)
    let bytes = W.to_bytes (Database.wal db) in
    let oracle = oracle_multisets bytes in
    List.iteri
      (fun rel_id (t : Fuzz_gen.table) ->
        let expected = oracle rel_id in
        let actual = db_multiset db t.Fuzz_gen.tname in
        if expected <> actual then
          raise
            (Found
               { t_site = "clean"; t_hit = 0; t_torn = 0;
                 t_table = t.Fuzz_gen.tname;
                 t_detail = "live state differs from its own log";
                 t_expected = expected; t_actual = actual }))
      w.scenario.Fuzz_gen.tables;
    (match check_recovery w.scenario bytes ~site:"clean" ~hit:0 ~torn:0 with
     | Some d -> raise (Found d)
     | None -> ());
    (* crash passes *)
    List.iter
      (fun (site, total) ->
        let k = ref 1 in
        while !k <= total do
          let fired, bytes, torn_max = crash_run w ~site ~at:!k in
          if not fired then
            raise
              (Found
                 (harness_bug
                    (Printf.sprintf
                       "failpoint %s did not fire at hit %d on re-run (workload \
                        not deterministic?)"
                       site !k)));
          for j = 0 to torn_max do
            let surviving = String.sub bytes 0 (String.length bytes - j) in
            incr points;
            match check_recovery w.scenario surviving ~site ~hit:!k ~torn:j with
            | Some d -> raise (Found d)
            | None -> ()
          done;
          k := !k + crash_every
        done)
      counts;
    (!points, None)
  with Found d -> (!points, Some d)

(* --- shrinking ----------------------------------------------------------- *)

let w_size (w : workload) =
  let dml_weight = function
    | Ins (_, rows) -> 10 + List.length rows
    | Del _ | Upd _ -> 10
  in
  let group_weight = function
    | Auto d -> 100 + dml_weight d
    | Vac -> 100
    | Txn (ds, _) ->
      100 + List.fold_left (fun acc d -> acc + dml_weight d) 0 ds
  in
  let scenario_weight =
    List.fold_left
      (fun acc (t : Fuzz_gen.table) ->
        acc + 1000 + List.length t.Fuzz_gen.rows
        + (50 * List.length t.Fuzz_gen.indexes))
      0 w.scenario.Fuzz_gen.tables
  in
  scenario_weight + List.fold_left (fun acc g -> acc + group_weight g) 0 w.groups

let w_candidates (w : workload) : workload list =
  let cands = ref [] in
  let add c = cands := c :: !cands in
  (* drop each group *)
  List.iteri
    (fun i _ -> add { w with groups = List.filteri (fun j _ -> j <> i) w.groups })
    w.groups;
  (* within transactional groups: drop statements; unwrap singletons *)
  List.iteri
    (fun i g ->
      match g with
      | Auto _ | Vac -> ()
      | Txn (ds, fin) ->
        if List.length ds > 1 then
          List.iteri
            (fun di _ ->
              let ds' = List.filteri (fun j _ -> j <> di) ds in
              add
                { w with
                  groups =
                    List.mapi (fun j g -> if j = i then Txn (ds', fin) else g)
                      w.groups })
            ds;
        (match ds, fin with
         | [ d ], `Commit ->
           add
             { w with
               groups =
                 List.mapi (fun j g -> if j = i then Auto d else g) w.groups }
         | _ -> ()))
    w.groups;
  (* shrink inserted rows *)
  List.iteri
    (fun i g ->
      let shrink_dml d =
        match d with
        | Ins (t, (_ :: _ :: _ as rows)) ->
          [ Ins (t, [ List.hd rows ]); Ins (t, List.tl rows) ]
        | _ -> []
      in
      let replace_group g' =
        add { w with groups = List.mapi (fun j h -> if j = i then g' else h) w.groups }
      in
      match g with
      | Auto d -> List.iter (fun d' -> replace_group (Auto d')) (shrink_dml d)
      | Vac -> ()
      | Txn (ds, fin) ->
        List.iteri
          (fun di d ->
            List.iter
              (fun d' ->
                replace_group
                  (Txn (List.mapi (fun j e -> if j = di then d' else e) ds, fin)))
              (shrink_dml d))
          ds)
    w.groups;
  (* scenario: drop tables no group touches, halve initial rows, drop
     indexes *)
  let touched =
    List.concat_map
      (fun g ->
        let of_dml = function Ins (t, _) | Del (t, _) | Upd (t, _) -> t in
        match g with
        | Auto d -> [ of_dml d ]
        | Vac -> []
        | Txn (ds, _) -> List.map of_dml ds)
      w.groups
  in
  let tables = w.scenario.Fuzz_gen.tables in
  if List.length tables > 1 then
    List.iter
      (fun (t : Fuzz_gen.table) ->
        if not (List.mem t.Fuzz_gen.tname touched) then
          add
            { w with
              scenario =
                { Fuzz_gen.tables =
                    List.filter
                      (fun (u : Fuzz_gen.table) ->
                        u.Fuzz_gen.tname <> t.Fuzz_gen.tname)
                      tables } })
      tables;
  List.iter
    (fun (t : Fuzz_gen.table) ->
      let replace_table t' =
        add
          { w with
            scenario =
              { Fuzz_gen.tables =
                  List.map
                    (fun (u : Fuzz_gen.table) ->
                      if u.Fuzz_gen.tname = t.Fuzz_gen.tname then t' else u)
                    tables } }
      in
      let n = List.length t.Fuzz_gen.rows in
      if n > 0 then begin
        replace_table
          { t with Fuzz_gen.rows = List.filteri (fun i _ -> i < n / 2) t.Fuzz_gen.rows };
        replace_table { t with Fuzz_gen.rows = List.tl t.Fuzz_gen.rows }
      end;
      if t.Fuzz_gen.indexes <> [] then replace_table { t with Fuzz_gen.indexes = [] })
    tables;
  List.rev !cands

(* Shrink a diverging workload: a candidate is kept when a full torture pass
   over it still finds a divergence. *)
let shrink ?(crash_every = 1) ~max_steps (w : workload) : workload * int =
  Fuzz_shrink.shrink_generic ~size:w_size ~candidates:w_candidates
    ~still_failing:(fun c -> snd (torture ~crash_every c) <> None)
    ~max_steps w

(* --- multi-session interleaved workloads --------------------------------- *)

(* Several sessions of ONE engine on ONE domain (the failpoint registry is
   single-domain-only), interleaved by an explicit deterministic item list —
   the same cooperative-scheduler shape as fuzz_mvcc. The engine runs under
   [Engine.set_group_hold]: commits enqueue without flushing, and each
   [S_flush] item closes the window with one [Engine.flush_group] — whose
   return value defines which commits were *acknowledged*. *)

type ms_item =
  | S_begin of int              (* session index *)
  | S_dml of int * dml
  | S_commit of int
  | S_rollback of int
  | S_flush                     (* the leader's window closes: one batch *)

type ms_workload = {
  ms_scenario : Fuzz_gen.scenario;
  nsessions : int;
  items : ms_item list;
}

let gen_ms_workload rng =
  let scenario = Fuzz_gen.gen_scenario rng in
  let tables = Array.of_list scenario.Fuzz_gen.tables in
  let pick_table () = tables.(Random.State.int rng (Array.length tables)) in
  let nsessions = 2 + Random.State.int rng 2 in
  let streams =
    Array.init nsessions (fun i ->
        let ngroups = 1 + Random.State.int rng 3 in
        List.concat
          (List.init ngroups (fun _ ->
               let n = 1 + Random.State.int rng 3 in
               let dmls =
                 List.init n (fun _ -> S_dml (i, gen_dml rng (pick_table ())))
               in
               let fin =
                 if Random.State.int rng 4 = 0 then S_rollback i else S_commit i
               in
               (S_begin i :: dmls) @ [ fin ])))
  in
  (* deterministic interleave; flush points close commit windows mid-run so
     batches of >1 commit form (and some commits die unflushed) *)
  let items = ref [] in
  let live () =
    Array.to_list
      (Array.mapi (fun i s -> (i, s)) streams)
    |> List.filter (fun (_, s) -> s <> [])
  in
  let rec weave () =
    match live () with
    | [] -> ()
    | choices ->
      let i, s = List.nth choices (Random.State.int rng (List.length choices)) in
      items := List.hd s :: !items;
      streams.(i) <- List.tl s;
      if Random.State.int rng 5 = 0 then items := S_flush :: !items;
      weave ()
  in
  weave ();
  { ms_scenario = scenario; nsessions; items = List.rev (S_flush :: !items) }

let ms_item_sql = function
  | S_begin i -> Printf.sprintf "-- s%d\nBEGIN;\n" i
  | S_dml (i, d) ->
    let b = Buffer.create 64 in
    dml_sql b d;
    Printf.sprintf "-- s%d\n%s" i (Buffer.contents b)
  | S_commit i -> Printf.sprintf "-- s%d\nCOMMIT;\n" i
  | S_rollback i -> Printf.sprintf "-- s%d\nROLLBACK;\n" i
  | S_flush -> "-- group flush\n"

(* DDL + data + the interleaved history, annotated per session — not
   machine-replayable as one script, but paste-ready for a bug report. *)
let ms_reproducer (w : ms_workload) =
  Fuzz_harness.ddl_script ~indexes:true w.ms_scenario
  ^ String.concat "" (List.map ms_item_sql w.items)

(* Execute the history. Cross-session 2PL conflicts surface as immediate
   errors on an unlatched engine; the loser's transaction is rolled back and
   the rest of its stream skipped — any deterministic outcome is fine, since
   the oracle derives from what the WAL actually saw. Appends every
   acknowledged transaction id to [acked] as its covering flush returns, so
   a crash run keeps the acks released before the crash. *)
let run_ms db (w : ms_workload) ~(acked : int list ref) =
  let eng = Database.engine db in
  Engine.set_group_hold eng true;
  let counters = Rss.Pager.base_counters (Engine.pager eng) in
  let sessions = Array.init w.nsessions (fun _ -> Session.create eng) in
  let in_txn = Array.make w.nsessions false in
  let exec i sql =
    try ignore (Session.exec_script sessions.(i) sql)
    with Session.Error _ ->
      if in_txn.(i) then begin
        (try ignore (Session.exec_script sessions.(i) "ROLLBACK;")
         with Session.Error _ -> ());
        in_txn.(i) <- false
      end
  in
  List.iter
    (function
      | S_begin i ->
        exec i "BEGIN;";
        in_txn.(i) <- true
      | S_dml (i, d) ->
        if in_txn.(i) then begin
          let b = Buffer.create 64 in
          dml_sql b d;
          exec i (Buffer.contents b)
        end
      | S_commit i ->
        if in_txn.(i) then begin
          exec i "COMMIT;";
          in_txn.(i) <- false
        end
      | S_rollback i ->
        if in_txn.(i) then begin
          exec i "ROLLBACK;";
          in_txn.(i) <- false
        end
      | S_flush -> acked := !acked @ Engine.flush_group eng counters)
    w.items;
  (* final drain: commits after the last generated flush point *)
  acked := !acked @ Engine.flush_group eng counters

let crash_run_ms (w : ms_workload) ~site ~at =
  let db = build_db ~data:true w.ms_scenario in
  F.arm ~site ~at;
  let acked = ref [] in
  let fired = (try run_ms db w ~acked; false with F.Crash _ -> true) in
  F.disarm ();
  let bytes = W.to_bytes (Database.wal db) in
  let torn = torn_span ~site db bytes in
  F.reset ();
  (fired, bytes, torn, !acked)

(* The group-commit ack rule, checked against one surviving image: every
   transaction whose commit was acknowledged before the crash must be in
   the image's committed set — a torn batch may lose only unacknowledged
   suffix commits. *)
let check_acked bytes acked ~site ~hit ~torn =
  let committed =
    List.filter_map
      (function W.Commit tx -> Some tx | _ -> None)
      (W.records (W.of_bytes bytes))
  in
  match List.find_opt (fun tx -> not (List.mem tx committed)) acked with
  | Some tx ->
    Some
      { t_site = site; t_hit = hit; t_torn = torn; t_table = "";
        t_detail =
          Printf.sprintf
            "acknowledged commit %d is missing from the surviving log" tx;
        t_expected = List.map string_of_int acked;
        t_actual = List.map string_of_int committed }
  | None -> None

(* Full torture over one interleaved history: counting pass, clean pass
   (live state vs log, recovery, and acked = committed exactly — with no
   crash every commit's flush returned), then a crash at every
   [crash_every]-th hit of every site with the batch torn sweep and the
   per-acknowledged-commit oracle. Also returns how many of the checked
   images came from wal.group_flush crashes. *)
let torture_ms ?(crash_every = 1) (w : ms_workload) :
    int * int * divergence option =
  let points = ref 0 in
  let flush_points = ref 0 in
  let harness_bug detail =
    { t_site = "harness"; t_hit = 0; t_torn = 0; t_table = "";
      t_detail = detail; t_expected = []; t_actual = [] }
  in
  try
    let db = build_db ~data:true w.ms_scenario in
    (* the data load commits its own transactions before the workload runs;
       they are durable and outside the ack accounting below *)
    let setup_committed =
      List.filter_map
        (function W.Commit tx -> Some tx | _ -> None)
        (W.records (Database.wal db))
    in
    F.count_only ();
    let acked = ref [] in
    run_ms db w ~acked;
    F.disarm ();
    let counts = F.counts () in
    F.reset ();
    let bytes = W.to_bytes (Database.wal db) in
    let oracle = oracle_multisets bytes in
    List.iteri
      (fun rel_id (t : Fuzz_gen.table) ->
        let expected = oracle rel_id in
        let actual = db_multiset db t.Fuzz_gen.tname in
        if expected <> actual then
          raise
            (Found
               { t_site = "clean"; t_hit = 0; t_torn = 0;
                 t_table = t.Fuzz_gen.tname;
                 t_detail = "live state differs from its own log";
                 t_expected = expected; t_actual = actual }))
      w.ms_scenario.Fuzz_gen.tables;
    (* clean completion acked exactly the workload's committed set *)
    let committed =
      List.filter_map
        (function W.Commit tx -> Some tx | _ -> None)
        (W.records (W.of_bytes bytes))
      |> List.filter (fun tx -> not (List.mem tx setup_committed))
    in
    if List.sort compare !acked <> List.sort compare committed then
      raise
        (Found
           (harness_bug
              (Printf.sprintf
                 "clean run acked [%s] but the log committed [%s]"
                 (String.concat ";" (List.map string_of_int !acked))
                 (String.concat ";" (List.map string_of_int committed)))));
    (match check_recovery w.ms_scenario bytes ~site:"clean" ~hit:0 ~torn:0 with
     | Some d -> raise (Found d)
     | None -> ());
    List.iter
      (fun (site, total) ->
        let k = ref 1 in
        while !k <= total do
          let fired, bytes, torn_max, acked = crash_run_ms w ~site ~at:!k in
          if not fired then
            raise
              (Found
                 (harness_bug
                    (Printf.sprintf
                       "failpoint %s did not fire at hit %d on re-run (history \
                        not deterministic?)"
                       site !k)));
          for j = 0 to torn_max do
            let surviving = String.sub bytes 0 (String.length bytes - j) in
            incr points;
            if site = "wal.group_flush" then incr flush_points;
            (match check_acked surviving acked ~site ~hit:!k ~torn:j with
             | Some d -> raise (Found d)
             | None -> ());
            match check_recovery w.ms_scenario surviving ~site ~hit:!k ~torn:j with
            | Some d -> raise (Found d)
            | None -> ()
          done;
          k := !k + crash_every
        done)
      counts;
    (!points, !flush_points, None)
  with Found d -> (!points, !flush_points, Some d)

(* --- multi-session shrinking ---------------------------------------------- *)

let ms_size (w : ms_workload) =
  let item_weight = function
    | S_dml (_, Ins (_, rows)) -> 10 + List.length rows
    | S_dml (_, (Del _ | Upd _)) -> 10
    | S_begin _ | S_commit _ | S_rollback _ -> 2
    | S_flush -> 1
  in
  List.fold_left
    (fun acc (t : Fuzz_gen.table) ->
      acc + 1000 + List.length t.Fuzz_gen.rows
      + (50 * List.length t.Fuzz_gen.indexes))
    0 w.ms_scenario.Fuzz_gen.tables
  + List.fold_left (fun acc it -> acc + item_weight it) 0 w.items

let ms_candidates (w : ms_workload) : ms_workload list =
  let cands = ref [] in
  let add items = cands := { w with items } :: !cands in
  let arr = Array.of_list w.items in
  let n = Array.length arr in
  (* drop a whole transaction: an S_begin, its session's items up to and
     including the matching commit/rollback *)
  for p = 0 to n - 1 do
    match arr.(p) with
    | S_begin i ->
      let dropped = ref [] in
      let finished = ref false in
      Array.iteri
        (fun q it ->
          let mine =
            match it with
            | S_begin j | S_dml (j, _) | S_commit j | S_rollback j -> j = i
            | S_flush -> false
          in
          if q >= p && not !finished && mine then begin
            dropped := q :: !dropped;
            match it with
            | S_commit _ | S_rollback _ when q > p -> finished := true
            | _ -> ()
          end)
        arr;
      add
        (List.filteri (fun q _ -> not (List.mem q !dropped)) (Array.to_list arr))
    | _ -> ()
  done;
  (* drop each flush point (the trailing drain still flushes everything) *)
  Array.iteri
    (fun p it ->
      if it = S_flush then
        add (List.filteri (fun q _ -> q <> p) (Array.to_list arr)))
    arr;
  (* drop each DML statement *)
  Array.iteri
    (fun p it ->
      match it with
      | S_dml _ -> add (List.filteri (fun q _ -> q <> p) (Array.to_list arr))
      | _ -> ())
    arr;
  (* scenario: drop untouched tables, indexes *)
  let touched =
    List.filter_map
      (function
        | S_dml (_, (Ins (t, _) | Del (t, _) | Upd (t, _))) -> Some t
        | _ -> None)
      w.items
  in
  let tables = w.ms_scenario.Fuzz_gen.tables in
  if List.length tables > 1 then
    List.iter
      (fun (t : Fuzz_gen.table) ->
        if not (List.mem t.Fuzz_gen.tname touched) then
          cands :=
            { w with
              ms_scenario =
                { Fuzz_gen.tables =
                    List.filter
                      (fun (u : Fuzz_gen.table) ->
                        u.Fuzz_gen.tname <> t.Fuzz_gen.tname)
                      tables } }
            :: !cands)
      tables;
  List.iter
    (fun (t : Fuzz_gen.table) ->
      if t.Fuzz_gen.indexes <> [] then
        cands :=
          { w with
            ms_scenario =
              { Fuzz_gen.tables =
                  List.map
                    (fun (u : Fuzz_gen.table) ->
                      if u.Fuzz_gen.tname = t.Fuzz_gen.tname then
                        { u with Fuzz_gen.indexes = [] }
                      else u)
                    tables } }
          :: !cands)
    tables;
  List.rev !cands

let shrink_ms ?(crash_every = 1) ~max_steps (w : ms_workload) :
    ms_workload * int =
  Fuzz_shrink.shrink_generic ~size:ms_size ~candidates:ms_candidates
    ~still_failing:(fun c ->
      match torture_ms ~crash_every c with _, _, Some _ -> true | _ -> false)
    ~max_steps w
