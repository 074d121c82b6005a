(* Embedded, single-domain replay of a workload's seed script and statement
   streams. Each statement is driven through the layers' public calls in
   the order the server's session path makes them — Parser, Normalize,
   Plan_cache, Semant, Optimizer, Executor for a Simple-protocol SELECT;
   Plan_cache dependency validation and Executor for a prepared one;
   Session.exec for DML — with a span around each call, so per-layer self
   time and I/O counts can be attributed. Two liberties against the server
   path: no engine latch is taken (one domain, unlatched engine), and
   SELECTs skip the session's cardinality-feedback hook, which is private. *)

type tally = { mutable attempted : int; mutable failed : int }

let failed_frac t =
  if t.attempted = 0 then 0. else float_of_int t.failed /. float_of_int t.attempted

type t = {
  ds : Gen.t;
  db : Database.t;
  sess : Session.t;
  eng : Engine.t;
  cat : Catalog.t;
  prepared : (string, Optimizer.result ref * Plan_cache.deps ref) Hashtbl.t;
  tally : tally;
  (* SELECT-path accounting *)
  mutable probes : int;
  mutable hits : int;
  mutable queries : int;
  mutable out_rows : int;
  io : Rss.Counters.t;  (* summed executor counter diffs *)
  mutable qerrors : float list;
  (* write-path accounting *)
  mutable writes : int;   (* DML statements *)
  mutable commits : int;  (* auto-commit DML + COMMIT *)
}

(* The replay's one session never changes its settings, so a constant
   stands in for the settings signature the session prefixes onto keys. *)
let key_prefix = "replay#"

let w = Ctx.default_w

let open_db ?(script : string option) (ds : Gen.t) =
  let db = Database.create ~buffer_pages:64 () in
  ignore (Database.exec_script db (Option.value script ~default:ds.Gen.script));
  db

let index t name =
  match Catalog.find_index t.cat name with
  | Some i -> i
  | None -> failwith ("perfbench: no index " ^ name)

let prepare t (name, sql) =
  let q =
    Span.with_ "parser.parse" (fun () ->
        match Parser.parse_statement sql with
        | Ast.Select q -> q
        | _ -> failwith "perfbench: prepared statement is not a SELECT")
  in
  let block = Span.with_ "semant.resolve" (fun () -> Semant.resolve t.cat q) in
  let r =
    Span.with_ "optimizer.optimize" (fun () ->
        Optimizer.optimize (Session.ctx t.sess) block)
  in
  Hashtbl.replace t.prepared name (ref r, ref (Plan_cache.capture_deps r))

(* [script] overrides the seed script the engine loads (tests load another
   seed's data to inject wrong answers). *)
let create ?script ds =
  let db = open_db ?script ds in
  let sess = Database.session db in
  let t =
    { ds; db; sess; eng = Database.engine db; cat = Database.catalog db;
      prepared = Hashtbl.create 4; tally = { attempted = 0; failed = 0 };
      probes = 0; hits = 0; queries = 0; out_rows = 0;
      io = Rss.Counters.create (); qerrors = []; writes = 0; commits = 0 }
  in
  if ds.Gen.workload = Gen.Mixed_rw then List.iter (prepare t) Gen.prepared;
  t

let q_error ~predicted ~measured =
  let p = Float.max predicted 0. +. 1. and m = Float.max measured 0. +. 1. in
  Float.max (p /. m) (m /. p)

let execute t r ~params =
  let m = Engine.mvcc t.eng in
  let snap = Rss.Mvcc.view m (Rss.Mvcc.statement_snapshot m) in
  let c = Rss.Pager.counters (Engine.pager t.eng) in
  let before = Rss.Counters.snapshot c in
  let out =
    Span.with_ "executor.run" (fun () -> Executor.run ~snap ~params t.cat r)
  in
  let d = Rss.Counters.diff ~after:(Rss.Counters.snapshot c) ~before in
  Rss.Counters.add d ~into:t.io;
  t.queries <- t.queries + 1;
  t.out_rows <- t.out_rows + List.length out.Executor.rows;
  let predicted = Optimizer.total_cost (Session.ctx ~params t.sess) r in
  t.qerrors <- q_error ~predicted ~measured:(Rss.Counters.cost ~w d) :: t.qerrors;
  out.Executor.rows

(* The server's Simple-protocol SELECT path, one public call per layer. *)
let simple_select t sql =
  let q =
    Span.with_ "parser.parse" (fun () ->
        match Parser.parse_statement sql with
        | Ast.Select q -> q
        | _ -> failwith "perfbench: not a SELECT")
  in
  match Span.with_ "normalize.fingerprint" (fun () -> Normalize.fingerprint q) with
  | None -> failwith "perfbench: statement has no fingerprint"
  | Some (key, canon, values) ->
    let params = Array.of_list values in
    let cache = Engine.plan_cache t.eng in
    let key = key_prefix ^ key in
    t.probes <- t.probes + 1;
    let r =
      match
        Span.with_ "plan_cache.probe" (fun () -> Plan_cache.find cache t.cat key)
      with
      | Plan_cache.Hit r ->
        t.hits <- t.hits + 1;
        r
      | Plan_cache.Miss | Plan_cache.Invalidated ->
        let block =
          Span.with_ "semant.resolve" (fun () ->
              ignore (Semant.resolve t.cat q);
              Semant.resolve t.cat canon)
        in
        let r =
          Span.with_ "optimizer.optimize" (fun () ->
              Optimizer.optimize (Session.ctx ~params t.sess) block)
        in
        Plan_cache.store cache key r;
        r
    in
    execute t r ~params

(* The server's Bind/Execute path: revalidate the prepared plan's
   dependencies, re-optimize if one moved, execute with the bindings. *)
let prepared_select t name k =
  let r, deps = Hashtbl.find t.prepared name in
  t.probes <- t.probes + 1;
  if Span.with_ "plan_cache.probe" (fun () -> Plan_cache.deps_valid t.cat !deps)
  then t.hits <- t.hits + 1
  else begin
    let sql = List.assoc name Gen.prepared in
    Hashtbl.remove t.prepared name;
    prepare t (name, sql);
    let r', deps' = Hashtbl.find t.prepared name in
    r := !r';
    deps := !deps'
  end;
  execute t !r ~params:[| Rel.Value.Int k |]

let session t kind sql =
  match Span.with_ ("session." ^ kind) (fun () -> Session.exec t.sess sql) with
  | Session.Done tag -> tag
  | Session.Rows _ | Session.Text _ -> ""

(* DML through Session.exec, with a sibling span timing the parse that
   exec performs internally, so "session minus parse" can be derived. *)
let dml t kind sql =
  ignore (Span.with_ "parser.parse" (fun () -> Parser.parse_statement sql));
  session t kind sql

let reply t (op : Gen.op) =
  match op with
  | Gen.Point k -> Check.Rows (simple_select t (Gen.point_sql k))
  | Gen.Join k -> Check.Rows (simple_select t (Gen.join_sql k))
  | Gen.Prep_point k -> Check.Rows (prepared_select t "pt" k)
  | Gen.Prep_join k -> Check.Rows (prepared_select t "jn" k)
  | Gen.Query i -> Check.Rows (simple_select t t.ds.Gen.queries.(i).Gen.sql)
  | Gen.Update (k, n) ->
    t.writes <- t.writes + 1;
    t.commits <- t.commits + 1;
    Check.Tags [ dml t "update" (Gen.update_sql k n) ]
  | Gen.Reinsert (k, n) ->
    (match Gen.reinsert_sqls k n with
     | [ b; d; i; c ] ->
       t.writes <- t.writes + 2;
       t.commits <- t.commits + 1;
       let tb = session t "begin" b in
       let td = dml t "delete" d in
       let ti = dml t "insert" i in
       Check.Tags [ tb; td; ti; session t "commit" c ]
     | _ -> assert false)

let op_name (op : Gen.op) =
  match op with
  | Gen.Point _ -> "request.point"
  | Gen.Join _ -> "request.join"
  | Gen.Prep_point _ -> "request.prep_point"
  | Gen.Prep_join _ -> "request.prep_join"
  | Gen.Update _ -> "request.update"
  | Gen.Reinsert _ -> "request.reinsert"
  | Gen.Query _ -> "request.query"

(* Run one op as request [id], check its answer against [reference]
   (analytic results) and count it. *)
let run t ~reference ~id op =
  t.tally.attempted <- t.tally.attempted + 1;
  let ok =
    match Span.with_request id (op_name op) (fun () -> reply t op) with
    | r -> Check.op t.ds ~reference op r
    | exception (Session.Error _ | Database.Error _ | Failure _) ->
      (* a failed statement must not leave its transaction open *)
      if Session.in_transaction t.sess then ignore (Session.rollback t.sess);
      false
  in
  if not ok then t.tally.failed <- t.tally.failed + 1;
  ok

(* The B-tree key a read's literal looks up, if any: (index, key). *)
let probe_key t (op : Gen.op) =
  match op with
  | Gen.Point k | Gen.Join k | Gen.Prep_point k | Gen.Prep_join k -> Some ("KV_K", k)
  | Gen.Query i -> Some t.ds.Gen.queries.(i).Gen.probe
  | Gen.Update _ | Gen.Reinsert _ -> None

let btree_height t =
  match t.ds.Gen.workload with
  | Gen.Point_text | Gen.Mixed_rw -> Rss.Btree.height (index t "KV_K").Catalog.btree
  | Gen.Analytic ->
    Array.fold_left
      (fun h q -> max h (Rss.Btree.height (index t (fst q.Gen.probe)).Catalog.btree))
      0 t.ds.Gen.queries

(* Physical versions per visible row, over every relation, at this moment. *)
let versions_per_row t =
  let m = Engine.mvcc t.eng in
  let v = Rss.Mvcc.view m (Rss.Mvcc.statement_snapshot m) in
  let versions, visible =
    List.fold_left
      (fun (n, live) rel ->
        List.fold_left
          (fun (n, live) (_, _, xmin, xmax) ->
            (n + 1, if Rss.Mvcc.view_visible v ~xmin ~xmax then live + 1 else live))
          (n, live) (Catalog.scan_versions rel))
      (0, 0) (Catalog.relations t.cat)
  in
  float_of_int versions /. float_of_int (max 1 visible)

(* Reference answers for the analytic pool: a separate embedded engine with
   the plan cache and histograms off, so the answers come from a different
   plan path than the one under test. *)
let reference (ds : Gen.t) =
  let db = open_db ds in
  Database.set_plan_cache db false;
  Database.set_histograms db false;
  (db, Array.map (fun q -> (Database.query db q.Gen.sql).Executor.rows) ds.Gen.queries)

type pass = {
  r : t;
  wall_ns : int;  (* the ops only; set-up and B-tree probes excluded *)
  lat_us : float array array;  (* per-op latency by class: Read, Write, Analytic_query *)
  spans : Span.t array;
  wal_bytes : int;    (* appended during the pass *)
  wal_flushes : int;
  wal_records : int;  (* resident at the end *)
  versions : float;   (* versions per visible row at the end *)
}

(* Replay the two streams on a fresh engine, with spans on or off: step i
   runs the next op of connection [order.(i)] (0 or 1), so the replay
   interleaves the connections as [order] says. With spans on, each read's
   B-tree descent is then timed on its own with Btree.lookup, after the
   counted ops, so the probes neither warm the pool for the statements nor
   enter their counters or the pass's wall time. *)
let pass ?script ~traced ~reference ~order (ds : Gen.t) =
  Span.reset ();
  Span.enabled := traced;
  let t = create ?script ds in
  let streams = Array.init Gen.connections (fun conn -> Gen.stream ds ~conn) in
  let lat = Array.make 3 [] in
  let probes = ref [] in
  let wal = Engine.wal t.eng in
  let bytes0 = Rss.Wal.byte_size wal and flushes0 = Rss.Wal.flushes wal in
  Gc.full_major ();
  let start = Span.now () in
  Array.iteri
    (fun id conn ->
      let op = streams.(conn) () in
      let t0 = Span.now () in
      ignore (run t ~reference ~id op);
      let dt = Span.now () - t0 in
      let c = Gen.cls_index (Gen.cls op) in
      lat.(c) <- (float_of_int dt /. 1e3) :: lat.(c);
      Option.iter (fun p -> probes := (id, p) :: !probes) (probe_key t op))
    order;
  let wall_ns = Span.now () - start in
  if traced then
    List.iter
      (fun (id, (name, k)) ->
        let bt = (index t name).Catalog.btree in
        Span.with_request id "btree.lookup" (fun () ->
            ignore (Rss.Btree.lookup bt [| Rel.Value.Int k |])))
      (List.rev !probes);
  Span.enabled := false;
  { r = t; wall_ns;
    lat_us = Array.map Array.of_list lat;
    spans = Span.all ();
    wal_bytes = Rss.Wal.byte_size wal - bytes0;
    wal_flushes = Rss.Wal.flushes wal - flushes0;
    wal_records = List.length (Rss.Wal.records wal);
    versions = versions_per_row t }
