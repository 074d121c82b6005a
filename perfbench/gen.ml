(* Deterministic workload generation: the seed script a server loads and the
   per-connection statement streams, both a pure function of the workload,
   the seed and the size. The program under test only ever receives the
   generated SQL. *)

type workload = Point_text | Mixed_rw | Analytic

let workloads = [ Point_text; Mixed_rw; Analytic ]

let name = function
  | Point_text -> "point_text"
  | Mixed_rw -> "mixed_rw"
  | Analytic -> "analytic"

let of_name s = List.find_opt (fun w -> name w = s) workloads

type size = {
  point_rows : int;  (* KV rows for point_text: several times the pool *)
  mixed_rows : int;  (* KV rows for mixed_rw: fits in the pool *)
  orders : int;      (* analytic ORDERS rows; LINEITEM is ~3x *)
  emps : int;        (* analytic EMP rows *)
  queries : int;     (* analytic query pool, cycled by both connections *)
}

let full =
  { point_rows = 50_000; mixed_rows = 2_000; orders = 20_000; emps = 20_000;
    queries = 240 }

(* For the benchmark's own tests: same shapes, seconds-scale load. *)
let small =
  { point_rows = 600; mixed_rows = 200; orders = 400; emps = 400; queries = 32 }

type op =
  | Point of int       (* Simple-protocol point SELECT on key k *)
  | Join of int        (* Simple-protocol KV-DIM join on key k *)
  | Prep_point of int  (* prepared point SELECT *)
  | Prep_join of int   (* prepared KV-DIM join *)
  | Update of int * int    (* auto-commit UPDATE of key k, write number n *)
  | Reinsert of int * int  (* BEGIN; DELETE k; INSERT k; COMMIT *)
  | Query of int       (* analytic pool entry *)

type cls = Read | Write | Analytic_query

let cls = function
  | Point _ | Join _ | Prep_point _ | Prep_join _ -> Read
  | Update _ | Reinsert _ -> Write
  | Query _ -> Analytic_query

let cls_index = function Read -> 0 | Write -> 1 | Analytic_query -> 2

type query = {
  sql : string;
  order_cols : int list;
      (* output positions the ORDER BY sorts on; rows tied on them may come
         back in any order *)
  probe : string * int;  (* (index, key) a literal of the query looks up *)
}

type t = {
  workload : workload;
  seed : int;
  size : size;
  script : string;  (* DDL, data, UPDATE STATISTICS *)
  tables : (string * int) list;  (* relation, rows loaded *)
  queries : query array;  (* analytic pool; [||] for the other workloads *)
}

let rng seed tag = Random.State.make [| seed; tag; 0x5e119e8 |]

(* --- KV / DIM (point_text, mixed_rw) -------------------------------------- *)

let dims = 50

(* Every stored V starts with its key's tag; writers keep the tag. *)
let tag k = Printf.sprintf "k%d:" k
let value ~seed k = Printf.sprintf "k%d:%06x" k (Hashtbl.hash (seed, k) land 0xffffff)
let dname k = Printf.sprintf "d%d" (k mod dims)

let point_sql k = Printf.sprintf "SELECT V FROM KV WHERE K = %d" k
let join_sql k = Printf.sprintf "SELECT V, DNAME FROM KV, DIM WHERE D = DK AND K = %d" k
let prep_point_sql = "SELECT V FROM KV WHERE K = ?"
let prep_join_sql = "SELECT V, DNAME FROM KV, DIM WHERE D = DK AND K = ?"
let prepared = [ ("pt", prep_point_sql); ("jn", prep_join_sql) ]
let update_sql k n = Printf.sprintf "UPDATE KV SET V = 'k%d:u%d' WHERE K = %d" k n k

let reinsert_sqls k n =
  [ "BEGIN";
    Printf.sprintf "DELETE FROM KV WHERE K = %d" k;
    Printf.sprintf "INSERT INTO KV VALUES (%d, %d, 'k%d:r%d')" k (k mod dims) k n;
    "COMMIT" ]

(* INSERT ... VALUES in batches of [batch] rows. *)
let add_rows b table n row =
  let batch = 200 in
  let lo = ref 0 in
  while !lo < n do
    let hi = min n (!lo + batch) in
    Printf.bprintf b "INSERT INTO %s VALUES " table;
    for i = !lo to hi - 1 do
      if i > !lo then Buffer.add_string b ", ";
      Printf.bprintf b "(%s)" (row i)
    done;
    Buffer.add_string b ";\n";
    lo := hi
  done

let kv_script ~seed rows =
  let b = Buffer.create (rows * 32) in
  Buffer.add_string b "CREATE TABLE KV (K INT, D INT, V STRING);\n";
  Buffer.add_string b "CREATE TABLE DIM (DK INT, DNAME STRING);\n";
  add_rows b "KV" rows (fun k ->
      Printf.sprintf "%d, %d, '%s'" k (k mod dims) (value ~seed k));
  add_rows b "DIM" dims (fun d -> Printf.sprintf "%d, '%s'" d (dname d));
  Buffer.add_string b "CREATE CLUSTERED INDEX KV_K ON KV (K);\n";
  Buffer.add_string b "CREATE CLUSTERED INDEX DIM_DK ON DIM (DK);\n";
  Buffer.add_string b "UPDATE STATISTICS;\n";
  Buffer.contents b

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* Zipf(0.99) ranks mapped through a seeded affine permutation, so the hot
   keys are the same for every connection of a run but scattered over the
   clustered table's pages rather than packed into its first few. *)
let key_sampler ~seed ~conn n =
  let r = rng seed 101 in
  let rec coprime a = if gcd a n = 1 then a else coprime (a + 1) in
  let a = coprime (n / 3 + Random.State.int r (max 1 (n / 3))) in
  let b = Random.State.int r n in
  let z = Workload.zipf_sampler (rng seed (200 + conn)) ~n ~s:0.99 in
  fun () -> ((z () * a) + b) mod n

(* --- analytic: sales schema plus EMP/DEPT/JOB ----------------------------- *)

let regions = [| "NORTH"; "SOUTH"; "EAST"; "WEST"; "CENTRAL" |]
let segments = [| "RETAIL"; "WHOLESALE"; "ONLINE" |]
let categories = [| "TOOLS"; "TOYS"; "BOOKS"; "FOOD"; "GARDEN"; "SPORTS" |]
let locations = [| "DENVER"; "SAN JOSE"; "NEW YORK"; "BOSTON"; "AUSTIN" |]
let n_jobs = 20
let job_title j = if j < 4 then [| "CLERK"; "TYPIST"; "SALES"; "MECHANIC" |].(j)
  else Printf.sprintf "JOB%02d" j

type shape = {
  customers : int;
  products : int;
  depts : int;
}

let shape (size : size) =
  { customers = max 20 (size.orders / 10); products = max 20 (size.orders / 40);
    depts = max 10 (size.emps / 100) }

let analytic_script ~seed (size : size) =
  let sh = shape size in
  let r = rng seed 7 in
  let pick a = a.(Random.State.int r (Array.length a)) in
  let b = Buffer.create (size.orders * 100) in
  let lines = ref 0 in
  Buffer.add_string b
    "CREATE TABLE CUSTOMER (CUSTKEY INT, REGION STRING, SEGMENT STRING);\n\
     CREATE TABLE PRODUCT (PRODKEY INT, CATEGORY STRING, PRICE INT);\n\
     CREATE TABLE ORDERS (ORDKEY INT, CUSTKEY INT, ODATE INT);\n\
     CREATE TABLE LINEITEM (ORDKEY INT, PRODKEY INT, QTY INT, AMOUNT INT);\n\
     CREATE TABLE DEPT (DNO INT, DNAME STRING, LOC STRING);\n\
     CREATE TABLE JOB (JOB INT, TITLE STRING);\n\
     CREATE TABLE EMP (NAME STRING, DNO INT, JOB INT, SAL INT);\n";
  add_rows b "CUSTOMER" sh.customers (fun k ->
      Printf.sprintf "%d, '%s', '%s'" k (pick regions) (pick segments));
  add_rows b "PRODUCT" sh.products (fun k ->
      Printf.sprintf "%d, '%s', %d" k (pick categories) (100 + Random.State.int r 9900));
  add_rows b "ORDERS" size.orders (fun k ->
      Printf.sprintf "%d, %d, %d" k (Random.State.int r sh.customers)
        (Random.State.int r 365));
  (* 1..5 lines per order, product popularity Zipf(0.8) *)
  let prod = Workload.zipf_sampler (rng seed 8) ~n:sh.products ~s:0.8 in
  let items =
    List.concat
      (List.init size.orders (fun o ->
           List.init (1 + Random.State.int r 5) (fun _ ->
               let qty = 1 + Random.State.int r 9 in
               Printf.sprintf "%d, %d, %d, %d" o (prod ()) qty
                 (qty * (10 + Random.State.int r 490)))))
    |> Array.of_list
  in
  lines := Array.length items;
  add_rows b "LINEITEM" !lines (fun i -> items.(i));
  add_rows b "DEPT" sh.depts (fun d ->
      Printf.sprintf "%d, 'DEPT%03d', '%s'" d d (pick locations));
  add_rows b "JOB" n_jobs (fun j -> Printf.sprintf "%d, '%s'" j (job_title j));
  (* EMP arrives in DNO order: EMP_DNO is clustered *)
  let emps =
    Array.init size.emps (fun i -> (Random.State.int r sh.depts, i))
  in
  Array.sort compare emps;
  add_rows b "EMP" size.emps (fun i ->
      let dno, id = emps.(i) in
      Printf.sprintf "'E%05d', %d, %d, %d" id dno (Random.State.int r n_jobs)
        (8000 + Random.State.int r 22000));
  Buffer.add_string b
    "CREATE CLUSTERED INDEX CUST_PK ON CUSTOMER (CUSTKEY);\n\
     CREATE CLUSTERED INDEX PROD_PK ON PRODUCT (PRODKEY);\n\
     CREATE CLUSTERED INDEX ORD_PK ON ORDERS (ORDKEY);\n\
     CREATE INDEX ORD_CUST ON ORDERS (CUSTKEY);\n\
     CREATE CLUSTERED INDEX LINE_ORD ON LINEITEM (ORDKEY);\n\
     CREATE INDEX LINE_PROD ON LINEITEM (PRODKEY);\n\
     CREATE CLUSTERED INDEX DEPT_DNO ON DEPT (DNO);\n\
     CREATE CLUSTERED INDEX JOB_JOB ON JOB (JOB);\n\
     CREATE CLUSTERED INDEX EMP_DNO ON EMP (DNO);\n\
     CREATE INDEX EMP_JOB ON EMP (JOB);\n\
     UPDATE STATISTICS;\n";
  ( Buffer.contents b,
    [ ("CUSTOMER", sh.customers); ("PRODUCT", sh.products);
      ("ORDERS", size.orders); ("LINEITEM", !lines); ("DEPT", sh.depts);
      ("JOB", n_jobs); ("EMP", size.emps) ] )

(* Eight query shapes, each a template whose literals (and ORDER BY
   direction, aggregate, filter constants) come from the seed. Range widths
   are fixed so that every seed draws the same cost distribution. *)
let templates = 8

let analytic_query (size : size) r t =
  let sh = shape size in
  let int n = Random.State.int r (max 1 n) in
  let pick a = a.(int (Array.length a)) in
  let dir () = if Random.State.bool r then "ASC" else "DESC" in
  let q ?(order_cols = []) probe sql = { sql; order_cols; probe } in
  match t with
  | 0 ->
    let lo = int (size.orders - 60) in
    q ~order_cols:[ 0 ] ("ORD_PK", lo)
      (Printf.sprintf
         "SELECT O.ORDKEY, O.ODATE, L.PRODKEY, L.QTY FROM ORDERS O, LINEITEM L \
          WHERE O.ORDKEY = L.ORDKEY AND O.ORDKEY BETWEEN %d AND %d \
          ORDER BY O.ORDKEY %s" lo (lo + 59) (dir ()))
  | 1 ->
    let lo = int (sh.customers - 10) in
    q ~order_cols:[ 0 ] ("ORD_CUST", lo)
      (Printf.sprintf
         "SELECT C.REGION, COUNT(L.QTY), %s(L.AMOUNT) FROM CUSTOMER C, ORDERS O, \
          LINEITEM L WHERE C.CUSTKEY = O.CUSTKEY AND O.ORDKEY = L.ORDKEY AND \
          O.CUSTKEY BETWEEN %d AND %d AND O.ODATE >= %d GROUP BY C.REGION \
          ORDER BY C.REGION %s"
         (pick [| "SUM"; "MAX"; "MIN" |]) lo (lo + 9) (int 300) (dir ()))
  | 2 ->
    let lo = int (sh.customers - 15) in
    q ~order_cols:[ 0 ] ("CUST_PK", lo)
      (Printf.sprintf
         "SELECT P.CATEGORY, COUNT(L.QTY), SUM(L.QTY) FROM CUSTOMER C, ORDERS O, \
          LINEITEM L, PRODUCT P WHERE C.CUSTKEY = O.CUSTKEY AND O.ORDKEY = \
          L.ORDKEY AND L.PRODKEY = P.PRODKEY AND C.CUSTKEY BETWEEN %d AND %d \
          AND C.SEGMENT = '%s' GROUP BY P.CATEGORY ORDER BY P.CATEGORY %s"
         lo (lo + 14) (pick segments) (dir ()))
  | 3 ->
    let lo = int (sh.depts - 8) in
    q ~order_cols:[ 1 ] ("DEPT_DNO", lo)
      (Printf.sprintf
         "SELECT E.NAME, E.SAL, D.DNAME FROM EMP E, DEPT D, JOB J WHERE \
          E.DNO = D.DNO AND E.JOB = J.JOB AND J.TITLE = '%s' AND D.DNO \
          BETWEEN %d AND %d ORDER BY E.SAL %s"
         (job_title (int 6)) lo (lo + 7) (dir ()))
  | 4 ->
    let lo = int (sh.depts - 3) in
    q ~order_cols:[ 0 ] ("EMP_DNO", lo)
      (Printf.sprintf
         "SELECT E.NAME, E.SAL FROM EMP E WHERE E.DNO BETWEEN %d AND %d AND \
          E.SAL > (SELECT MIN(X.SAL) FROM EMP X WHERE X.DNO = E.DNO AND \
          X.JOB = %d) ORDER BY E.NAME %s"
         lo (lo + 2) (int n_jobs) (dir ()))
  | 5 ->
    let lo = int (size.orders - 400) in
    q ~order_cols:[ 0 ] ("ORD_PK", lo)
      (Printf.sprintf
         "SELECT O.ORDKEY, O.CUSTKEY FROM ORDERS O WHERE O.ORDKEY BETWEEN %d \
          AND %d AND O.CUSTKEY IN (SELECT C.CUSTKEY FROM CUSTOMER C WHERE \
          C.REGION = '%s' AND C.SEGMENT = '%s') ORDER BY O.ORDKEY %s"
         lo (lo + 399) (pick regions) (pick segments) (dir ()))
  | 6 ->
    (* IN-list literals stay in the fingerprint: a new list is a plan-cache
       miss. Products from the Zipf tail keep the index probes bounded. *)
    let tail = sh.products / 5 in
    let p () = tail + int (sh.products - tail) in
    let p1 = p () in
    q ~order_cols:[ 0 ] ("LINE_PROD", p1)
      (Printf.sprintf
         "SELECT L.PRODKEY, COUNT(L.QTY), SUM(L.AMOUNT) FROM LINEITEM L WHERE \
          L.PRODKEY IN (%d, %d, %d) GROUP BY L.PRODKEY ORDER BY L.PRODKEY %s"
         p1 (p ()) (p ()) (dir ()))
  | _ ->
    let lo = int (sh.depts - 10) in
    q ~order_cols:[ 0 ] ("EMP_DNO", lo)
      (Printf.sprintf
         "SELECT E.DNO, COUNT(E.NAME), MAX(E.SAL) FROM EMP E WHERE E.DNO \
          BETWEEN %d AND %d AND E.SAL + %d > (SELECT MAX(X.SAL) FROM EMP X \
          WHERE X.DNO = %d) GROUP BY E.DNO ORDER BY E.DNO %s"
         lo (lo + 9) (int 8000) (int sh.depts) (dir ()))

let analytic_queries ~seed (size : size) =
  let r = rng seed 9 in
  let pool =
    Array.init size.queries (fun i -> analytic_query size r (i mod templates))
  in
  (* seeded shuffle: shapes interleave, each repeating with new literals *)
  for i = Array.length pool - 1 downto 1 do
    let j = Random.State.int r (i + 1) in
    let x = pool.(i) in
    pool.(i) <- pool.(j);
    pool.(j) <- x
  done;
  pool

let make ?(size = full) workload ~seed =
  match workload with
  | Point_text | Mixed_rw ->
    let rows = if workload = Point_text then size.point_rows else size.mixed_rows in
    { workload; seed; size; script = kv_script ~seed rows;
      tables = [ ("KV", rows); ("DIM", dims) ]; queries = [||] }
  | Analytic ->
    let script, tables = analytic_script ~seed size in
    { workload; seed; size; script; tables;
      queries = analytic_queries ~seed size }

let kv_rows t = List.assoc "KV" t.tables

(* --- statement streams ---------------------------------------------------- *)

let connections = 2

(* The op stream of connection [conn] (0 or 1): the same seed and connection
   always yield the same sequence. On mixed_rw connection 0 is the writer
   and connection 1 the reader. *)
let stream t ~conn =
  let r = rng t.seed (300 + conn) in
  match t.workload with
  | Point_text ->
    let key = key_sampler ~seed:t.seed ~conn (kv_rows t) in
    fun () ->
      let k = key () in
      if Random.State.int r 100 < 80 then Point k else Join k
  | Mixed_rw when conn = 0 ->
    let key = key_sampler ~seed:t.seed ~conn (kv_rows t) in
    let n = ref 0 in
    fun () ->
      incr n;
      let k = key () in
      if Random.State.int r 100 < 60 then Update (k, !n) else Reinsert (k, !n)
  | Mixed_rw ->
    let key = key_sampler ~seed:t.seed ~conn (kv_rows t) in
    fun () ->
      let k = key () in
      if Random.State.int r 100 < 80 then Prep_point k else Prep_join k
  | Analytic ->
    let n = Array.length t.queries in
    let i = ref (conn * n / connections) in
    fun () ->
      let q = Query !i in
      i := (!i + 1) mod n;
      q

(* Requests each connection runs before the timed window (plan cache,
   buffer pool, prepared statements); part of set-up. On analytic the two
   connections together run the whole query pool once. *)
let warmup t =
  match t.workload with
  | Point_text -> 400
  | Mixed_rw -> 300
  | Analytic -> Array.length t.queries / connections
