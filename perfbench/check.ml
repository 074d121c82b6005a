(* Answer checks. Each returns [true] when the reply is right; a wrong
   answer counts as a failed operation exactly like an error reply. *)

let value_ok ~exact ~key v =
  match exact with
  | Some e -> String.equal v e
  | None -> String.starts_with ~prefix:(Gen.tag key) v

(* A point read or KV-DIM join on [key]: exactly one row whose V is
   [exact] (point_text: the value the generator stored) or, when [exact] is
   [None] (mixed_rw: writers rewrite V), carries the key's tag. *)
let read ?exact ~key ~join (rows : Rel.Tuple.t list) =
  match rows with
  | [ [| Rel.Value.Str v |] ] when not join -> value_ok ~exact ~key v
  | [ [| Rel.Value.Str v; Rel.Value.Str d |] ] when join ->
    value_ok ~exact ~key v && String.equal d (Gen.dname key)
  | _ -> false

(* The command tag of a single-row DML statement. *)
let one_row verb tag = String.equal tag ("1 row " ^ verb)

let compare_rows a b =
  List.compare Rel.Value.compare (Array.to_list a) (Array.to_list b)

let sorted rows = List.sort compare_rows rows

(* [got] equals [expected] as a multiset; when the query has ORDER BY, the
   sequence of sort-key projections must match too (ties may permute). *)
let result ~order_cols ~expected got =
  List.equal Rel.Tuple.equal (sorted expected) (sorted got)
  && (order_cols = []
      || List.equal Rel.Tuple.equal
           (List.map (fun t -> Rel.Tuple.project t order_cols) expected)
           (List.map (fun t -> Rel.Tuple.project t order_cols) got))

type reply = Rows of Rel.Tuple.t list | Tags of string list

(* point_text is read-only, so every read must return exactly the value
   the generator stored; on mixed_rw only the key's tag is stable. *)
let exact (ds : Gen.t) k =
  if ds.Gen.workload = Gen.Point_text then Some (Gen.value ~seed:ds.Gen.seed k)
  else None

(* [reference] holds the analytic pool's expected results ([||] otherwise). *)
let op (ds : Gen.t) ~reference (op : Gen.op) reply =
  match op, reply with
  | (Gen.Point k | Gen.Prep_point k), Rows rows ->
    read ?exact:(exact ds k) ~key:k ~join:false rows
  | (Gen.Join k | Gen.Prep_join k), Rows rows ->
    read ?exact:(exact ds k) ~key:k ~join:true rows
  | Gen.Update _, Tags [ t ] -> one_row "updated" t
  | Gen.Reinsert _, Tags [ _; d; i; _ ] -> one_row "deleted" d && one_row "inserted" i
  | Gen.Query i, Rows rows ->
    result ~order_cols:ds.Gen.queries.(i).Gen.order_cols ~expected:reference.(i) rows
  | _ -> false
