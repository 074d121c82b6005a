module V = Rel.Value
module S = Semant
module N = Normalize

let schema cols =
  Rel.Schema.make (List.map (fun (name, ty) -> { Rel.Schema.name; ty }) cols)

let setup () =
  let cat = Catalog.create () in
  ignore
    (Catalog.create_relation cat ~name:"T"
       ~schema:(schema [ ("A", V.Tint); ("B", V.Tint); ("C", V.Tint) ]));
  ignore
    (Catalog.create_relation cat ~name:"U"
       ~schema:(schema [ ("A", V.Tint); ("D", V.Tint) ]));
  cat

let resolve cat sql = S.resolve cat (Parser.parse_query sql)

let where cat sql =
  match (resolve cat sql).S.where with
  | Some w -> w
  | None -> Alcotest.fail "no WHERE"

(* Direct evaluator for single-table resolved predicates (no subqueries):
   the reference semantics the CNF transform must preserve. *)
let rec eval_expr tuple (e : S.sexpr) =
  match e with
  | S.E_col { col; _ } -> Rel.Tuple.get tuple col
  | S.E_const v -> v
  | S.E_param _ -> Alcotest.fail "param in reference eval" 
  | S.E_binop (op, a, b) ->
    let va = eval_expr tuple a and vb = eval_expr tuple b in
    (match op with
     | Ast.Add -> V.add va vb
     | Ast.Sub -> V.sub va vb
     | Ast.Mul -> V.mul va vb
     | Ast.Div -> V.div va vb)
  | S.E_outer _ | S.E_agg _ -> Alcotest.fail "unsupported in reference eval"

let cmp_op = function
  | Ast.Eq -> Rss.Sarg.Eq | Ast.Ne -> Rss.Sarg.Ne | Ast.Lt -> Rss.Sarg.Lt
  | Ast.Le -> Rss.Sarg.Le | Ast.Gt -> Rss.Sarg.Gt | Ast.Ge -> Rss.Sarg.Ge

let rec eval_pred tuple (p : S.spred) =
  match p with
  | S.P_cmp (a, c, b) ->
    Rss.Sarg.eval_op (cmp_op c) (eval_expr tuple a) (eval_expr tuple b)
  | S.P_between (e, lo, hi) ->
    let v = eval_expr tuple e in
    Rss.Sarg.eval_op Rss.Sarg.Ge v (eval_expr tuple lo)
    && Rss.Sarg.eval_op Rss.Sarg.Le v (eval_expr tuple hi)
  | S.P_in_list (e, vs) ->
    let v = eval_expr tuple e in
    (not (V.is_null v)) && List.exists (V.equal v) vs
  | S.P_and (a, b) -> eval_pred tuple a && eval_pred tuple b
  | S.P_or (a, b) -> eval_pred tuple a || eval_pred tuple b
  | S.P_not a -> not (eval_pred tuple a)
  | S.P_in_sub _ | S.P_cmp_sub _ -> Alcotest.fail "subquery in reference eval"

(* --- CNF -------------------------------------------------------------- *)

let test_cnf_conjunction_splits () =
  let cat = setup () in
  let fs = N.boolean_factors (where cat "SELECT A FROM T WHERE A = 1 AND B = 2 AND C = 3") in
  Alcotest.(check int) "three factors" 3 (List.length fs)

let test_cnf_or_is_one_factor () =
  let cat = setup () in
  let fs = N.boolean_factors (where cat "SELECT A FROM T WHERE A = 1 OR B = 2") in
  Alcotest.(check int) "one factor" 1 (List.length fs)

let test_cnf_distribution () =
  let cat = setup () in
  (* (A=1 AND B=2) OR C=3  ==>  (A=1 OR C=3) AND (B=2 OR C=3) *)
  let fs =
    N.boolean_factors (where cat "SELECT A FROM T WHERE (A = 1 AND B = 2) OR C = 3")
  in
  Alcotest.(check int) "two factors" 2 (List.length fs)

let test_between_stays_whole () =
  let cat = setup () in
  (* a positive BETWEEN is one boolean factor (it has its own TABLE 1
     selectivity and supplies both index bounds) *)
  let fs = N.boolean_factors (where cat "SELECT A FROM T WHERE A BETWEEN 2 AND 8") in
  Alcotest.(check int) "one factor" 1 (List.length fs);
  (match N.factors_of_block (resolve cat "SELECT A FROM T WHERE A BETWEEN 2 AND 8") with
   | [ { N.sarg =
           Some
             ( 0,
               [ [ { Rss.Sarg.col = 0; op = Rss.Sarg.Ge; value = V.Int 2 };
                   { Rss.Sarg.col = 0; op = Rss.Sarg.Le; value = V.Int 8 } ] ] );
         _ } ] -> ()
   | _ -> Alcotest.fail "between sarg");
  (* a negated BETWEEN opens into strict comparisons *)
  let fs2 =
    N.boolean_factors (where cat "SELECT A FROM T WHERE NOT (A BETWEEN 2 AND 8)")
  in
  (match fs2 with
   | [ S.P_or (S.P_cmp (_, Ast.Lt, _), S.P_cmp (_, Ast.Gt, _)) ] -> ()
   | _ -> Alcotest.fail "negated between shape")

let test_not_pushdown () =
  let cat = setup () in
  let fs = N.boolean_factors (where cat "SELECT A FROM T WHERE NOT (A = 1 OR B = 2)") in
  (* De Morgan: two negated conjuncts *)
  Alcotest.(check int) "two factors" 2 (List.length fs);
  List.iter
    (fun f ->
      match f with
      | S.P_cmp (_, Ast.Ne, _) -> ()
      | _ -> Alcotest.fail "expected <> factors")
    fs

let tuple_gen =
  QCheck.Gen.(
    map
      (fun (a, (b, c)) -> Rel.Tuple.make [ V.Int a; V.Int b; V.Int c ])
      (pair (int_bound 10) (pair (int_bound 10) (int_bound 10))))

(* random single-table predicates via SQL strings *)
let pred_sql_gen =
  QCheck.Gen.(
    let col = oneofl [ "A"; "B"; "C" ] in
    let base =
      oneof
        [ map2 (fun c v -> Printf.sprintf "%s = %d" c v) col (int_bound 10);
          map2 (fun c v -> Printf.sprintf "%s > %d" c v) col (int_bound 10);
          map2 (fun c v -> Printf.sprintf "%s <= %d" c v) col (int_bound 10);
          map2 (fun c v -> Printf.sprintf "%s BETWEEN %d AND %d" c v) col
            (int_bound 5)
          |> map (fun s -> s 8);
          map2 (fun c v -> Printf.sprintf "%s IN (%d, %d)" c v (v + 2)) col
            (int_bound 8) ]
    in
    let rec pred n =
      if n = 0 then base
      else
        frequency
          [ (2, base);
            ( 1,
              map2 (fun a b -> Printf.sprintf "(%s AND %s)" a b) (pred (n / 2))
                (pred (n / 2)) );
            ( 1,
              map2 (fun a b -> Printf.sprintf "(%s OR %s)" a b) (pred (n / 2))
                (pred (n / 2)) );
            (1, map (fun a -> Printf.sprintf "NOT (%s)" a) (pred (n / 2))) ]
    in
    pred 4)

let prop_cnf_preserves_semantics =
  let cat = setup () in
  QCheck.Test.make ~name:"CNF factors conjunction == original" ~count:300
    (QCheck.make
       ~print:(fun (sql, t) -> sql ^ " @ " ^ Rel.Tuple.to_string t)
       QCheck.Gen.(pair pred_sql_gen tuple_gen))
    (fun (psql, tuple) ->
      let w = where cat ("SELECT A FROM T WHERE " ^ psql) in
      let factors = N.boolean_factors w in
      eval_pred tuple w = List.for_all (eval_pred tuple) factors)

(* --- classification ----------------------------------------------------- *)

let classify_one cat sql =
  match N.factors_of_block (resolve cat sql) with
  | [ f ] -> f
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 factor, got %d" (List.length fs))

let test_sargable_local () =
  let cat = setup () in
  let f = classify_one cat "SELECT A FROM T WHERE A = 5" in
  Alcotest.(check (list int)) "tables" [ 0 ] f.N.tables;
  (match f.N.sarg with
   | Some (0, [ [ { Rss.Sarg.col = 0; op = Rss.Sarg.Eq; value = V.Int 5 } ] ]) -> ()
   | _ -> Alcotest.fail "sarg shape")

let test_sargable_or_tree () =
  let cat = setup () in
  (* an OR-headed boolean factor over one column is sargable as DNF *)
  let f = classify_one cat "SELECT A FROM T WHERE A = 1 OR A > 8" in
  (match f.N.sarg with
   | Some (0, [ _; _ ]) -> ()
   | _ -> Alcotest.fail "DNF sarg expected")

let test_value_op_column_flipped () =
  let cat = setup () in
  let f = classify_one cat "SELECT A FROM T WHERE 5 < A" in
  (match f.N.sarg with
   | Some (0, [ [ { Rss.Sarg.col = 0; op = Rss.Sarg.Gt; value = V.Int 5 } ] ]) -> ()
   | _ -> Alcotest.fail "flip")

let test_cross_table_or_not_sargable () =
  let cat = setup () in
  let b = resolve cat "SELECT T.A FROM T, U WHERE T.A = 1 OR U.D = 2" in
  (match N.factors_of_block b with
   | [ f ] ->
     Alcotest.(check (list int)) "both tables" [ 0; 1 ] f.N.tables;
     Alcotest.(check bool) "not sargable" true (f.N.sarg = None)
   | _ -> Alcotest.fail "one factor expected")

let test_equi_join_detection () =
  let cat = setup () in
  let b = resolve cat "SELECT T.A FROM T, U WHERE T.A = U.A" in
  (match N.factors_of_block b with
   | [ f ] ->
     (match f.N.equi_join with
      | Some ({ S.tab = 0; col = 0 }, { S.tab = 1; col = 0 }) -> ()
      | _ -> Alcotest.fail "equi join cols")
   | _ -> Alcotest.fail "one factor");
  (* same-table equality is NOT an equi-join *)
  let b2 = resolve cat "SELECT A FROM T WHERE A = B" in
  (match N.factors_of_block b2 with
   | [ f ] -> Alcotest.(check bool) "same table" true (f.N.equi_join = None)
   | _ -> Alcotest.fail "one factor")

let test_subquery_factor_flag () =
  let cat = setup () in
  let b = resolve cat "SELECT A FROM T WHERE A IN (SELECT A FROM U)" in
  (match N.factors_of_block b with
   | [ f ] ->
     Alcotest.(check bool) "has subquery" true f.N.has_subquery;
     Alcotest.(check bool) "not sargable" true (f.N.sarg = None)
   | _ -> Alcotest.fail "one factor")

let test_arith_not_sargable () =
  let cat = setup () in
  let f = classify_one cat "SELECT A FROM T WHERE A + 1 = 5" in
  Alcotest.(check bool) "not sargable" true (f.N.sarg = None);
  Alcotest.(check bool) "not sargable at open" false f.N.sargable_at_open

(* A correlation value is a constant for one evaluation of the subquery: the
   inner factor is sargable at open (no static SARG), like a placeholder. *)
let test_correlation_sargable_at_open () =
  let cat = setup () in
  let b = resolve cat "SELECT A FROM T WHERE B IN (SELECT D FROM U WHERE U.A = T.A)" in
  match b.S.where with
  | Some (S.P_in_sub { block; _ }) ->
    (match N.factors_of_block block with
     | [ f ] ->
       Alcotest.(check (list int)) "inner table only" [ 0 ] f.N.tables;
       Alcotest.(check bool) "no static sarg" true (f.N.sarg = None);
       Alcotest.(check bool) "sargable at open" true f.N.sargable_at_open
     | _ -> Alcotest.fail "one inner factor")
  | _ -> Alcotest.fail "IN subquery expected"

let () =
  Alcotest.run "normalize"
    [ ( "cnf",
        [ Alcotest.test_case "conjunction splits" `Quick test_cnf_conjunction_splits;
          Alcotest.test_case "or stays" `Quick test_cnf_or_is_one_factor;
          Alcotest.test_case "distribution" `Quick test_cnf_distribution;
          Alcotest.test_case "between stays whole" `Quick test_between_stays_whole;
          Alcotest.test_case "not pushdown" `Quick test_not_pushdown ] );
      ( "classification",
        [ Alcotest.test_case "sargable local" `Quick test_sargable_local;
          Alcotest.test_case "sargable OR tree" `Quick test_sargable_or_tree;
          Alcotest.test_case "value op column" `Quick test_value_op_column_flipped;
          Alcotest.test_case "cross-table OR" `Quick test_cross_table_or_not_sargable;
          Alcotest.test_case "equi join" `Quick test_equi_join_detection;
          Alcotest.test_case "subquery flag" `Quick test_subquery_factor_flag;
          Alcotest.test_case "arithmetic not sargable" `Quick test_arith_not_sargable;
          Alcotest.test_case "correlation sargable at open" `Quick
            test_correlation_sargable_at_open ] );
      ("props", [ QCheck_alcotest.to_alcotest prop_cnf_preserves_semantics ]) ]
