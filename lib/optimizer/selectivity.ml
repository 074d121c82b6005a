open Semant

let clamp f = if f < 0. then 0. else if f > 1. then 1. else f

(* A comparison operand whose value is known at access path selection: a
   literal, or a parameter slot whose extracted literal the plan-cache path
   lets us peek at (histograms on only — the paper's estimates are
   value-independent). A correlation value is a constant too, but an
   unknown one: it gets the estimates of an unpeeked parameter. *)
let const_of ctx = function
  | E_const v -> Some v
  | E_param i -> Ctx.param_value ctx i
  | _ -> None

(* --- TABLE 1, case by case — histogram-aware -------------------------- *)

(* column = value. With a histogram: the containing bucket's per-value depth
   when the value is known, the average depth (1 - null fraction) / distinct
   when not. Without: TABLE 1's 1/ICARD, needing an index on the column,
   else 1/10. *)
let eq_selectivity ctx block c v =
  match Ctx.column_stats ctx block c with
  | Some h when Histogram.rows h > 0 ->
    (match v with
     | Some v when not (Rel.Value.is_null v) -> Histogram.selectivity_eq h v
     | Some _ -> 0. (* column = NULL qualifies nothing *)
     | None ->
       let d = Histogram.distinct h in
       if d = 0 then 0.
       else (1. -. Histogram.null_fraction h) /. float_of_int d)
  | _ ->
    (match Ctx.column_icard ctx block c with
     | Some icard -> 1. /. icard (* even distribution among key values *)
     | None -> 1. /. 10.)

(* column <> value: NULLs satisfy neither the equality nor its negation, so
   with a histogram the complement is taken within the non-NULL fraction. *)
let ne_selectivity ctx block c v =
  match Ctx.column_stats ctx block c with
  | Some h when Histogram.rows h > 0 ->
    clamp (1. -. Histogram.null_fraction h -. eq_selectivity ctx block c v)
  | _ -> 1. -. eq_selectivity ctx block c v

(* column1 = column2: 1 / MAX(ICARD1, ICARD2) — each distinct value of the
   smaller domain is assumed to have a match — discounted by both columns'
   NULL fractions when histograms know them. *)
let col_eq_col ctx block c1 c2 =
  let disc c =
    match Ctx.column_stats ctx block c with
    | Some h when Histogram.rows h > 0 -> 1. -. Histogram.null_fraction h
    | _ -> 1.
  in
  let base =
    match Ctx.column_icard ctx block c1, Ctx.column_icard ctx block c2 with
    | Some i1, Some i2 -> 1. /. Float.max i1 i2
    | Some i, None | None, Some i -> 1. /. i
    | None, None -> 1. /. 10.
  in
  base *. disc c1 *. disc c2

(* column > value (or any other open comparison). With a histogram: bucket
   counts plus within-bucket interpolation. Without: linear interpolation
   between an index's low and high keys when the column is arithmetic and
   the value known, else TABLE 1's 1/3. A degenerate key range (high = low:
   every tuple carries the single key value) is decided outright by that
   value — eq-like, not the 1/3 default the interpolation guard used to
   fall through to. *)
let range_selectivity ctx block c op (v : Rel.Value.t option) =
  match Ctx.column_stats ctx block c with
  | Some h when Histogram.rows h > 0 ->
    (match v with
     | Some v when not (Rel.Value.is_null v) ->
       let dir =
         match op with
         | Ast.Gt -> `Gt | Ast.Ge -> `Ge | Ast.Lt -> `Lt | Ast.Le -> `Le
         | Ast.Eq | Ast.Ne -> assert false
       in
       Histogram.selectivity_cmp h dir v
     | Some _ -> 0. (* comparison with NULL qualifies nothing *)
     | None -> (1. -. Histogram.null_fraction h) /. 3.)
  | _ ->
    (match v with
     | None -> 1. /. 3.
     | Some v ->
       (match Ctx.column_range ctx block c, Rel.Value.to_float v with
        | Some (low, high), Some value when high > low ->
          let f =
            match op with
            | Ast.Gt | Ast.Ge -> (high -. value) /. (high -. low)
            | Ast.Lt | Ast.Le -> (value -. low) /. (high -. low)
            | Ast.Eq | Ast.Ne -> assert false
          in
          clamp f
        | Some (low, high), Some value when high = low ->
          let sat =
            match op with
            | Ast.Gt -> low > value
            | Ast.Ge -> low >= value
            | Ast.Lt -> low < value
            | Ast.Le -> low <= value
            | Ast.Eq | Ast.Ne -> assert false
          in
          if sat then 1. else 0.
        | _ -> 1. /. 3.))

let between_selectivity ctx block c lo hi =
  match Ctx.column_stats ctx block c with
  | Some h when Histogram.rows h > 0 ->
    (match lo, hi with
     | Some lo, Some hi
       when not (Rel.Value.is_null lo) && not (Rel.Value.is_null hi) ->
       Histogram.selectivity_between h lo hi
     | Some _, Some _ -> 0. (* a NULL bound qualifies nothing *)
     | _ -> (1. -. Histogram.null_fraction h) /. 4.)
  | _ ->
    (match lo, hi with
     | Some lo, Some hi ->
       (match
          Ctx.column_range ctx block c,
          Rel.Value.to_float lo,
          Rel.Value.to_float hi
        with
        | Some (low, high), Some v1, Some v2 when high > low ->
          clamp ((v2 -. v1) /. (high -. low))
        | Some (low, high), Some v1, Some v2 when high = low ->
          (* single-key column: the whole relation is in or out of the range *)
          if low >= v1 && low <= v2 then 1. else 0.
        | _ -> 1. /. 4.)
     | _ -> 1. /. 4.)

let rec factor ctx block (p : spred) =
  let f =
    match p with
    | P_cmp (E_col c, Ast.Eq, ((E_const _ | E_param _ | E_outer _) as e))
    | P_cmp (((E_const _ | E_param _ | E_outer _) as e), Ast.Eq, E_col c) ->
      eq_selectivity ctx block c (const_of ctx e)
    | P_cmp (E_col c, Ast.Ne, ((E_const _ | E_param _ | E_outer _) as e))
    | P_cmp (((E_const _ | E_param _ | E_outer _) as e), Ast.Ne, E_col c) ->
      ne_selectivity ctx block c (const_of ctx e)
    | P_cmp (E_col c1, Ast.Eq, E_col c2) -> col_eq_col ctx block c1 c2
    | P_cmp (E_col c1, Ast.Ne, E_col c2) -> 1. -. col_eq_col ctx block c1 c2
    | P_cmp
        (E_col c, ((Ast.Gt | Ast.Ge | Ast.Lt | Ast.Le) as op),
         ((E_const _ | E_param _ | E_outer _) as e)) ->
      range_selectivity ctx block c op (const_of ctx e)
    | P_cmp
        (((E_const _ | E_param _ | E_outer _) as e),
         ((Ast.Gt | Ast.Ge | Ast.Lt | Ast.Le) as op), E_col c) ->
      let flipped =
        match op with
        | Ast.Gt -> Ast.Lt | Ast.Ge -> Ast.Le
        | Ast.Lt -> Ast.Gt | Ast.Le -> Ast.Ge
        | Ast.Eq | Ast.Ne -> assert false
      in
      range_selectivity ctx block c flipped (const_of ctx e)
    | P_cmp (_, Ast.Eq, _) -> 1. /. 10.
    | P_cmp (_, Ast.Ne, _) -> 1. -. (1. /. 10.)
    | P_cmp (_, (Ast.Gt | Ast.Ge | Ast.Lt | Ast.Le), _) -> 1. /. 3.
    | P_between
        ( E_col c,
          ((E_const _ | E_param _ | E_outer _) as l),
          ((E_const _ | E_param _ | E_outer _) as h) ) ->
      between_selectivity ctx block c (const_of ctx l) (const_of ctx h)
    | P_between _ -> 1. /. 4.
    | P_in_list (e, vs) ->
      (* duplicate literals must not stack: IN (1, 1, 1) selects the same
         tuples as IN (1) *)
      let vs = List.sort_uniq Rel.Value.compare vs in
      let sel =
        match e with
        | E_col c ->
          List.fold_left
            (fun acc v -> acc +. eq_selectivity ctx block c (Some v))
            0. vs
        | _ -> float_of_int (List.length vs) *. (1. /. 10.)
      in
      (* "allowed to be no more than 1/2" *)
      Float.min 0.5 sel
    | P_in_sub { block = sub; negated; _ } ->
      (* F = (expected cardinality of the subquery result) /
             (product of the cardinalities of all the relations in the
              subquery's FROM-list) *)
      let f = clamp (block_qcard ctx sub /. cardinality_product ctx sub) in
      if negated then 1. -. f else f
    | P_cmp_sub (e, op, _) ->
      (* Scalar subquery compared to an expression: the value is unknown at
         access path selection, so use the value-independent estimates. *)
      (match op, e with
       | Ast.Eq, E_col c -> eq_selectivity ctx block c None
       | Ast.Eq, _ -> 1. /. 10.
       | Ast.Ne, E_col c -> ne_selectivity ctx block c None
       | Ast.Ne, _ -> 1. -. (1. /. 10.)
       | (Ast.Gt | Ast.Ge | Ast.Lt | Ast.Le), _ -> 1. /. 3.)
    | P_or (a, b) ->
      let fa = factor ctx block a and fb = factor ctx block b in
      fa +. fb -. (fa *. fb)
    | P_and (a, b) ->
      (* assumes column values are independent *)
      factor ctx block a *. factor ctx block b
    | P_not a -> 1. -. factor ctx block a
  in
  clamp f

and cardinality_product ctx (block : block) =
  List.fold_left
    (fun acc (tr : table_ref) -> acc *. (Ctx.rel_stats ctx tr.rel).ncard)
    1. block.tables

(* Product of the factors' selectivities, with runtime feedback applied:
   when a table's local factor set has a recorded observed selectivity
   (a previous execution grossly misestimated it), the record replaces the
   estimated product of exactly those factors — the remaining factors are
   still estimated and multiplied in. *)
and factors_product ctx block factors =
  let estimated fs =
    List.fold_left
      (fun acc (f : Normalize.factor) -> acc *. factor ctx block f.pred)
      1. fs
  in
  if not ctx.Ctx.use_feedback then estimated factors
  else begin
    let covered = ref [] in
    let fb = ref 1.0 in
    List.iter
      (fun (tr : table_ref) ->
        let local = Feedback.local_factors factors ~tab:tr.tab_idx in
        match Feedback.key ~params:ctx.Ctx.params local with
        | None -> ()
        | Some key ->
          (match Feedback.lookup ctx tr.rel ~key with
           | Some sel ->
             fb := !fb *. sel;
             covered := local @ !covered
           | None -> ()))
      block.tables;
    let rest =
      List.filter (fun f -> not (List.memq f !covered)) factors
    in
    !fb *. estimated rest
  end

and block_qcard ctx (block : block) =
  let factors = Normalize.factors_of_block block in
  let sel = factors_product ctx block factors in
  let base = cardinality_product ctx block *. sel in
  if block.scalar_agg then 1.
  else
    match block.group_by with
    | [] -> base
    | cols ->
      (* distinct-group estimate: product of grouping-column cardinalities
         when statistics provide them, bounded by the pre-grouping
         cardinality *)
      let groups =
        List.fold_left
          (fun acc c ->
            match Ctx.column_icard ctx block c with
            | Some icard -> acc *. icard
            | None -> acc *. 10.)
          1. cols
      in
      Float.min base groups
