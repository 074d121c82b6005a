open Semant

(* Factors applicable to a scan of [tab] given [outer] relations already
   joined: every referenced table is available, [tab] is among them, and no
   subquery is involved. *)
let applicable_factors factors ~tab ~outer =
  List.filter
    (fun (f : Normalize.factor) ->
      (not f.has_subquery)
      && List.mem tab f.tables
      && List.for_all (fun t -> t = tab || List.mem t outer) f.tables)
    factors

(* A factor counts as sargable for this scan when it can be evaluated inside
   the RSS at opening time: either a local SARG, or an equi-join predicate
   whose other side is an outer column (its value is a constant for the
   duration of one opening). *)
let dynamic_eq ~tab ~outer (f : Normalize.factor) =
  match f.equi_join with
  | Some (a, b) when a.tab = tab && List.mem b.tab outer -> Some (a.col, b)
  | Some (a, b) when b.tab = tab && List.mem a.tab outer -> Some (b.col, a)
  | Some _ | None -> None

let is_sargable ~tab ~outer (f : Normalize.factor) =
  f.sargable_at_open || dynamic_eq ~tab ~outer f <> None

let rsicard ctx block ~factors ~tab ~outer =
  let rel = Ctx.table_rel block tab in
  let stats = Ctx.rel_stats ctx rel in
  let app = applicable_factors factors ~tab ~outer in
  let sargable = List.filter (is_sargable ~tab ~outer) app in
  stats.ncard *. Selectivity.factors_product ctx block sargable

(* --- index matching --------------------------------------------------- *)

type eq_match = {
  eq_factor : Normalize.factor;
  eq_value : Plan.bound_value;
}

(* The value an operand takes for one opening of the scan: a literal, a [?]
   placeholder bound at execution, or a correlation value, which section 6
   treats as a constant for each evaluation of the subquery. *)
let opening_value = function
  | Semant.E_const v -> Some (Plan.Bv_const v)
  | Semant.E_param i -> Some (Plan.Bv_param i)
  | Semant.E_outer { levels_up; tab; col } ->
    Some (Plan.Bv_corr { levels_up; tab; col })
  | Semant.E_col _ | Semant.E_binop _ | Semant.E_agg _ -> None

let on_col ~tab ~col (c : Semant.col_ref) = c.tab = tab && c.col = col

(* Equal-predicate factor on column [col] of [tab]: "col = value" for any
   opening value, or a dynamically-bound equi-join. *)
let find_eq ~tab ~outer ~col app =
  List.find_map
    (fun (f : Normalize.factor) ->
      let value =
        match f.pred with
        | Semant.P_cmp (Semant.E_col c, Ast.Eq, e) when on_col ~tab ~col c ->
          opening_value e
        | Semant.P_cmp (e, Ast.Eq, Semant.E_col c) when on_col ~tab ~col c ->
          opening_value e
        | _ -> None
      in
      match value, dynamic_eq ~tab ~outer f with
      | Some v, _ -> Some { eq_factor = f; eq_value = v }
      | None, Some (jcol, outer_ref) when jcol = col ->
        Some { eq_factor = f; eq_value = Plan.Bv_outer outer_ref }
      | None, _ -> None)
    app

type range_match = {
  r_factor : Normalize.factor;
  r_value : Plan.bound_value;
  r_inclusive : bool;
}

(* Range factor bounding column [col] of [tab] from below ([`Lo]) or above
   ([`Hi]) by an opening value: a comparison either way round, or one side
   of a BETWEEN. *)
let find_range ~tab ~col ~dir app =
  let flip = function
    | Ast.Lt -> Ast.Gt | Ast.Le -> Ast.Ge
    | Ast.Gt -> Ast.Lt | Ast.Ge -> Ast.Le
    | (Ast.Eq | Ast.Ne) as op -> op
  in
  List.find_map
    (fun (f : Normalize.factor) ->
      let bound ~inclusive e =
        Option.map
          (fun v -> { r_factor = f; r_value = v; r_inclusive = inclusive })
          (opening_value e)
      in
      let cmp op e =
        match op, dir with
        | (Ast.Gt | Ast.Ge), `Lo | (Ast.Lt | Ast.Le), `Hi ->
          bound ~inclusive:(op = Ast.Ge || op = Ast.Le) e
        | _ -> None
      in
      match f.pred, dir with
      | Semant.P_cmp (Semant.E_col c, op, e), _ when on_col ~tab ~col c -> cmp op e
      | Semant.P_cmp (e, op, Semant.E_col c), _ when on_col ~tab ~col c ->
        cmp (flip op) e
      | Semant.P_between (Semant.E_col c, lo, _), `Lo when on_col ~tab ~col c ->
        bound ~inclusive:true lo
      | Semant.P_between (Semant.E_col c, _, hi), `Hi when on_col ~tab ~col c ->
        bound ~inclusive:true hi
      | _ -> None)
    app

type index_match = {
  matched : Normalize.factor list;  (** factors satisfied by the key bounds *)
  lo : Plan.key_bound option;
  hi : Plan.key_bound option;
  full_key_eq : bool;               (** equal factors cover every key column *)
}

(* Match the longest prefix of the index key with equal factors, then at
   most one range pair on the next key column ("initial substring" rule). *)
let match_index ~tab ~outer app (idx : Catalog.index) =
  let rec eat_prefix cols acc_vals acc_factors =
    match cols with
    | [] -> (List.rev acc_vals, List.rev acc_factors, None)
    | col :: rest ->
      (match find_eq ~tab ~outer ~col app with
       | Some { eq_factor; eq_value } ->
         eat_prefix rest (eq_value :: acc_vals) (eq_factor :: acc_factors)
       | None -> (List.rev acc_vals, List.rev acc_factors, Some col))
  in
  let eq_vals, eq_factors, next_col = eat_prefix idx.key_cols [] [] in
  let full_key_eq = next_col = None && eq_vals <> [] in
  let lo_r, hi_r =
    match next_col with
    | None -> (None, None)
    | Some col -> (find_range ~tab ~col ~dir:`Lo app, find_range ~tab ~col ~dir:`Hi app)
  in
  let bound r =
    Option.map
      (fun { r_value; r_inclusive; _ } ->
        { Plan.values = eq_vals @ [ r_value ]; inclusive = r_inclusive })
      r
  in
  let eq_bound =
    if eq_vals = [] then None else Some { Plan.values = eq_vals; inclusive = true }
  in
  let lo = match bound lo_r with Some b -> Some b | None -> eq_bound in
  let hi = match bound hi_r with Some b -> Some b | None -> eq_bound in
  let range_factors =
    match lo_r, hi_r with
    | Some a, Some b when a.r_factor == b.r_factor -> [ a.r_factor ]
        (* one BETWEEN factor supplied both bounds: count its F once *)
    | _ -> List.filter_map (Option.map (fun r -> r.r_factor)) [ lo_r; hi_r ]
  in
  let matched = eq_factors @ range_factors in
  { matched; lo; hi; full_key_eq }

(* --- path construction ------------------------------------------------ *)

let paths ctx block ~factors ~tab ~outer =
  let rel = Ctx.table_rel block tab in
  let stats = Ctx.rel_stats ctx rel in
  let app = applicable_factors factors ~tab ~outer in
  let sargable, non_sargable = List.partition (is_sargable ~tab ~outer) app in
  let rsicard_v = stats.ncard *. Selectivity.factors_product ctx block sargable in
  let out_card = stats.ncard *. Selectivity.factors_product ctx block app in
  let sarg_preds = List.map (fun (f : Normalize.factor) -> f.pred) sargable in
  let residual_preds = List.map (fun (f : Normalize.factor) -> f.pred) non_sargable in
  let mk node cost order =
    { Plan.node; tables = [ tab ]; order; cost; out_card }
  in
  let segment =
    let cost =
      Cost_model.single_relation ctx ~rel:stats ~idx:None
        ~situation:Cost_model.Segment_scan_cost ~rsicard:rsicard_v
    in
    mk
      (Plan.Scan { tab; access = Plan.Seg_scan; sargs = sarg_preds; residual = residual_preds })
      cost []
  in
  (* Descending variants are generated only when the block asks for some
     descending order; they cost the same, produce the reversed key order,
     and never serve as merge-join inners (those need ascending order). *)
  let want_desc =
    List.exists (fun (_, d) -> d = Ast.Desc) block.Semant.order_by
  in
  let index_paths =
    List.concat_map
      (fun (idx : Catalog.index) ->
        let istats = Ctx.idx_stats ctx idx in
        let m = match_index ~tab ~outer app idx in
        let matching = m.matched <> [] in
        let situation =
          if m.full_key_eq && istats.unique then Cost_model.Unique_index_eq
          else if matching then begin
            let f =
              List.fold_left
                (fun acc (fct : Normalize.factor) ->
                  acc *. Selectivity.factor ctx block fct.pred)
                1. m.matched
            in
            if istats.clustered then Cost_model.Clustered_matching f
            else Cost_model.Nonclustered_matching f
          end
          else if istats.clustered then Cost_model.Clustered_nonmatching
          else Cost_model.Nonclustered_nonmatching
        in
        let cost =
          Cost_model.single_relation ctx ~rel:stats ~idx:(Some istats)
            ~situation ~rsicard:rsicard_v
        in
        let path dir =
          let order =
            List.map (fun col -> ({ Semant.tab; col }, dir)) idx.key_cols
          in
          mk
            (Plan.Scan
               { tab;
                 access =
                   Plan.Idx_scan { index = idx; lo = m.lo; hi = m.hi; dir; matching };
                 sargs = sarg_preds;
                 residual = residual_preds })
            cost order
        in
        if want_desc then [ path Ast.Asc; path Ast.Desc ] else [ path Ast.Asc ])
      (Ctx.indexes_of ctx rel)
  in
  segment :: index_paths
