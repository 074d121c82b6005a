type result = {
  block : Semant.block;
  plan : Plan.t;
  search : Join_enum.stats;
  subresults : (Semant.block * result) list;
}

let rec blocks_of_pred (p : Semant.spred) acc =
  match p with
  | Semant.P_in_sub { block; _ } -> block :: acc
  | Semant.P_cmp_sub (_, _, block) -> block :: acc
  | Semant.P_and (a, b) | Semant.P_or (a, b) ->
    blocks_of_pred a (blocks_of_pred b acc)
  | Semant.P_not a -> blocks_of_pred a acc
  | Semant.P_cmp _ | Semant.P_between _ | Semant.P_in_list _ -> acc

(* Shape eligibility for the parallelization post-pass: a left-deep
   nested-loop chain over scan leaves whose leftmost leaf is a segment scan
   or an ascending index scan with context-free bounds (constants and
   parameters — an outer-relation or correlation bound cannot be resolved
   at partition time). Merge joins and sorts below the root synchronize two streams or
   reorder tuples, so slicing their leftmost input does not slice their
   output; they stay serial. *)
let rec parallelizable (p : Plan.t) =
  match p.Plan.node with
  | Plan.Scan { access = Plan.Seg_scan; _ } -> true
  | Plan.Scan { access = Plan.Idx_scan { dir = Ast.Asc; lo; hi; _ }; _ } ->
    let bound_free = function
      | None -> true
      | Some (b : Plan.key_bound) ->
        List.for_all
          (function
            | Plan.Bv_outer _ | Plan.Bv_corr _ -> false
            | Plan.Bv_const _ | Plan.Bv_param _ -> true)
          b.Plan.values
    in
    bound_free lo && bound_free hi
  | Plan.Scan _ -> false
  | Plan.Nl_join { outer; inner } ->
    parallelizable outer
    && (match inner.Plan.node with Plan.Scan _ -> true | _ -> false)
  | Plan.Merge_join _ | Plan.Sort _ | Plan.Filter _ | Plan.Exchange _ -> false

let exchange_node ~dop ~cost (input : Plan.t) =
  { Plan.node = Plan.Exchange { input; dop };
    tables = input.Plan.tables;
    order = input.Plan.order;  (* partition-order gather preserves order *)
    cost;
    out_card = input.Plan.out_card }

(* Wrap the plan (or, for a root sort, the sort's input — the executor fans
   out run formation under it) in an exchange when the DOP-adjusted cost
   strictly beats serial. [force_parallel] skips the cost test but not the
   shape test. *)
let maybe_parallelize (ctx : Ctx.t) (plan : Plan.t) =
  if ctx.Ctx.max_dop <= 1 then plan
  else
    let wrap (p : Plan.t) =
      if not (parallelizable p) then None
      else if ctx.Ctx.force_parallel then
        let dop = ctx.Ctx.max_dop in
        Some (exchange_node ~dop ~cost:(Cost_model.parallel ~dop p.Plan.cost) p)
      else
        match
          Cost_model.choose_dop ~w:ctx.Ctx.w ~max_dop:ctx.Ctx.max_dop
            p.Plan.cost
        with
        | None -> None
        | Some (dop, pc) -> Some (exchange_node ~dop ~cost:pc p)
    in
    match plan.Plan.node with
    | Plan.Sort { input; key } ->
      (match wrap input with
       | None -> plan
       | Some ex ->
         (* the sort's own cost fields keep their serial estimate: the sort
            work is unchanged, only its input got cheaper (display-only) *)
         { plan with Plan.node = Plan.Sort { input = ex; key } })
    | _ -> (match wrap plan with None -> plan | Some ex -> ex)

let rec optimize ctx (block : Semant.block) =
  let factors = Normalize.factors_of_block block in
  let sub_factors, plain =
    List.partition (fun (f : Normalize.factor) -> f.has_subquery) factors
  in
  (* Boolean factors referencing no table of this block (constant predicates,
     pure outer-reference comparisons in correlated blocks) are evaluated in
     the top filter as well: no scan can absorb them. *)
  let normal, const_factors =
    List.partition (fun (f : Normalize.factor) -> f.tables <> []) plain
  in
  let subblocks =
    List.concat_map
      (fun (f : Normalize.factor) -> blocks_of_pred f.pred [])
      sub_factors
  in
  let subresults = List.map (fun b -> (b, optimize ctx b)) subblocks in
  let env = Interesting_order.build block normal in
  let plan, search = Join_enum.plan_block ctx block ~factors:normal ~env () in
  let filter_factors = sub_factors @ const_factors in
  (* Parallelize only self-contained blocks: no top filter (its predicates
     would run on the gather side anyway), no subquery plans (workers must
     never touch the subquery cache), not correlated (outer references make
     bounds context-dependent). *)
  let plan =
    if filter_factors = [] && subresults = [] && not block.Semant.correlated
    then maybe_parallelize ctx plan
    else plan
  in
  let plan =
    if filter_factors = [] then plan
    else begin
      (* Each nested block is evaluated once when uncorrelated; a correlated
         one is re-evaluated per candidate tuple (the executor caches by
         referenced value; the estimate here is the uncached worst case). *)
      let sub_eval_cost =
        List.fold_left
          (fun acc (b, (r : result)) ->
            let evals = if b.Semant.correlated then plan.Plan.out_card else 1. in
            Cost_model.add acc (Cost_model.scale evals r.plan.Plan.cost))
          Cost_model.zero subresults
      in
      let sel =
        List.fold_left
          (fun acc (f : Normalize.factor) ->
            acc *. Selectivity.factor ctx block f.pred)
          1. filter_factors
      in
      { Plan.node =
          Plan.Filter
            { input = plan;
              preds = List.map (fun (f : Normalize.factor) -> f.pred) filter_factors };
        tables = plan.Plan.tables;
        order = plan.Plan.order;  (* filtering preserves order *)
        cost = Cost_model.add plan.Plan.cost sub_eval_cost;
        out_card = plan.Plan.out_card *. sel }
    end
  in
  { block; plan; search; subresults }

let find_subresult r block =
  let rec go (r : result) =
    match List.find_opt (fun (b, _) -> b == block) r.subresults with
    | Some (_, sub) -> Some sub
    | None -> List.find_map (fun (_, sub) -> go sub) r.subresults
  in
  match go r with Some sub -> sub | None -> raise Not_found

let total_cost (ctx : Ctx.t) r = Cost_model.total ~w:ctx.Ctx.w r.plan.Plan.cost
