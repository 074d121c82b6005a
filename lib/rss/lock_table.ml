type txn = int

type resource =
  | Relation of int
  | Tuple_of of int * Tid.t

type mode = Shared | Exclusive

type outcome =
  | Granted
  | Blocked of txn list
  | Deadlock of txn list

type entry = {
  mutable holders : (txn * mode) list;   (* grant order, newest first *)
  mutable queue : (txn * mode) list;     (* arrival order, oldest first *)
}

type t = {
  table : (resource, entry) Hashtbl.t;  (* only resources held or waited on *)
  owned : (txn, resource) Hashtbl.t;
      (* one binding per resource a txn holds or waits on: a release
         visits these, not the whole table *)
  waits_for : (txn, txn list) Hashtbl.t;  (* waiter -> blockers *)
  mutable last_granted : (txn * resource * mode) list;
}

let create () =
  { table = Hashtbl.create 64; owned = Hashtbl.create 16;
    waits_for = Hashtbl.create 16; last_granted = [] }

let entry t r =
  match Hashtbl.find_opt t.table r with
  | Some e -> e
  | None ->
    let e = { holders = []; queue = [] } in
    Hashtbl.replace t.table r e;
    e

let compatible requested held =
  match requested, held with
  | Shared, Shared -> true
  | Shared, Exclusive | Exclusive, Shared | Exclusive, Exclusive -> false

let conflicting_holders e txn mode =
  List.filter_map
    (fun (h, hm) ->
      if h = txn then None else if compatible mode hm then None else Some h)
    e.holders

(* DFS over the wait-for graph: would making [waiter] wait on [blockers]
   close a cycle back to [waiter]? *)
let find_cycle t waiter blockers =
  let rec reachable seen goal tx =
    if tx = goal then Some (List.rev (tx :: seen))
    else if List.mem tx seen then None
    else
      let nexts = Option.value (Hashtbl.find_opt t.waits_for tx) ~default:[] in
      List.find_map (reachable (tx :: seen) goal) nexts
  in
  List.find_map (reachable [] waiter) blockers

let grant e txn mode =
  let without = List.filter (fun (h, _) -> h <> txn) e.holders in
  e.holders <- (txn, mode) :: without

let acquire t txn r mode =
  let e = entry t r in
  match List.assoc_opt txn e.holders with
  | Some held when held = mode || (held = Exclusive && mode = Shared) -> Granted
  | held ->
    (* a fresh entry has no blockers, so it is granted, never left empty *)
    if held = None && not (List.mem_assoc txn e.queue) then Hashtbl.add t.owned txn r;
    let want = match held with Some Shared -> Exclusive | _ -> mode in
    let conflicts = conflicting_holders e txn want in
    let queued_ahead =
      List.filter_map (fun (w, _) -> if w = txn then None else Some w) e.queue
    in
    if conflicts = [] && queued_ahead = [] then begin
      grant e txn want;
      Granted
    end
    else begin
      (* Fair queuing: wait on conflicting holders AND everything already
         queued — an upgrade must not jump an earlier Exclusive request.
         Both edge sets feed cycle detection, so a sole Shared holder
         upgrading behind a queued X (which waits on that very Shared
         hold), or two Shared holders both upgrading, is a Deadlock
         reported immediately rather than a silent mutual wait. *)
      let blockers = conflicts @ queued_ahead in
      match find_cycle t txn blockers with
      | Some cycle -> Deadlock cycle
      | None ->
        e.queue <- e.queue @ [ (txn, want) ];
        Hashtbl.replace t.waits_for txn
          (blockers @ Option.value (Hashtbl.find_opt t.waits_for txn) ~default:[]);
        Blocked blockers
    end

let release_all t txn =
  Hashtbl.remove t.waits_for txn;
  t.last_granted <- [];
  let owned = Hashtbl.find_all t.owned txn in
  List.iter (fun _ -> Hashtbl.remove t.owned txn) owned;
  List.iter
    (fun r ->
      let e = Hashtbl.find t.table r in
      e.holders <- List.filter (fun (h, _) -> h <> txn) e.holders;
      e.queue <- List.filter (fun (w, _) -> w <> txn) e.queue;
      (* Promote queued requests that are now compatible, preserving order. *)
      let rec promote () =
        match e.queue with
        | (w, wm) :: rest when conflicting_holders e w wm = [] ->
          e.queue <- rest;
          grant e w wm;
          Hashtbl.remove t.waits_for w;
          t.last_granted <- (w, r, wm) :: t.last_granted;
          promote ()
        | _ -> ()
      in
      promote ();
      if e.holders = [] && e.queue = [] then Hashtbl.remove t.table r)
    (List.rev owned)

let holds t txn r mode =
  match Hashtbl.find_opt t.table r with
  | None -> false
  | Some e ->
    (match List.assoc_opt txn e.holders with
     | Some Exclusive -> true
     | Some Shared -> mode = Shared
     | None -> false)

let holders t r =
  match Hashtbl.find_opt t.table r with None -> [] | Some e -> e.holders

let waiting t r =
  match Hashtbl.find_opt t.table r with None -> [] | Some e -> e.queue

let granted_since t _txn = t.last_granted

let size t = Hashtbl.length t.table
