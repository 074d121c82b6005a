(* Classic O(1) LRU: hash table from page id to an intrusive doubly-linked
   node; the list is kept in recency order with [head] most recent.

   Latched, a hit takes no lock. It reads a residency table indexed by page
   id and records the page in a per-domain promotion buffer. The buffer is
   replayed into the list, in order and under the mutex, when it fills and
   before that domain's next miss: BP-Wrapper's batched promotions (Ding et
   al., ICDE 2009). Membership changes only at misses, so a single domain
   that replays every pending promotion before its miss sees exactly the
   hit/miss sequence of immediate relinking. *)

type node = {
  page_id : int;
  mutable prev : node option;
  mutable next : node option;
}

(* Residency by page id, one byte a page, in fixed-size chunks. Page ids are
   dense (an atomic counter), so every chunk fills up. Growing copies the
   chunk directory, never a chunk: a reader holding the old directory still
   sees every write to the chunks it has, and an id beyond it reads as not
   resident, which sends that reader to the locked miss path. *)
let chunk_bits = 12
let chunk_mask = (1 lsl chunk_bits) - 1

type t = {
  cap : int;
  table : (int, node) Hashtbl.t;
  mutable head : node option;
  mutable tail : node option;
  mutable mru : int;  (* id at [head], or min_int when empty *)
  mutable res : Bytes.t array;
      (* written together with [table] (under the mutex while latched), read
         without the mutex by latched hits *)
  epoch : int Atomic.t;
      (* bumped by [evict_all] and latch transitions: a promotion buffer
         tagged with an older epoch is dropped, never replayed *)
  m : Mutex.t;
  mutable latched : bool;
      (* several domains may touch the pool: misses and promotions take the
         mutex, hits go through the residency table and promotion buffers *)
}

(* Pending promotions of one domain, for the pool and epoch it was tagged
   with. Fixed size; a full buffer is replayed under the mutex. *)
let batch = 64

type promotions = {
  mutable owner : t option;
  mutable tag : int;
  ids : int array;
  mutable len : int;
}

let local : promotions Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { owner = None; tag = 0; ids = Array.make batch 0; len = 0 })

let create ~capacity =
  if capacity < 1 then invalid_arg "Buffer_pool.create: capacity < 1";
  { cap = capacity;
    table = Hashtbl.create (2 * capacity);
    head = None;
    tail = None;
    mru = min_int;
    res = [||];
    epoch = Atomic.make 0;
    m = Mutex.create ();
    latched = false }

let capacity t = t.cap
let resident t = Hashtbl.length t.table
let contains t id = Hashtbl.mem t.table id

let is_resident t id =
  let dir = t.res in
  let c = id lsr chunk_bits in
  c < Array.length dir
  && Bytes.unsafe_get (Array.unsafe_get dir c) (id land chunk_mask) <> '\000'

let set_resident t id v =
  let c = id lsr chunk_bits in
  let n = Array.length t.res in
  if c >= n then
    t.res <-
      Array.append t.res
        (Array.init (c + 1 - n) (fun _ -> Bytes.make (chunk_mask + 1) '\000'));
  Bytes.unsafe_set t.res.(c) (id land chunk_mask) (if v then '\001' else '\000')

let locked t f =
  Mutex.lock t.m;
  match f () with
  | r ->
    Mutex.unlock t.m;
    r
  | exception e ->
    Mutex.unlock t.m;
    raise e

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n;
  t.mru <- n.page_id

let touch_raw t id =
  (* Touching the page already at the front needs no relink and cannot miss.
     Scans fetch runs of tuples from the same page, so this one-compare path
     carries nearly every RSI call. *)
  if id = t.mru then `Hit
  else
    match Hashtbl.find_opt t.table id with
    | Some n ->
      unlink t n;
      push_front t n;
      `Hit
    | None ->
      if id < 0 then invalid_arg "Buffer_pool.touch: negative page id";
      if Hashtbl.length t.table >= t.cap then begin
        (* Pages have no separate disk image here, so there is no literal
           dirty-page writeback; the eviction is the durability-relevant
           moment the failpoint models. *)
        Failpoint.hit "buffer_pool.evict";
        match t.tail with
        | Some victim ->
          unlink t victim;
          Hashtbl.remove t.table victim.page_id;
          set_resident t victim.page_id false
        | None -> assert false
      end;
      let n = { page_id = id; prev = None; next = None } in
      Hashtbl.replace t.table id n;
      set_resident t id true;
      push_front t n;
      `Miss

(* Replay [b] into [t]'s list, in order, if it was recorded against [t]'s
   current epoch, and empty it; pages evicted since their hit are skipped.
   A buffer owned by another pool is left alone. Caller holds the mutex. *)
let drain t b =
  match b.owner with
  | Some o when o == t ->
    if b.tag = Atomic.get t.epoch then
      for i = 0 to b.len - 1 do
        let id = b.ids.(i) in
        if id <> t.mru then
          match Hashtbl.find_opt t.table id with
          | Some n ->
            unlink t n;
            push_front t n
          | None -> ()
      done;
    b.len <- 0
  | _ -> ()

let note_hit t id =
  let b = Domain.DLS.get local in
  (match b.owner with
   | Some o when o == t && b.tag = Atomic.get t.epoch -> ()
   | _ ->
     (* stale, or recorded for another pool: dropped *)
     b.owner <- Some t;
     b.tag <- Atomic.get t.epoch;
     b.len <- 0);
  let n = b.len in
  if n = 0 || b.ids.(n - 1) <> id then
    if n < batch then begin
      b.ids.(n) <- id;
      b.len <- n + 1
    end
    else
      locked t (fun () ->
          drain t b;
          b.ids.(0) <- id;
          b.len <- 1)

let touch t id =
  (* The unlatched path stays a direct call: serial execution — the common
     case — pays nothing for the latch's existence. *)
  if not t.latched then touch_raw t id
  else if is_resident t id then begin
    note_hit t id;
    `Hit
  end
  else
    locked t (fun () ->
        drain t (Domain.DLS.get local);
        touch_raw t id)

let flush_local t =
  let b = Domain.DLS.get local in
  if b.len > 0 then locked t (fun () -> drain t b)

let set_latched t b =
  if b <> t.latched then begin
    (* the caller's own pending promotions land before the transition, so a
       single domain toggling the latch keeps exact LRU *)
    locked t (fun () ->
        drain t (Domain.DLS.get local);
        Atomic.incr t.epoch);
    t.latched <- b
  end

let evict_all t =
  locked t (fun () ->
      Hashtbl.iter (fun id _ -> set_resident t id false) t.table;
      Hashtbl.reset t.table;
      t.head <- None;
      t.tail <- None;
      t.mru <- min_int;
      Atomic.incr t.epoch)

let check t =
  locked t (fun () ->
      let fail fmt = Printf.ksprintf failwith ("Buffer_pool.check: " ^^ fmt) in
      let size = Hashtbl.length t.table in
      if size > t.cap then fail "%d resident > capacity %d" size t.cap;
      let same a b =
        match a, b with
        | None, None -> true
        | Some x, Some y -> x == y
        | _ -> false
      in
      let rec walk prev count = function
        | None ->
          if not (same t.tail prev) then fail "tail is not the last node";
          count
        | Some n ->
          if not (same n.prev prev) then fail "broken prev link at %d" n.page_id;
          (match Hashtbl.find_opt t.table n.page_id with
           | Some n' when n' == n -> ()
           | _ -> fail "listed page %d not in the table" n.page_id);
          if not (is_resident t n.page_id) then
            fail "listed page %d not marked resident" n.page_id;
          walk (Some n) (count + 1) n.next
      in
      let listed = walk None 0 t.head in
      if listed <> size then fail "%d listed <> %d in the table" listed size;
      (match t.head with
       | Some h when h.page_id <> t.mru -> fail "mru is not the head"
       | None when t.mru <> min_int -> fail "mru set on an empty pool"
       | _ -> ());
      let marked =
        Array.fold_left
          (fun acc chunk ->
            let k = ref acc in
            Bytes.iter (fun c -> if c <> '\000' then incr k) chunk;
            !k)
          0 t.res
      in
      if marked <> size then fail "%d marked resident <> %d in the table" marked size)
