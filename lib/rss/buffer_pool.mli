(** LRU buffer pool over page identifiers.

    The pool does not own page contents (pages live in the pager); it decides
    whether touching a page is a hit or a miss, which is exactly what the
    cost model's "page fetch" means. Capacity is in pages — the paper's
    "effective buffer pool per user". *)

type t

val create : capacity:int -> t
(** @raise Invalid_argument when [capacity < 1]. *)

val capacity : t -> int
val resident : t -> int

val touch : t -> int -> [ `Hit | `Miss ]
(** Access a page: [`Hit] if resident, otherwise [`Miss] (the page is brought
    in, evicting the least recently used page when full).
    @raise Invalid_argument on a miss of a negative page id. *)

val set_latched : t -> bool -> unit
(** While latched, several domains may call {!touch} at once. A miss takes
    an internal mutex. A hit takes none: it reads a residency table indexed
    by page id and queues the page in the calling domain's promotion buffer,
    which is replayed into the LRU list under the mutex when it fills (64
    entries) and before that domain's next miss. A repeat of the domain's
    last queued page is dropped.

    One domain alone gets exactly the unlatched hit/miss sequence and
    eviction order (a domain that moves on to another latched pool drops
    what it queued for this one). Under concurrency, recency is stale by at
    most one buffer per domain: another domain's miss may evict a page
    whose promotion is still queued, and a hit racing that eviction may
    count as a hit. Membership and counts stay consistent ({!check}).

    Unlatched (the default), touch is the bare serial path. The pager
    latches the pool during parallel query phases and while the engine
    serves several sessions ({!Pager.set_shared}). A transition first
    replays the caller's queued promotions, then drops every other domain's
    ({!evict_all} drops them too). *)

val flush_local : t -> unit
(** Replay the calling domain's queued promotions now (a worker domain at
    the end of its task). *)

val contains : t -> int -> bool
val evict_all : t -> unit
(** Empty the pool (used between measured runs for cold-cache experiments). *)

val check : t -> unit
(** Verify the pool's structure under its mutex: no more resident pages
    than capacity, the LRU list and the hash table hold the same pages, and
    the residency table marks exactly those.
    @raise Failure naming the first violation. *)
