(** The pager owns every page in the store — data pages (slotted tuple pages
    inside segments), index pages (B-tree nodes) and temporary-list pages —
    under one page-id namespace, and routes every access through one buffer
    pool so that page-fetch accounting covers all page kinds uniformly. *)

type t

val create : ?buffer_pages:int -> unit -> t
(** [buffer_pages] defaults to 64 ("effective buffer pool per user"). *)

val counters : t -> Counters.t
(** The counters record accounting currently lands in — the engine-global
    record, unless a {!with_counters} redirection is in effect. *)

val base_counters : t -> Counters.t
(** The engine-global record, regardless of any active redirection. Session
    records fold into this one at session close ({!Counters.add}). *)

val with_counters : t -> Counters.t -> (unit -> 'a) -> 'a
(** [with_counters t c f] runs [f] with this {e domain}'s accounting
    (including the {!counters} accessor) redirected to [c], restoring the
    previous target when [f] returns or raises. Sessions wrap each statement
    in this; because the redirection is domain-local, concurrent reader
    statements on different domains each write their own record without
    synchronization. *)

val buffer_pages : t -> int

val alloc_data_page : t -> Page.t
(** Allocate a fresh slotted data page. *)

val alloc_page_id : t -> int
(** Allocate a page id with no slotted contents (B-tree nodes and temp pages
    keep their own in-memory representation but still occupy buffer slots). *)

val data_page : t -> int -> Page.t
(** Direct access without I/O accounting (page maintenance, recovery).
    @raise Not_found when the id is not a data page. *)

val read_data_page : t -> int -> Page.t
(** Buffered access: counts a fetch on miss, a hit otherwise. *)

val touch : t -> int -> unit
(** Buffered access to a non-data page (index node, temp page). *)

val note_page_written : t -> unit
(** Record one page written to a temporary list or sort output. *)

val note_rsi_call : t -> unit

val note_sort_run : t -> unit
(** Record one initial sorted run spilled by an external sort. *)

val note_merge_pass : t -> unit
(** Record one merge level performed over a sort's runs. *)

val evict_all : t -> unit
(** Cold the cache (bench harness between runs). *)

val set_shared : t -> bool -> unit
(** Multi-session (server) mode: keep the buffer pool latched even outside
    parallel query phases, since concurrent reader statements touch it from
    several domains. Composes with {!enter_parallel} nesting. Latched hits
    stay lock-free; see {!Buffer_pool.set_latched}. *)

val enter_parallel : t -> unit
(** Bracket a parallel query phase (matched by {!exit_parallel}; nests). On
    the outermost entry the buffer pool is latched so worker domains may
    touch it concurrently. Called from the main domain before any worker
    starts.
    @raise Invalid_argument while the failpoint registry is armed — torture
    testing is single-domain-only and the executor must have degraded to
    serial execution already. *)

val exit_parallel : t -> unit
(** Leave a parallel phase; on the outermost exit the buffer pool latch is
    released. Called from the main domain after every worker has finished. *)

val as_worker : t -> (unit -> 'a) -> 'a
(** Run [f] with this domain's I/O accounting redirected to a fresh
    domain-local scratch {!Counters.t}, folded into {!counters} under a latch
    when [f] returns (normally or not). The domain's queued buffer-pool
    promotions are replayed at the same point. Wrap every task submitted to
    {!Domain_pool} in this so per-domain counts sum exactly to the serial
    totals. *)
