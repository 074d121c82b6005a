(** The engine facade: a database instance tying together storage, catalog,
    SQL front end, optimizer and executor. This is the public API examples
    and the CLI program against.

    DML is transactional: every INSERT/DELETE/UPDATE is logged to the
    write-ahead log; it holds its relation Shared and each tuple it deletes
    or updates Exclusive until commit. Without
    an explicit BEGIN each statement auto-commits; BEGIN ... COMMIT/ROLLBACK
    groups statements, and ROLLBACK undoes their effects (storage and
    indexes) in reverse order. The log can be replayed with
    {!Rss.Recovery.replay} after a crash (committed work only). *)

type t

val create : ?buffer_pages:int -> ?w:float -> unit -> t

val engine : t -> Engine.t
(** The shared engine under this facade. The wire-protocol server creates
    additional {!Session}s over it (one per connection); embedded callers
    rarely need it. *)

val session : t -> Session.t
(** The facade's implicit default session (accounts into the engine-global
    counters). *)

val catalog : t -> Catalog.t
val pager : t -> Rss.Pager.t
val ctx : ?params:Rel.Value.t array -> t -> Ctx.t
(** Optimization context with this database's defaults. [params] supplies
    bound parameter values for value-aware histogram estimates (the
    plan-cache path "peeks" at its extracted literals this way). *)

val set_w : t -> float -> unit
(** Change the optimizer's W weighting. Flushes the plan cache: cached plans
    embed cost decisions made under the old weighting. *)

val set_parallelism : t -> int -> unit
(** Cap the degree of parallelism the optimizer may choose (SET PARALLELISM;
    initial value from [SYSTEMR_DOMAINS], default 1). Clamped to [>= 1];
    flushes the plan cache on change — cached plans embed exchange decisions
    made under the old cap. *)

val parallelism : t -> int

val set_force_parallel : t -> bool -> unit
(** Debug/fuzz switch: wrap every shape-eligible plan at the full parallelism
    cap regardless of cost, so parallel execution is exercised on inputs the
    cost model would correctly run serially. Flushes the plan cache on
    change. *)

(** {2 Histograms & cardinality feedback} *)

val set_histograms : t -> bool -> unit
(** SET HISTOGRAMS ON/OFF (default on): estimate selectivities from the
    per-column equi-depth histograms UPDATE STATISTICS collects. OFF pins
    the paper's value-independent TABLE 1 constants — and suspends the
    cardinality-feedback loop, which would also perturb them — so the seed
    benchmarks reproduce exactly. Flushes the plan cache on change. *)

val histograms_enabled : t -> bool

val set_feedback : t -> bool -> unit
(** Enable/disable the cardinality-feedback loop independently of histogram
    estimation (default on; only active while histograms are on). Flushes
    the plan cache on change. *)

val feedback_enabled : t -> bool

val set_feedback_threshold : t -> float -> unit
(** q-error — [max((est+1)/(act+1), (act+1)/(est+1))] — above which an
    execution counts as a gross misestimate and may record a corrected
    selectivity (default 4.0; clamped to [>= 1]). *)

val last_feedback : t -> (float * int * float * bool) option
(** (estimated QCARD, actual rows, q-error, retired a cached plan) of the
    most recent feedback-observed execution; also surfaced by EXPLAIN. *)

(** {2 Compiled-plan cache}

    SELECT statements executed through {!exec} / {!query} are fingerprinted
    after canonicalization ({!Normalize.fingerprint}): statements differing
    only in WHERE literals share one parameterized plan, re-optimized only
    when a dependency's statistics version or feedback generation moves
    (UPDATE STATISTICS, index DDL, DROP/CREATE TABLE, or a recorded
    cardinality-feedback correction). Optimization peeks at the extracted
    literals for histogram estimates, so the cached plan is the one chosen
    for the literals first seen. {!query} additionally remembers statement text,
    so an exact repeat skips parsing and fingerprinting altogether.
    Hit/miss/invalidation counts surface through {!Rss.Counters} and the
    EXPLAIN output. On by default. *)

val set_plan_cache : t -> bool -> unit
(** Disabling also clears the cache. *)

val set_plan_cache_validation : t -> bool -> unit
(** Debug hook for the fuzz harness: with validation off the cache serves
    entries without checking their dependencies' stats versions, so stale
    plans survive DDL. Never disable in normal operation. *)

val plan_cache_enabled : t -> bool
val plan_cache_size : t -> int
val clear_plan_cache : t -> unit

val cached_plan : t -> string -> Optimizer.result option
(** Probe the cache for the plan this SELECT would be served (no counter
    updates; a stale entry found by the probe is evicted). [None] on miss or
    when the statement is uncacheable. *)

val wal : t -> Rss.Wal.t
(** The write-ahead log (append-only; serialize with {!Rss.Wal.to_bytes}). *)

val lock_table : t -> Rss.Lock_table.t

val in_transaction : t -> bool

type result =
  | Rows of Executor.output
  | Text of string      (** EXPLAIN output *)
  | Done of string      (** DDL/DML/transaction acknowledgement *)

exception Error of string
(** Any parse / semantic / execution failure, with a message. *)

val exec : t -> string -> result
(** Execute one SQL statement (including BEGIN / COMMIT / ROLLBACK). *)

val exec_script : t -> string -> result list
(** Semicolon-separated statements. *)

val query : t -> string -> Executor.output
(** Run a SELECT. @raise Error when the statement is not a SELECT. *)

val explain : t -> string -> string

val resolve : t -> string -> Semant.block
(** Parse and resolve a SELECT without running it. *)

val optimize : ?ctx:Ctx.t -> t -> string -> Optimizer.result
(** Parse, resolve and optimize a SELECT. *)

val run_plan : t -> Optimizer.result -> Executor.output

val update_statistics : t -> unit

(** {2 Integrity & crash recovery} *)

val check_integrity : t -> (unit, string) Stdlib.result
(** Heap/index cross-check over every relation: each index entry must resolve
    through the segment to a live tuple of the right relation whose key
    matches, and the entry multiset must equal the keys computed from a full
    heap scan. [Error msg] pinpoints the first inconsistency. Leaves the I/O
    counters untouched. *)

val recover : t -> string -> int
(** [recover t bytes] rebuilds [t]'s data from a serialized WAL
    ({!Rss.Wal.to_bytes}): committed transactions are replayed
    ({!Rss.Recovery.replay}), every relation's heap is replaced by the
    replayed tuples, and all indexes are rebuilt over the new TIDs. Any
    in-flight transaction state, locks and cached plans are discarded, and
    the WAL is reset to a single committed checkpoint transaction describing
    the recovered state. Returns the number of tuples restored. The catalog
    (schemas, indexes) is not recovered from the log — callers re-run DDL
    first; relations are matched by creation order (rel_id). *)

(** {2 Prepared statements}

    The paper's closing argument: "application programs are compiled once and
    run many times — the cost of optimization is amortized over many runs."
    A SELECT containing [?] placeholders is parsed, resolved and optimized
    once; each execution binds the placeholders. Placeholder predicates are
    sargable (the value is constant per run) and can match indexes — their
    selectivity cannot use a specific value (none is known at prepare time),
    so equal predicates estimate as the average per-value frequency
    ((1 - NULL fraction) / distinct from the histogram, else TABLE 1's
    1/ICARD) and ranges fall back to the value-independent defaults. *)

type prepared

val prepare : t -> string -> prepared
(** @raise Error on parse/resolution/optimization failure. *)

val prepared_param_count : prepared -> int
val prepared_plan : prepared -> Optimizer.result

val execute_prepared : t -> prepared -> Rel.Value.t list -> Executor.output
(** @raise Error when the binding count differs from the placeholder count. *)
