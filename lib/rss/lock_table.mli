(** Lock manager.

    The RSS is responsible for locking in a multi-user environment. We
    implement hierarchical S/X locking at relation and tuple granularity with
    wait-for-graph deadlock detection. The engine is single-threaded, so a
    conflicting request does not literally block: it is queued and reported,
    and queued requests are granted as releases make them compatible. *)

type txn = int

type resource =
  | Relation of int
  | Tuple_of of int * Tid.t  (** relation id, tuple id *)

type mode = Shared | Exclusive

type outcome =
  | Granted
  | Blocked of txn list  (** transactions currently holding conflicting locks *)
  | Deadlock of txn list (** the wait-for cycle that granting would create *)

type t

val create : unit -> t

val acquire : t -> txn -> resource -> mode -> outcome
(** Re-acquiring a held lock is granted; a Shared→Exclusive upgrade is
    granted only when no other holder exists {e and} the queue is empty —
    an upgrade never jumps an already-queued request. Waits-for edges
    cover conflicting holders and queued requests alike, so an upgrade
    that would mutually wait with a queued Exclusive (or with another
    upgrading Shared holder) reports [Deadlock] immediately. A [Blocked]
    request is queued. *)

val release_all : t -> txn -> unit
(** Release every lock of the transaction (two-phase commit point) and grant
    any queued requests that became compatible, in arrival order. Costs
    O(resources the transaction held or waited on); an entry left with no
    holder and no waiter is dropped. *)

val size : t -> int
(** Resources with a holder or a waiter. *)

val holds : t -> txn -> resource -> mode -> bool

val holders : t -> resource -> (txn * mode) list
val waiting : t -> resource -> (txn * mode) list
val granted_since : t -> txn -> (txn * resource * mode) list
(** Requests of other transactions granted by this transaction's last
    [release_all] (so a test harness can resume them). *)
