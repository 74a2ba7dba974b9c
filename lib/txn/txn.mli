(** Optimistic transactions over the paged store.

    Section 3.1 grounds the paper's side-effect handling in transactions:
    "writes ... must be done to a temporary copy until the transaction
    commits ... Reads intended for the recently written copy are satisfied
    by that copy so that the transaction is internally consistent." And
    section 6 observes that an alternative block "could also be viewed as a
    set of competing transactions, at most one of which will take effect."

    This module supplies both views:

    - {!with_txn}/{!read}/{!write}: optimistic concurrency control in the
      style the paper cites (Kung and Robinson 1981). A transaction works
      against a copy-on-write {e snapshot} of the
      committed store; at commit, its read set is validated against the
      versions committed meanwhile, and its write set is applied atomically
      or the transaction aborts with a {!conflict}.
    - {!race}: a group of {e competing} transactions executed as an
      alternative block — the at-most-once synchronisation arbitrates which
      single transaction commits; the rest are aborted unseen.

    All costs (snapshot forks, copy-on-write faults, write-back) are
    charged to the simulated clock through the usual page machinery. *)

type store
(** A database: fixed-width integer records over an address space, with a
    per-record version counter for validation. *)

val create_store : Engine.t -> records:int -> store
(** A store of [records] records, all initially 0. *)

val get : store -> key:int -> int
(** Committed value of a record (test/inspection access, no transaction). *)

val commits : store -> int
(** Successful commits so far. *)

type t
(** An in-flight transaction. *)

type conflict = {
  key : int;  (** The record whose validation failed. *)
  read_version : int;  (** Version when this transaction first read it. *)
  committed_version : int;  (** Version now. *)
}

val read : Engine.ctx -> t -> key:int -> int
(** Read through the snapshot: sees the store as of the transaction's
    start, plus its own writes. Records the version for validation. Raises
    [Invalid_argument] on a bad key or a finished transaction. *)

val write : Engine.ctx -> t -> key:int -> int -> unit
(** Write to the private copy (a COW fault on first touch of a page). *)

val with_txn :
  Engine.ctx -> store -> ?retries:int -> (Engine.ctx -> t -> 'a) -> ('a, conflict) result
(** Run [f] in a fresh transaction (a private snapshot of the committed
    space, charged as a COW fork) and commit: validate the read set
    against the store's current versions and, on success, apply the write
    set to the committed store. On conflict, retry from a fresh snapshot
    up to [retries] (default 3) more times, then return the conflict. If
    [f] raises, the transaction is discarded and the exception re-raised.
    Either way the transaction is finished afterwards. The body must
    confine its store access to this transaction. *)

(** {2 Competing transactions (section 6)} *)

type 'a competitor = {
  name : string;
  work : Engine.ctx -> t -> 'a;
      (** One way of effecting the state change. Runs in its own process
          with its own transaction; may raise {!Alternative.Failed}. *)
}

val race :
  Engine.ctx ->
  ?policy:Concurrent.policy ->
  store ->
  'a competitor list ->
  'a Alt_block.outcome
(** Execute the competitors as an alternative block: each runs its [work]
    speculatively against its own snapshot; the fastest to finish wins the
    synchronisation, and {e only the winner's transaction commits} (in the
    caller's process, validated as usual; if an outside commit interfered,
    the winner's work is re-run transactionally). Losing competitors'
    transactions are aborted — their effects are never observable. *)
