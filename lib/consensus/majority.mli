(** A fault-tolerant 0-1 semaphore by majority consensus.

    Section 3.2.1: the at-most-once synchronisation of an alternative block
    must not become a single point of failure, so "the synchronization is
    set up as a majority consensus decision across several nodes" (after
    Thomas 1979). Each voter node grants its vote to at most one requester;
    a requester that collects a strict majority of grants owns the
    semaphore. Crashed voters never reply; requesters use reply timeouts,
    so any [f < n/2] crash faults are survived. The price is the extra
    message rounds — the performance/reliability trade-off the paper calls
    out, measured by experiment E10. *)

type t

val create :
  Engine.t ->
  nodes:int ->
  ?crashed:int list ->
  ?vote_delay:float ->
  ?sites:string list ->
  unit ->
  t
(** Spawn [nodes] voter processes, each an {!Engine.spawn_service}.
    Voters whose index (0-based) appears in [crashed] are spawned dead:
    they receive requests and never answer.
    [vote_delay] (default 0) is per-vote processing time at each live
    voter. [sites] (default none) spreads the voters round-robin across the
    given site names as each voter's explicit site
    ({!Engine.spawn_process}'s [site]), so that no single site
    hosts a majority whenever [nodes > length sites >= 2]. Raises
    [Invalid_argument] if [nodes < 1] or [nodes > 62]: a round tallies
    its replies in a bitmask over the voters. *)

val node_pids : t -> Pid.t array
(** The voters' pids, ascending by voter index. *)

(** How an acquisition round ended. [Denied] is {e final}: enough voters
    explicitly denied that a majority is impossible, and since grants are
    permanent a retry cannot change the answer. [No_quorum] is {e
    undecided}: too few voters were reachable before the reply timeout —
    the only verdict worth retrying. *)
type verdict = Granted | Denied | No_quorum

val acquire_retry :
  Engine.ctx ->
  t ->
  ?epoch:int ->
  ?deadline:float ->
  reply_timeout:float ->
  ?retries:int ->
  ?backoff:float ->
  unit ->
  verdict
(** Attempt to acquire the semaphore on behalf of the calling process, as
    block incarnation [epoch] (default 0). Each {e round} sends a vote
    request to every voter and collects replies until the outcome is
    decided (majority of grants, majority arithmetically denied, or
    per-reply timeout). At most one caller ever gets [Granted];
    re-acquiring after owning returns [Granted] again (votes are
    idempotent per requester).

    Requests and replies carry a round id in their payload, replies left
    queued by an earlier timed-out round are drained on entry and
    discarded if they race the drain, and only the current round's
    replies are tallied — at most one reply per voter (duplicates, e.g.
    injected ones, are ignored). A round that ended [No_quorum] is
    therefore safe to retry — stale grants cannot be double-counted into
    a majority (after the abortable-mutex discipline of Jayanti &
    Jayanti 2018).

    Epoch 0 sends the original one-field request payload (executions
    without recovery are byte-identical to before); epoch [e >= 1] rides
    in the payload and is checked against each voter's {e floor}: a
    request below the floor is denied, a request above it raises it, and
    a grant held at a below-floor epoch is void — the slot is
    reassignable to the current incarnation. See {!fence}.

    Up to [retries] (default 0) additional rounds follow a [No_quorum],
    separated by exponential backoff: before retry [k] (0-based) the
    caller delays [backoff * 2{^k}] seconds of virtual time (default
    [backoff] 0.01; pass [0.] for immediate retries). [Granted] and
    [Denied] return immediately — only an undecided round retries.
    Deterministic: backoff burns virtual time through {!Engine.delay}, so
    identical seeds replay identical schedules.

    [deadline] (absolute virtual time, default [infinity]) bounds the
    retry budget by the {e request's} remaining budget, not just the
    block's: a retry whose backoff plus full reply wait would end past
    the deadline is not attempted — [No_quorum] is returned instead, so
    a deadline-bound caller is never left mid-round when its budget
    expires. The serving layer threads each request's deadline down
    here; see [Concurrent.run]'s [?deadline]. *)

val owner : t -> Pid.t option
(** The requester that a majority of voters granted, if decided and
    observable from the voters' grant records (test helper; the protocol
    itself only uses messages). *)

val fence : t -> epoch:int -> unit
(** Raise every voter's epoch floor to at least [epoch]: requests from
    incarnations below it are denied from now on, and their existing
    grants become void (reassignable). The coordinator watchdog calls this
    before restarting a block, so the dead incarnation's orphans can
    neither win late nor block the successor. Floors only ever rise;
    fencing to a lower epoch than the current floor is a no-op. This
    touches voter state directly (a simulator shortcut for an
    acknowledged fencing round; deterministic either way). *)

val shutdown : t -> unit
(** Kill the voter processes (end of the alternative block). *)

val messages_sent : t -> int
(** Total protocol messages (requests + replies) handled by live voters,
    for the overhead experiment. *)
