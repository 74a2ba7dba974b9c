(** The online sanitizer (altsan).

    A streaming monitor that consumes the engine's trace events, page
    writes, and source emissions {e as they happen}, with state bounded by
    the live working set (processes, in-flight messages, live maps and
    frames) rather than by run length — so it can watch executions whose
    trace recording is switched off entirely, and whose spaces keep no
    write log. A block leaves the state as it found it once its processes
    have exited, {!next_block} has closed it and its spaces are released. Violations are flagged at
    the exact virtual time and pid of the offence and additionally traced
    as {!Trace.Sanitizer_flag} breadcrumbs.

    The streaming checks are {e sound subsets} of the post-mortem checker
    classes: a sanitizer flag of class [c] implies the post-mortem checker
    for [c] finds a violation on the same run. {!crosscheck} audits
    exactly that relation (plus completeness on the checks where both
    monitors test the same predicate) and reports divergence under
    {!Report.Sanitizer} — the two monitors disagreeing is itself a
    finding, with its own exit code.

    Checks performed online:

    - {b at-most-once}: duplicate latch wins (a win in an epoch a later
      recovery fenced is void and not counted), per-epoch double wins, wins
      after degradation or by fenced-off stale epochs, win+late and
      duplicate-late anomalies — flagged at the [Sync_won]/[Sync_late]
      event itself;
    - {b world}: acceptance of a message whose predicate conflicts with
      the acceptor's world — flagged at the [Accepted] event;
    - {b isolation}: two processes writing the same physical frame without
      a happens-before edge between the writes (vector clocks over
      spawn/send/accept/absorb), and any write to a deliberately shared
      address space with two live registrants — flagged at the write;
    - {b sources}: a line reaching a source device while its writer is
      speculative — flagged at emission time (requires
      {!observe_source}). *)

type t

type flag = {
  sf_time : float;  (** Virtual time of the offence. *)
  sf_class : Report.check_class;
  sf_pid : Pid.t option;  (** The process caught in the act. *)
  sf_detail : string;
}

val kinds : Trace.mask
(** The trace kinds the sanitizer reads: [Spawned], [Sent], [Accepted],
    [Ignored], [Injected], [Absorbed], [Sync_won], [Sync_late],
    [Degraded], [Recovered], [Exited] and [Killed]. A sanitized engine
    with recording off builds no other kind. *)

val attach : Engine.t -> t
(** Install the sanitizer on an engine: subscribes to {!kinds}
    ({!Trace.subscribe}) and claims the frame store's observer
    ({!Frame_store.set_observer}). Must be called before the monitored
    processes are spawned. One sanitizer per engine. *)

val detach : t -> unit
(** Unsubscribe and release the frame store's observer. The accumulated
    flags remain readable. *)

val next_block : t -> unit
(** Close the current alternative block's at-most-once scope: the win /
    late / epoch tallies, degradation latch and recovery fence reset so
    the next block's legal [Sync_won] is not mistaken for a duplicate
    win of the previous one. Happens-before state (vector clocks, frame
    ownership, in-flight message snapshots) and accumulated flags
    survive, except the snapshots of messages no live process can receive
    any more, which are dropped here. The serving layer calls this
    between the jobs of a shared batch engine; single-block runs never
    need it. *)

val observe_source : t -> Source.t -> unit
(** Watch a source device for uncertain emissions (claims the device's
    emission hook). *)

val flags : t -> flag list
(** Everything flagged so far, oldest first. *)

val flag_count : t -> int

val state_size : t -> int
(** Total entries across the sanitizer's tables — what the boundedness
    regressions assert stays O(live working set) on long runs, and returns
    to its value before a block once the block is over. *)

val violations :
  t -> scenario:string -> policy:string -> seed:int -> Report.violation list
(** The flags as {!Report.violation}s (class preserved, detail prefixed
    with the [t=...] / [pid=...] coordinates). *)

val crosscheck :
  t ->
  oracle:Report.violation list ->
  scenario:string -> policy:string -> seed:int ->
  Report.violation list
(** Compare the sanitizer's verdict against the post-mortem [oracle]
    violations for the same run. Returns divergence findings (class
    {!Report.Sanitizer}) only — an empty list means the two monitors
    agree, so adding the result to a clean report leaves it
    byte-identical. *)
