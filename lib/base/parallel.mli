(** A process-wide pool of OCaml 5 domains for embarrassingly parallel
    sweeps.

    The verification and evaluation harnesses run hundreds of mutually
    independent simulations (one {e engine} per cell of a scenario x
    policy x seed matrix), and the serving layer runs one engine per
    batch. Each run builds all of its state from scratch, so the only
    coordination needed is job dispatch and result collection — exactly
    what this module provides, with no dependencies beyond the standard
    library ([Domain], [Mutex], [Condition]). This is where the
    repository's real multicore parallelism lives: one engine's events
    run in a single total order, so independent runs are the unit of
    parallel work.

    Both entry points run through the one work loop of the pool: items
    emitted by the caller, claimed and run by any of the pool's domains
    (the caller's among them), their outcomes consumed by the caller in
    emission order.

    Determinism contract: {!map_indexed_shared} returns results in index
    order, bit-identical to the sequential [Array.init n f], and
    {!pipeline_shared} hands [consume] every item in emission order,
    whatever the number of workers or the scheduling. Items must
    therefore be self-contained: they may not share mutable state with
    each other (each invariant-sweep cell owns its engine, frame store,
    trace and RNG — see DESIGN.md, "Why domain parallelism is safe"). *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]: one worker per available
    core. *)

val map_indexed_shared : jobs:int -> (int -> 'a) -> int -> 'a array
(** [map_indexed_shared ~jobs f n] evaluates [f 0 .. f (n-1)] and
    returns [[| f 0; ...; f (n-1) |]] in index order.

    With [jobs > 1] and [n > 1] the jobs run on a process-wide pool of
    [jobs] domains (the calling domain is one of them), created on first
    use and reused by every later call; asking for a different [jobs]
    shuts it down and recreates it (rare: worker counts are per-run
    constants). [jobs:1] is exactly the sequential loop, in ascending
    index order, with no domains spawned.

    If one or more jobs raise, every remaining job still runs, and the
    exception of the {e lowest-indexed} failing job is re-raised in the
    caller, so a raising job never wedges or poisons the pool. Calls
    from different domains serialise; it is not re-entrant from inside a
    job. Raises [Invalid_argument] if [jobs < 1] or [n < 0]. *)

val pipeline_shared :
  jobs:int ->
  produce:(emit:('a -> unit) -> unit) ->
  work:('a -> 'b) ->
  consume:('a -> 'b -> unit) ->
  unit
(** [pipeline_shared ~jobs ~produce ~work ~consume] runs [produce ~emit]
    on the calling domain; each item [x] it passes to [emit] is run as
    [work x] on the pool, and [consume x (work x)] runs on the calling
    domain, in emission order. It returns once [produce] has returned
    and every emitted item is consumed.

    At most [4 * jobs] items are emitted and not yet consumed at any
    time: an [emit] into a full window makes room by consuming the
    oldest item if it has finished, or by running an unclaimed item
    itself, and otherwise waits for a worker. So an item and its result
    are garbage a bounded number of items after it was emitted, however
    long the stream. The window is a constant of [jobs]: it decides
    where the caller waits, never what [consume] sees.

    With [jobs > 1] the items run on the shared pool of
    {!map_indexed_shared}. [jobs:1] is exactly the sequential loop:
    [emit x] is [consume x (work x)], with no domain spawned, and an
    exception escapes at once through [produce].

    With [jobs > 1], if an item or a [consume] raises, nothing later is
    consumed, every emitted item still runs, and the first failure in
    emission order is re-raised once the stream has drained; if
    [produce] raises, the emitted items drain and, unless one of them
    failed, its exception is re-raised. Either way the pool serves the
    next call. [emit] may only be called from [produce]. Calls from
    different domains serialise; it is not re-entrant from inside
    [work]. Raises [Invalid_argument] if [jobs < 1]. *)
