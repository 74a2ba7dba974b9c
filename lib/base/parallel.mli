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

    Determinism contract: {!map_indexed_shared} returns results in index
    order, bit-identical to the sequential [Array.init n f], whatever the
    number of workers or the scheduling. Jobs must therefore be
    self-contained: they may not share mutable state with each other
    (each invariant-sweep cell owns its engine, frame store, trace and
    RNG — see DESIGN.md, "Why domain parallelism is safe"). *)

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
