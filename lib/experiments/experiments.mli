(** The evaluation harness: one function per table/figure of the paper (and
    per ablation called out in its prose), each printing the regenerated
    rows next to the values the paper reports. See EXPERIMENTS.md for the
    experiment index and DESIGN.md for the substitutions.

    All simulated experiments are deterministic; the [real-*] ones measure
    the host and vary run to run. *)

type experiment = {
  id : string;  (** Stable identifier, e.g. ["table-4.3-pi"]. *)
  title : string;
  paper_ref : string;  (** Paper section/table the experiment regenerates. *)
  run : jobs:int -> Format.formatter -> unit;
      (** [jobs] is the domain-pool width for experiments whose trials are
          mutually independent (E7 recovery blocks, E16 replication); the
          printed tables are identical for every value. Experiments whose
          structure is inherently one simulation ignore it. *)
}

val e1_pi_table : experiment
(** Table of section 4.3: PI for six triples of alternative times at
    overhead 5 — analytic, and re-measured by racing fixed-cost
    alternatives in the simulator. *)

val e2_fork_latency : experiment
(** Section 4.4: fork() of a 320K address space on the 3B2 (~31 ms) and the
    HP 9000/350 (~12 ms), reproduced by the calibrated cost model driving a
    simulated fork. *)

val e3_page_copy_rate : experiment
(** Section 4.4: copy-on-write page-copy service rates (326 2K-pages/s on
    the 3B2, 1034 4K-pages/s on the HP), re-measured by timing a burst of
    simulated COW faults. *)

val e4_cow_fraction_sweep : experiment
(** Smith 1988 (cited in section 4.4): COW fork response time as a function
    of the fraction of the address space written by the child — the
    "important independent variable". *)

val e5_remote_fork : experiment
(** Section 4.4: rfork() of a 70K process — just under 1 s of mechanism
    time, ~1.3 s observed including network delays. *)

val e6_schemes : experiment
(** Section 4.2: schemes A (static choice), B (random selection) and C
    (concurrent, fastest-first) across workload distributions; C wins
    when dispersion is large relative to overhead. *)

val e7_recovery_blocks : experiment
(** Section 5.1 (and Kim 1984 / Welch 1983): sequential vs concurrent
    recovery blocks under increasing primary-fault probability. *)

val e8_prolog_or : experiment
(** Section 5.2: OR-parallel Prolog; sequential vs racing clause branches,
    as a function of where the succeeding clause sits in the database,
    with the read-mostly page-sharing statistics of section 7. *)

val e9_elimination : experiment
(** Section 3.2.1 ablation: synchronous vs asynchronous sibling
    elimination — execution time vs wasted work. *)

val e10_consensus : experiment
(** Section 3.2.1 ablation: local latch vs majority consensus of 3/5/7
    nodes — the performance-for-reliability trade. *)

val e11_cores : experiment
(** Section 4.2 (real vs virtual concurrency): PI of the same block as the
    number of processors varies, under egalitarian processor sharing. *)

val e12_real_machine : experiment
(** The 2026 counterpart of section 4.4, measured with real [fork] on this
    host: fork latency, COW page-copy rate, and the fraction-written
    sweep. *)

val e13_real_race : experiment
(** Fastest-first racing of real processes (the design applied on the host
    OS): measured elapsed vs the sequential sum for a skewed workload. *)

val e14_guard_placement : experiment
(** Section 3.2 ablation: where the guard is evaluated (before spawning,
    in the child, at the synchronisation point, redundantly) — setup cost
    vs wasted work when guards are selective. *)

val e15_distributed_block : experiment
(** Section 5.1.2: the same block with local COW children vs remote
    checkpoint/restart children — where shipping the computation starts to
    pay off as the alternatives grow. *)

val e16_replication : experiment
(** Section 6: replication combined with alternatives — probability of a
    correct committed result vs per-replica wrong-value fault rate, and
    the execution-time price of the replica quorums. *)

val e17_prolog_and : experiment
(** Section 5.2: AND- vs OR-parallelism on matched workloads — AND waits
    for the slowest conjunct (speedup bounded by sum/max), OR takes the
    fastest branch (sum/min): why the paper's design targets OR. *)

val all : experiment list
(** Every experiment, in presentation order. *)

val find : string -> experiment option
(** Look up by [id]. *)

val run_all : ?ids:string list -> ?jobs:int -> Format.formatter -> unit
(** Run all (or the selected) experiments, with section headers. [jobs]
    (default {!Parallel.default_jobs}) is passed to each experiment's
    per-trial fan-out; it never changes the printed tables. The experiments
    that fork real processes (E8, E12, E13) run first, since OCaml 5 forbids
    a fork once the domain pool exists; their output is buffered and
    printed in its place, so the order printed is that of [ids] (or
    {!all}). *)
