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
