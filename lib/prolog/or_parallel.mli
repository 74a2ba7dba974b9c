(** OR-parallel execution of Prolog choice points (paper, section 5.2).

    "More appropriate is rule-level parallelism ... OR-parallelism is more
    interesting to us, since it maps closely to our problem of attempting
    alternatives in parallel. The alternatives here are specialized to
    predicates." Each clause whose head unifies with the goal becomes one
    alternative of a block; the first branch to deliver a solution wins and
    its siblings are eliminated. "What our method does is copy, and since
    we choose only one alternative, no merging is necessary."

    Two drivers are provided: a simulated one, where branch work is charged
    to the virtual clock at a configurable cost per logical inference and
    binding updates exercise the copy-on-write pages; and a real one, where
    branches race as forked OS processes via {!Fork_race}. *)

type sim_report = {
  first_solution : (int * Term.t) list option;
      (** Bindings of the goal's variables for the winning branch's first
          solution; [None] if every branch failed. *)
  winner_branch : int option;  (** Clause index of the winner. *)
  branch_inferences : int array;  (** Work available in each branch. *)
  seq_inferences : int;
      (** Inferences a sequential engine spends reaching the first solution
          (clause order, including failed prefixes). *)
  seq_time : float;  (** [seq_inferences * inference_cost]. *)
  par_time : float;  (** Simulated elapsed time of the racing block. *)
  speedup : float;  (** [seq_time / par_time]. *)
  cow_copies : int;  (** Pages privatised by branch binding writes. *)
  wasted_cpu : float;  (** CPU burnt by eliminated branches. *)
}

val solve_sim :
  ?model:Cost_model.t ->
  ?cores:Engine.cores ->
  ?policy:Concurrent.policy ->
  ?exclusive:bool ->
  ?inference_cost:float ->
  ?heap_bytes:int ->
  ?seed:int ->
  Database.t ->
  Term.t ->
  sim_report
(** Race the goal's OR branches in a fresh simulation engine.
    [inference_cost] (default 1e-4 s) converts logical inferences to
    virtual CPU time; [heap_bytes] (default 256 KiB) sizes the parent
    process image whose pages the branches share copy-on-write; each
    branch write-touches a stack/trail-like region proportional to its
    inference count (high locality, as section 7 argues).

    [exclusive] is passed through to {!Concurrent.run_toplevel}: under a
    [Consensus] policy it elides the voter group when the branches have
    been {e proven} mutually exclusive. It is deliberately a parameter —
    set it only on an [Independent] verdict of [Lint.check_goal db goal]
    (the lint library sits above this one); never assert it by hand. *)

type real_report = {
  value : (int * Term.t) list option;
  winner : int option;
  elapsed_parallel : float;  (** Wall-clock seconds for the forked race. *)
  elapsed_sequential : float;  (** Wall-clock seconds, clause order. *)
}

val solve_real : ?timeout:float -> Database.t -> Term.t -> real_report
(** Race the branches as real forked processes and also time the
    sequential resolution, for the modern-hardware comparison. *)
