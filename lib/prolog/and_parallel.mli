(** AND-parallelism, for contrast with OR-parallelism (paper, section 5.2).

    "The idea with AND-parallelism is that if we have a situation where
    goals A and B must be satisfied, we can pursue the satisfaction of A
    and B in parallel." The paper judges OR-parallelism "more interesting"
    for its design because OR branches are mutually exclusive — one wins,
    no merging — whereas AND conjuncts must {e all} succeed and their
    bindings must be combined.

    This module implements {e independent} AND-parallelism: the conjuncts
    of a goal are grouped by shared variables; variable-disjoint groups are
    solved in parallel and their first solutions concatenated (disjointness
    makes the merge trivial — the general case would need the
    binding-merge machinery the paper's design avoids). The elapsed time is
    the {e maximum} over groups, not the minimum: there is no fastest-first
    selection and no sibling elimination, which is precisely the structural
    difference from OR-parallelism that the experiments expose. *)

type report = {
  solution : (int * Term.t) list option;
      (** Combined first-solution bindings of the goal's variables, or
          [None] if some group has no solution. *)
  groups : int;
      (** Independent groups found: the conjuncts partitioned into maximal
          groups connected by shared variables, directly or
          transitively. *)
  group_inferences : int array;  (** Work per group. *)
  seq_inferences : int;  (** Sequential resolution to the first solution. *)
  seq_time : float;
  par_time : float;  (** Simulated: all groups must finish. *)
  speedup : float;
}

val solve_sim :
  ?cores:Engine.cores ->
  ?inference_cost:float ->
  Database.t ->
  Term.t ->
  report
(** Solve the conjunction with independent AND-parallelism in a fresh
    simulation engine. A goal whose conjuncts all share variables yields a
    single group: the execution degenerates to the sequential one (plus
    spawn overhead), reported honestly. *)
