(** SLD resolution with chronological backtracking.

    The sequential Prolog engine: goals are solved left-to-right, clauses
    tried in database order, bindings undone by persistence of {!Subst.t}.
    Builtins: conjunction, disjunction, if-then-else, cut, [=], [\=],
    [==], [\==], [is], arithmetic comparisons, [var]/[nonvar]/[atom]/
    [integer], negation as failure ([not/1] and [\+/1]), [call/1],
    [findall/3] and [forall/2].

    The solver counts {e inferences} (goals dispatched); the OR-parallel
    driver converts inference counts into simulated execution time, which
    is how "the execution time and control flow can vary greatly with the
    input" (section 7) becomes measurable in the simulator. *)

exception Prolog_error of string
(** Type errors, instantiation errors, unknown-predicate errors. *)

type result = {
  solutions : (int * Term.t) list list;
      (** Bindings of the query's variables, one list per solution, in
          discovery order. *)
  inferences : int;  (** Goals dispatched during the search. *)
  depth_exceeded : bool;
      (** Some path was pruned by the depth limit (so absence of solutions
          is not proof of failure). *)
}

val run :
  ?max_depth:int ->
  ?max_solutions:int ->
  ?occurs_check:bool ->
  Database.t ->
  Term.t ->
  result
(** Solve the goal against the database. [max_depth] (default 100_000)
    bounds the resolution depth; [max_solutions] (default: all) stops the
    search early. Unknown predicates raise {!Prolog_error}. *)

val query : Database.t -> string -> ((string * Term.t) list list, string) Stdlib.result
(** Parse and solve, mapping variable indices back to their source names.
    Errors (parse, type, instantiation) come back as [Error message]. *)

(** {2 Choice-point decomposition for OR-parallelism} *)

type branch = {
  branch_index : int;  (** Clause position in the database. *)
  goals : Term.t list;  (** Remaining goals after committing to the clause. *)
  subst : Subst.t;  (** Bindings from the head unification. *)
  next_var : int;  (** Variable counter after renaming apart. *)
}

val branches : Database.t -> Term.t -> branch list
(** The OR choice points of the goal's first resolution step: one branch
    per clause whose head unifies. A builtin goal yields no branches. *)

val run_branch :
  ?max_depth:int ->
  ?max_solutions:int ->
  Database.t ->
  query_vars:int list ->
  branch ->
  result
(** Continue one branch to completion, reporting bindings for
    [query_vars]. *)
