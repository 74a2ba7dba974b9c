(** Unification — "a sophisticated pattern matcher" (paper, section 7).

    Standard structural unification over {!Subst.t}. The occurs check is
    optional (off by default, as in most Prolog systems) but available for
    the property tests, which verify soundness of produced unifiers. *)

val unify : ?occurs_check:bool -> Subst.t -> Term.t -> Term.t -> Subst.t option
(** [unify s a b] extends [s] to a substitution under which [a] and [b] are
    equal, or returns [None]. *)

