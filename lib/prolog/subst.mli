(** Substitutions: persistent maps from variable indices to terms.

    Bindings are {e triangular}: a bound term may itself contain bound
    variables, so observation goes through {!walk} (one step) or {!resolve}
    (deep). Persistence is what makes backtracking (and OR-parallel
    branching) a matter of keeping the old value — no trail needed. *)

type t

val empty : t

val bind : t -> int -> Term.t -> t
(** Add a binding. Raises [Invalid_argument] if the variable is already
    bound (unification only binds free variables). *)

val walk : t -> Term.t -> Term.t
(** Dereference a chain of variable bindings until reaching a non-variable
    or an unbound variable. *)

val resolve : t -> Term.t -> Term.t
(** Deep application: replace every bound variable in the term, recursively.
    The result contains only unbound variables. *)

val restrict : t -> vars:int list -> (int * Term.t) list
(** The answer bindings for the given (query) variables, resolved deep, in
    the order given. Unbound variables are omitted. *)
