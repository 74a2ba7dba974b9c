(** The clause database: "a database of predicate values and rules is used
    to construct a set of dependency relations" (paper, section 5.2).

    Clauses are stored under their head functor (first-argument indexing is
    deliberately absent: clause-order scanning is what creates the OR
    choice points the paper parallelises). Stored clauses are normalised so
    their variables start at 0; activation renames them apart. *)

type t

val create : unit -> t

val add_program : t -> string -> Term.t list
(** Parse and add every clause of the text, appending each to its
    predicate (assertz order); returns the goals of any [?-]/[:-]
    directives encountered (in order) without running them. Raises
    [Invalid_argument] on a clause whose head is a variable or an
    integer. *)

val clauses : t -> name:string -> arity:int -> Parser.clause list
(** Matching clauses in assertion order; [] for unknown predicates. *)

val with_prelude : unit -> t
(** A database preloaded with a small standard library: [append/3],
    [member/2], [length/2], [reverse/2], [between/3], [last/2], [nth0/3],
    [select/3]. *)
