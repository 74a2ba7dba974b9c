(** Parser for Prolog programs and queries.

    Recursive descent with precedence climbing over a conventional operator
    table ([;] 1100 xfy, [,] 1000 xfy, comparisons/[is]/[=] 700 xfx, [+ -]
    500 yfx, [* / mod] 400 yfx, unary [-] 200). Variables are numbered from
    0 within each clause or query, ['_'] is fresh at each occurrence. *)

type clause = { head : Term.t; body : Term.t option }
(** [body = None] is a fact; otherwise the body is a (possibly nested [','])
    conjunction term. *)

type item =
  | Clause of clause
  | Query of Term.t  (** A [?- Goal.] directive. *)

exception Parse_error of string

val program : string -> item list
(** Parse a whole program text. Raises {!Parse_error} (with position
    context) or {!Lexer.Lex_error}. *)

val query : string -> Term.t * (int * string) list
(** Parse one goal (with or without a leading [?-] and trailing [.]);
    returns the goal and the (index, source name) pairs of its variables,
    for printing answers. *)
