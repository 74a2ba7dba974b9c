(** Prolog terms.

    Variables are integers (renamed apart per clause activation); lists use
    the classical ['.'/2] cons with the [[]] atom. *)

type t =
  | Var of int
  | Atom of string
  | Int of int
  | Compound of string * t array

val compound : string -> t list -> t
(** [compound f []] collapses to [Atom f]. *)

val nil : t
val cons : t -> t -> t
val of_list : t list -> t
(** A proper Prolog list. *)

val functor_of : t -> (string * int) option
(** Name and arity of an atom or compound; [None] for variables and
    integers. *)

val equal : t -> t -> bool

val vars : t -> int list
(** Distinct variables in first-occurrence order. *)

val max_var : t -> int
(** Largest variable index occurring, or [-1]. *)

val rename : offset:int -> t -> t
(** Shift every variable index by [offset] (renaming apart). *)

val to_string : t -> string
(** Conventional syntax: lists bracketed, operators infix where readable,
    variables as [_0], [_1], .... *)
