(** Message payloads.

    A closed data vocabulary rather than arbitrary OCaml values: payloads
    must be comparable (for tests), printable (for traces), and sizeable
    (message cost in the cost model depends on payload bytes). Keeping the
    type closed is also what makes the runtime's deterministic-replay
    cloning of receivers sound — logged receive results are plain data.
    Payloads are immutable, so a payload is frozen the moment it is sent:
    every receiver of a message shares the sender's value. *)

type t =
  | Unit
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Pair of t * t
  | List of t list

val size_bytes : t -> int
(** Wire-size estimate, which the model prices per byte. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** A convenience constructor and partial projection (raising
    [Invalid_argument] on shape mismatch, for use in examples where the
    protocol fixes the shape). *)

val int : int -> t
val get_int : t -> int
