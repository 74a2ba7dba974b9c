(** Process identifiers.

    Every process in the simulated system has a unique identifier, used both
    within the system (scheduling, resource allocation) and for interaction
    with other processes (paper, section 3.4.1). Identifiers are allocated
    monotonically by an {!allocator}. *)

type t
(** A process identifier. Totally ordered, hashable, printable. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val to_int : t -> int
(** [to_int pid] is the raw integer behind [pid]; stable for a given run. *)

val of_int : int -> t
(** [of_int n] is the pid with raw value [n]. Intended for tests and for
    deserialising traces; allocation should normally go through
    {!Allocator.fresh}. *)

val pp : Format.formatter -> t -> unit
(** Prints as ["P<n>"]. *)

val to_string : t -> string

module Set : Set.S with type elt = t
module Map : Map.S with type key = t

module Allocator : sig
  type pid := t

  type t
  (** A monotone pid source. Each engine owns one so that independent
      simulations allocate identical pid sequences. *)

  val create : ?first:int -> unit -> t
  (** [create ()] starts at pid 0 (by convention the root process). *)

  val fresh : t -> pid
  (** [fresh a] returns the next unused pid. *)

  val allocated : t -> int
  (** Number of pids handed out so far. *)

  val issued : t -> pid -> bool
  (** [issued a pid]: [pid] was returned by an earlier [fresh a]. *)

  val reset : t -> unit
  (** Forget every pid handed out: the next [fresh] returns the first pid
      again, as after [create]. *)
end
