(** Process predicates (paper, sections 3.3 and 3.4.2).

    A predicate records the assumptions under which a process executes, as
    two lists of process identifiers: processes it depends on {e completing
    successfully} and processes it depends on {e not completing}. Children
    inherit the parent's predicates; each spawned alternative additionally
    assumes that it completes and that its siblings do not ("sibling rivalry
    taken to its extreme"). Messages carry the sender's predicate, and
    receipt is decided by comparing it with the receiver's. *)

type t

val empty : t
(** No assumptions: the process's effects are unconditionally observable. *)

val falsified : t
(** The one predicate no world satisfies: it assumes the never-issued pid
    -1 both completes and fails. {!Fate_registry.normalize} returns this
    very value, compared physically, for a predicate an assumption of
    which was falsified, so a dead world is told apart without a variant
    cell. It is not {!is_certain}. *)

val make : must_complete:Pid.t list -> must_fail:Pid.t list -> t
(** Raises [Invalid_argument] if the two lists intersect (a logically
    impossible predicate). *)

val must_complete : t -> Pid.Set.t
val must_fail : t -> Pid.Set.t
(** Built afresh on each call, for export (the trace's JSON). *)

val is_certain : t -> bool
(** [true] iff there are no unresolved assumptions. Only certain processes
    may interact with {e source} state (section 3.4.2). *)

val cardinal : t -> int
(** Total number of assumptions. *)

val assume_completes : t -> Pid.t -> t
(** Add the assumption that [pid] completes. Raises [Invalid_argument] if
    the predicate already assumes [pid] fails. *)

val assume_fails : t -> Pid.t -> t
(** Add the assumption that [pid] does not complete. Raises on the converse
    conflict. *)

val assume_alternative : t -> self:Pid.t -> rivals:Pid.t array -> t
(** The predicate of one alternative of a block, built in one step: [t]
    plus [self] completing plus every pid of [rivals] failing. [rivals]
    must be strictly ascending; [self], if among them, is skipped, so one
    array of a block's children serves each child. Equal to
    [assume_completes] of [self] followed by [assume_fails] of each rival
    in turn, and raises the same [Invalid_argument] on a conflicting pid;
    [rivals] out of order raises [Invalid_argument]. Allocates at most the
    two new arrays and the record. *)

val mem_completes : t -> Pid.t -> bool
val mem_fails : t -> Pid.t -> bool

val implies : t -> t -> bool
(** [implies r s]: every assumption of [s] is already an assumption of [r].
    This is the paper's "S is a subset of R" immediate-acceptance test (the
    receiver's world view already agrees with the sender's). Physically
    equal arguments and a certain [s] short-circuit; otherwise it is a
    merge walk over the sorted pids, O(|r| + |s|), allocating nothing. *)

val conflicts : t -> t -> bool
(** [conflicts r s]: some process is assumed to complete by one side and to
    fail by the other. Such a message is ignored by the receiver. A merge
    walk like {!implies}, allocating nothing. *)

val conjoin : t -> t -> t
(** Union of assumptions. Raises [Invalid_argument] if the two conflict;
    callers should test {!conflicts} first. Returns an argument itself when
    it already implies the other. *)

val equal : t -> t -> bool
(** Structural, O(k) in the number of assumptions: every route to the same
    assumptions gives an equal predicate. *)

val compare : t -> t -> int
(** Structural: lexicographic over the ascending completes, then over the
    ascending fails, a proper prefix first. This is the order
    [Pid.Set.compare] gives on the two sets, so orderings derived from it
    are schedule-deterministic. *)

(** What a receiver does with one message (section 3.4.2). *)
type receipt =
  | Accept  (** Take it as it is. *)
  | Adopt of t  (** Take it, and hold this predicate from now on. *)
  | Split of { accept : t; reject : t }
      (** Take it holding [accept]; a clone holding [reject] keeps waiting. *)
  | Ignore of string  (** Drop it: ["dead world"] or ["conflict"]. *)
  | Defer
      (** Leave it queued, and take no later message of its sender before
          it, until the sender's fate resolves. *)

val receipt : t -> sender:Pid.t -> stamp:t -> t -> cloneable:bool -> receipt
(** [receipt r ~sender ~stamp s ~cloneable]: the receipt of a message from
    [sender], stamped with [stamp], which normalises to [s], by a receiver
    holding [r]. Decided in this order, the first that applies:
    - [s] is {!falsified}: [Ignore "dead world"];
    - [stamp] assumes [sender] fails: [Ignore "conflict"], as below ([s]
      drops that assumption once [sender] is recorded failed);
    - [implies r s]: [Accept] (so a certain [stamp] is always accepted);
    - [conflicts r s], or [r] assumes [sender] fails: [Ignore
      "conflict"], since taking it means assuming [sender] completes;
    - [r] assumes [sender] completes: [Adopt (conjoin r s)];
    - [cloneable]: [Split], [accept] being [conjoin r s] plus [sender]
      completing and [reject] being [r] plus [sender] failing;
    - otherwise [Defer]. *)

type fate = Completed | Failed
(** The eventual resolution of a process. *)

type resolution =
  | Unchanged  (** The resolved pid does not occur in the predicate. *)
  | Simplified of t
      (** The assumption about the pid held, and has been removed. *)
  | Falsified
      (** The assumption about the pid was wrong: the process holding this
          predicate lives in a dead world and must be eliminated. *)

val resolve : t -> pid:Pid.t -> fate:fate -> resolution
(** Incorporate the knowledge that [pid] met [fate]: the same result as
    {!resolve_all} with a fate function that decides [pid] alone.
    [Unchanged] allocates nothing. *)

val resolve_all : t -> fate:(Pid.t -> fate option) -> resolution
(** Incorporate every known fate at once: [fate pid] is [None] while [pid]
    is undecided. [Falsified] if any assumption is contradicted; otherwise
    every decided pid is removed in one pass that builds one filtered
    array per side that changed. The result equals folding {!resolve} over
    each decided pid of the predicate, in any order: a [Simplified] value
    is {!equal} to the predicate that fold would reach. [Unchanged] means
    no pid of the predicate is decided, and allocates nothing. *)

val pp : Format.formatter -> t -> unit
(** Prints as [{+P1 +P2 -P3}] ([+] must complete, [-] must fail). *)

val to_string : t -> string
