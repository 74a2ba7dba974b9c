(** The system-wide record of process fates.

    Predicates mention process identifiers; "we can update the value of
    these elements as processes change status" (section 3.3). The registry
    is where those status changes are recorded, so that predicates can be
    simplified lazily, and processes whose assumptions were falsified can be
    found and eliminated.

    Pids are the small dense integers an engine's {!Pid.Allocator} hands
    out, so fates are stored one byte per pid, in an array that grows to
    the largest pid recorded. *)

type t

val create : unit -> t

val fate : t -> Pid.t -> Predicate.fate option
(** [None] while the process is still undecided. *)

val record : t -> Pid.t -> Predicate.fate -> unit
(** Record a fate. Recording the same fate twice is a no-op; recording a
    {e different} fate for an already-decided pid raises [Invalid_argument]
    — fates are immutable, which is what makes the at-most-once
    synchronisation sound. A negative pid raises [Invalid_argument]. *)

val normalize : t -> Predicate.t -> Predicate.t
(** Simplify a predicate against every fate known to the registry, in one
    pass that builds at most one residue ({!Predicate.resolve_all}), and
    nothing else. {!Predicate.falsified} (physically) means some
    assumption was falsified: the holder's world no longer exists.
    Otherwise the result is the residual (possibly empty) predicate; it is
    the argument itself when no pid of it is decided. *)

val resolution : t -> pid:Pid.t -> Predicate.t -> [ `Certain | `Dead | `Pending ]
(** What is decided about the world of [pid], which holds [pred]: its
    recorded fate ([`Certain] if completed, [`Dead] if failed), or else
    whether [pred] normalises to {!Predicate.falsified} or to an empty residue
    ([`Certain]). A certain or wholly undecided [pred] allocates nothing. *)

val decided : t -> int
(** Number of pids with a recorded fate. *)

val reset : t -> unit
(** Forget every recorded fate, as {!create} would leave the registry,
    keeping the table's capacity. Only the bytes up to the largest pid
    ever recorded are cleared. *)
