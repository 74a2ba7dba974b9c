(** Vector clocks for the online sanitizer.

    A clock maps process ids to positive event counts. It is mutable and
    keeps its capacity: {!tick} and the joins write into the clock they
    are given and allocate only when it outgrows its array, so the
    sanitizer's per-event work allocates nothing in steady state. What
    must not move when the clock does is a {!snapshot}: an exact-size
    copy that no operation writes into. The representation is one flat
    array of [(pid, count)] pairs sorted by pid, so a join is a merge
    walk over a handful of ints rather than a tree operation. *)

type t

type snapshot
(** A clock's components at one instant, never changed afterwards. *)

val create : unit -> t
(** A fresh clock that knows no process: every component is 0. *)

val no_snapshot : snapshot
(** The snapshot of a clock that knows no process. *)

val get : t -> Pid.t -> int
(** [get c p] is [p]'s count in [c], 0 if [c] does not know [p]. *)

val tick : t -> Pid.t -> unit
(** [tick c p] raises [p]'s count in [c] by one, in place. *)

val join_tick : t -> t -> Pid.t -> unit
(** [join_tick c d p] sets [c] to the component-wise maximum of [c] and
    [d], then ticks [p] in it, in place. [d] is unchanged and must not
    be [c]. *)

val join_snapshot_tick : t -> snapshot -> Pid.t -> unit
(** [join_snapshot_tick c s p] is {!join_tick} with a snapshot. *)

val clear : t -> unit
(** [clear c] makes [c] know no process, keeping its capacity. *)

val snapshot : t -> snapshot
(** [c]'s components now, in one exact-size copy. *)

val to_list : t -> (Pid.t * int) list
(** The components in increasing pid order. *)

val snapshot_to_list : snapshot -> (Pid.t * int) list
