(** Vector clocks for the online sanitizer.

    A clock maps process ids to positive event counts. It is immutable:
    every operation that changes a count returns a fresh clock, so a
    snapshot taken at a send or a page write never moves. The
    representation is one flat, sorted int array, so the sanitizer's
    per-event [join] and [leq] are merge walks over a handful of ints
    rather than tree operations. *)

type t

val empty : t
(** The clock that knows no process: every component is 0. *)

val is_empty : t -> bool

val singleton : Pid.t -> t
(** [singleton p] knows [p]'s first event only. *)

val tick : t -> Pid.t -> t
(** [tick c p] is [c] with [p]'s count one higher. *)

val join : t -> t -> t
(** The component-wise maximum. Returns one of its arguments when that
    argument already dominates the other. *)

val join_tick : t -> t -> Pid.t -> t
(** [join_tick a b p] is [tick (join a b) p], built in one array. *)

val leq : t -> t -> bool
(** [leq a b]: every component of [a] is known to [b] — the event that
    took [a] happens-before the holder of [b]. *)

val to_list : t -> (Pid.t * int) list
(** The components in increasing pid order. *)
