(** The simulation event queue: a binary min-heap ordered by (time, insertion
    sequence). The sequence number makes simultaneous events fire in
    insertion order, so simulations are deterministic. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> time:float -> 'a -> unit
(** Schedule [v] at [time]. Raises [Invalid_argument] if [time] is NaN. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the earliest event. *)

val peek_time : 'a t -> float option

val stamp : 'a t -> int
(** The sequence number the next {!push} will receive. Two observations of
    [stamp] are equal iff nothing was pushed in between, which is what the
    engine's channel layer uses to decide whether a message may join an
    already-scheduled delivery batch without reordering it against
    intervening events. *)

val size : 'a t -> int
val is_empty : 'a t -> bool

val clear : 'a t -> unit
