(** The simulation event queue: a binary min-heap ordered by (time, insertion
    sequence). The sequence number makes simultaneous events fire in
    insertion order, so simulations are deterministic.

    The heap is kept in parallel arrays (a [floatarray] of times, an [int
    array] of sequence numbers, and the values), so {!push}, {!min_time}
    and {!pop_min} allocate nothing once the arrays have grown to the
    queue's working size. A popped or cleared value is never retained.

    An entry may be keyed by a {e handle}, a small non-negative int:
    {!set_handle} re-keys the handle's entry in place (or queues it) and
    {!clear_handle} removes it, each in O(log n), so an event that is
    often withdrawn leaves no cancelled entry behind. The arrays that
    track handles are made by the first {!set_handle}.

    Beside the heap the queue holds one {e slot}: an event that
    {!set_slot} re-keys in O(1). The slot orders against the heap by the
    same (time, sequence) rule, and {!min_time}, {!pop_min}, {!is_empty},
    {!size} and {!reset} all count it. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> time:float -> 'a -> unit
(** Schedule [v] at [time]. Raises [Invalid_argument] if [time] is NaN. *)

val set_handle : 'a t -> int -> time:float -> 'a -> unit
(** [set_handle t h ~time v] makes [v] at [time] the entry of handle [h],
    replacing the entry [h] had, if any. It takes a fresh sequence number
    exactly as {!push} would. Raises [Invalid_argument] if [time] is NaN
    or [h] is negative. *)

val clear_handle : 'a t -> int -> unit
(** Remove handle [h]'s entry, if it has one. Takes no sequence number. *)

val set_slot : 'a t -> time:float -> 'a -> unit
(** Put [v] in the slot at [time], replacing whatever the slot held. It
    takes a fresh sequence number exactly as {!push} would, even when the
    time is unchanged. Raises [Invalid_argument] if [time] is NaN. *)

val clear_slot : 'a t -> unit
(** Empty the slot, if set. Takes no sequence number. *)

val min_time : 'a t -> float
(** The time of the earliest event. Raises [Invalid_argument] on an empty
    queue. *)

val pop_min : 'a t -> 'a
(** Remove and return the earliest event's value (read {!min_time} first
    for its time). Raises [Invalid_argument] on an empty queue. The
    engine's event loop uses this pair, which allocates no option or
    tuple per event. *)

val popped_handle : 'a t -> int
(** The handle of the entry the last {!pop_min} removed, or -1 if that
    entry had none (a {!push} or the slot). *)

val size : 'a t -> int
val is_empty : 'a t -> bool

val reset : 'a t -> unit
(** Drop every entry and restart the sequence numbers: the queue is then
    in the state {!create} leaves, except that it keeps its arrays'
    capacity (the handle arrays included, once made). *)
