(** A receiver's ring-buffer mailbox of immutable messages.

    Entries are addressed by absolute monotone positions that survive
    growth and removal: position [p] lives in physical slot
    [p land (n - 1)] of a slot array whose length [n] is a power of two,
    grown by quadrupling when full. Removing from
    the middle tombstones the entry in place; the head advances only over
    leading tombstones.

    A slot holds the sent {!Message.t} itself. Messages are immutable, so
    the copies of one send (one per world copy of the receiver, two for an
    injected duplicate) share a single value: consuming one copy cannot
    disturb another, and a world split recognises every copy of the
    accepted send by physical identity. The ring grows rather than
    blocks: sends are asynchronous. *)

type t

type cursor = { ctag : string; mutable cpos : int }
(** A per-tag scan cursor: every position before [cpos] is guaranteed to
    hold no live entry with tag [ctag], so tag-filtered receives can
    skip foreign traffic once instead of rescanning it on every poll.
    Cursors are lower bounds only — correctness never depends on them. *)

val create : unit -> t

val none : t
(** An empty ring that is never written: a process holds it until its
    first delivery, so a process that receives nothing builds no ring.
    Compare physically, and {!create} a ring before the first {!push}. *)

val length : t -> int
(** Number of live entries. *)

val is_empty : t -> bool

val head_pos : t -> int
(** First absolute position that may hold a live entry. *)

val tail_pos : t -> int
(** One past the newest absolute position. *)

val push : t -> Message.t -> unit
(** Append an entry at [tail_pos]. *)

val no_message : Message.t
(** A distinguished message value that is never a real entry: what
    {!message_at} returns for a tombstone, and the "no acceptable
    message" sentinel the receive fast path returns instead of
    allocating an option. Compared physically. *)

val message_at : t -> int -> Message.t
(** The entry at a position in [\[head_pos, tail_pos)], or {!no_message}
    if that position is a tombstone. *)

val remove : t -> int -> unit
(** Tombstone the entry at an absolute position; the head advances past
    any leading tombstones. No-op on an already empty slot. *)

val cursor : t -> string -> cursor
(** The ring's cursor for [tag], created at the current head on first
    use. *)

val no_cursor : cursor
(** A distinguished cursor that belongs to no ring: what an untagged
    receive scan carries instead of an option. Compared physically; it
    must never be written. *)

val copy_excluding : t -> msg:Message.t -> t
(** A fresh ring holding every live entry, in order, except those
    physically equal to [msg] — the accepted send, with its injected
    duplicate if there is one. Used when a world split clones a receiver
    minus the message being accepted. *)
