(** A ring-buffer mailbox with a bounded pool of preallocated frames.

    Serves both as a receiver's mailbox and as a per-channel outbox.
    Entries are addressed by absolute monotone positions that survive
    growth and removal: position [p] lives in physical slot
    [p land (slot_count - 1)] of the power-of-two position arrays.
    Removing from the middle tombstones the entry in place; the head
    advances only over leading tombstones.

    Each entry is either {e framed} — serialised in place into one of at
    most [capacity] pooled, recycled frames (the alloc-free fast path) —
    or {e spilled} — held as a plain immutable {!Message.t} when the
    pool is exhausted by a burst deeper than the ring. Overflow spills
    rather than blocks: sends are asynchronous, so the ring degrades to
    exactly the heap cost of the pre-ring engine, never deadlocks. The
    position-indexed accessors below hide which representation an entry
    uses. *)

type t

type cursor = { ctag : string; mutable cpos : int }
(** A per-tag scan cursor: every position before [cpos] is guaranteed to
    hold no live entry with tag [ctag], so tag-filtered receives can
    skip foreign traffic once instead of rescanning it on every poll.
    Cursors are lower bounds only — correctness never depends on them. *)

val default_capacity : int

val create : ?capacity:int -> unit -> t
(** [capacity] (default {!default_capacity}) bounds the frame pool and
    is rounded up to a power of two; frames are created lazily up to the
    bound and recycled thereafter. [~capacity:0] makes every entry take
    the spill path. *)

val length : t -> int
(** Number of live entries. *)

val is_empty : t -> bool

val capacity : t -> int
(** The frame-pool bound. *)

val head_pos : t -> int
(** First absolute position that may hold a live entry. *)

val tail_pos : t -> int
(** One past the newest absolute position. *)

val has_frame : t -> bool
(** Whether {!emplace_frame} can currently hand out a pooled frame. *)

val emplace_frame : t -> Frame.t
(** Append a framed entry at [tail_pos] and return its frame for the
    caller to {!Frame.fill} or {!Frame.copy_into} immediately. Only
    legal when {!has_frame} holds. *)

val emplace_spilled : t -> Message.t -> unit
(** Append a spilled entry at [tail_pos]: the overflow path, used when
    the frame pool is exhausted (or when the message already exists and
    sharing it is cheaper than re-encoding, e.g. fault-injected
    re-deliveries). *)

(** {2 Position-indexed access}

    All of these expect a position in [\[head_pos, tail_pos)]. A
    position may be a tombstone — check {!occupied_at}. *)

val occupied_at : t -> int -> bool

val tag_at : t -> int -> string
val sender_at : t -> int -> Pid.t
val predicate_at : t -> int -> Predicate.t

val message_at : t -> int -> Message.t
(** The entry as a message: the spilled message itself (no allocation),
    or a materialised view of the frame ({!Frame.message}). *)

val uid_at : t -> int -> int
(** The framed entry's send identity, or [-1] for a spilled entry
    (spilled entries are excluded by physical message identity
    instead — see {!copy_excluding}). *)

val frame_at : t -> int -> Frame.t
(** The pooled frame at a position, or an unoccupied placeholder if the
    entry is spilled or a tombstone. Delivery uses this to decide
    between deep-copying frame bytes and sharing a spilled message. *)

val remove : t -> int -> unit
(** Tombstone the entry at an absolute position: a framed entry's frame
    is cleared and returned to the pool; the head advances past any
    leading tombstones. No-op on an already empty slot. *)

val no_message : Message.t
(** A distinguished message value that is never a real entry: the "no
    acceptable message" sentinel the receive fast path returns instead of
    allocating an option. Compared physically. *)

val transfer_upto : t -> upto:int -> t -> unit
(** [transfer_upto src ~upto dst] moves every live entry in
    [\[head_pos src, upto)] into [dst] — framed entries deep-copy into a
    destination frame (or materialise and spill when [dst]'s pool is
    exhausted), spilled entries share the immutable message value — and
    clears them from [src], advancing its head once. Batched delivery
    moves a whole batch this way when it goes to a single receiver with
    no delivery-fault hook to consult. *)

val drop_upto : t -> upto:int -> unit
(** Remove every live entry in [\[head_pos, upto)]: the bulk discard for
    batches whose destination is dead. *)

val cursor : t -> string -> cursor
(** The ring's cursor for [tag], created at the current head on first
    use. *)

val copy_excluding : t -> uid:int -> msg:Message.t -> t
(** A fresh ring holding copies of every live entry except those that
    are the given send: framed entries matching [uid] (deep-copied
    otherwise — both rings may consume independently) and entries
    physically sharing [msg] (the accepted message; duplicate copies
    that spilled share their original's cached message value). Used when
    a world split clones a receiver minus the message being accepted. *)

val iter : t -> (pos:int -> Message.t -> unit) -> unit
(** Iterate live entries in position order, as messages. *)

(** {2 Introspection for tests and benchmarks} *)

val frames_made : t -> int
(** Frames created so far ([<= capacity]): stays flat once the pool is
    warm, however much traffic cycles through. *)

val spilled_total : t -> int
(** Total entries that ever took the overflow spill path {e into this
    ring}, whether they arrived through {!emplace_spilled}, the copying
    form of {!transfer_upto}, or a whole-batch adoption (adopted spilled
    entries count exactly as copying them would have: adoption and
    copying must agree byte-for-byte). *)

val spilled_live : t -> int
(** Spilled entries currently live in [head, tail): the part of
    {!length} that is not backed by a pooled frame. *)
