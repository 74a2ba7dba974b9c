(** Reference-counted physical page frames.

    The paper manages all sink state as fixed-size pages ("we bury the
    entire memory hierarchy under the page abstraction", section 3.1). A
    {!t} is the pool of physical frames shared by every address space in one
    simulation; copy-on-write sharing is expressed through frame reference
    counts.

    A frame whose count drops to zero is not discarded: it joins a
    free-frame pool that belongs to the calling domain, not to the store,
    and that every store on the domain allocates from. Engines built one
    after another on a domain therefore recycle each other's frames. The
    pool holds at most a fixed number of bytes; frames freed past it are
    left to the GC. Reuse is unobservable: a recycled frame is
    zero-filled (or overwritten by the copy) and takes the allocating
    store's next id, so every per-store counter and id below means exactly
    what it would with a fresh frame. *)

type frame
(** One physical page frame: a byte buffer plus a reference count. *)

type t
(** A frame store: the frames of one simulation and their counters. *)

val create : page_size:int -> t
(** [create ~page_size] makes an empty store of frames of [page_size]
    bytes. *)

val page_size : t -> int

val reset : t -> unit
(** Return the store to the state {!create} leaves: every counter and the
    map-id and frame-id sequences at zero, and no observers. Frames still
    referenced by maps of the previous run are forgotten, not pooled:
    nothing may decrement them through this store afterwards. *)

val alloc : t -> frame
(** A zero-filled frame with reference count 1 and an id this store has
    never handed out. It is taken from the domain's free-frame pool when
    one of this page size is there, and allocated otherwise; the two are
    indistinguishable to the caller. *)

val alloc_copy : t -> frame -> frame
(** [alloc_copy t f] is like {!alloc}, but the new frame's contents are a
    copy of [f]'s. [f]'s count is unchanged. This is the copy-on-write
    fault path; the caller accounts its cost. *)

val incref : frame -> unit
(** Add one reference (a page map sharing the frame). *)

val decref : t -> frame -> unit
(** Drop one reference. [t] must be the store that allocated the frame.
    When the count reaches zero the frame leaves [t]'s {!live_frames} and
    enters the calling domain's free-frame pool (unless the pool is full);
    the caller must hold no other path to it from then on. A frame enters
    the pool only at count zero, and only once: decrementing a count that
    is already zero is an assertion failure. *)

val refcount : frame -> int

val data : frame -> bytes
(** The frame's backing bytes. Callers must only mutate frames they hold
    exclusively (reference count 1); {!Page_map} enforces this. *)

val id : frame -> int
(** Stable identity of the frame, for tests, traces, and the observers
    below. Ids are per store and never reused between its creation or
    {!reset} and the next reset: a frame recycled through the pool comes
    back under the allocating store's next id. A reset starts the ids at
    0 again, so an observer that outlives one must forget them. *)

val live_frames : t -> int
(** Number of frames currently referenced by at least one map. The
    serving layer reads it at the end of every batch, where frame
    conservation requires 0 (a fork nobody released keeps its frames
    here, out of the domain's pool). *)

val total_allocations : t -> int
(** Number of [alloc]/[alloc_copy] calls since creation (monotone). *)

val cow_copies : t -> int
(** Number of [alloc_copy] calls since creation (monotone): the pool-wide
    count of copy-on-write faults serviced. *)

val fresh_map_id : t -> int
(** A pool-unique identity for a {!Page_map} drawing frames from this
    pool. Ids are dense, allocated in creation order, so they are
    deterministic per simulation. *)

(** {2 Observation}

    Online monitors watch the store through observers: every page write
    of every map drawing from the store, every frame whose last reference
    is dropped, and every map that is released. The analysis layer's
    sanitizer and its isolation oracle ([Race]) are both observers, and
    both hear the one notification that every write makes. A store with
    no observer pays one branch per write and nothing else. *)

type observer = {
  on_write : map:int -> vpage:int -> frame:int -> unit;
      (** A write through the map with {!fresh_map_id} [map] landed in
          frame [frame] at page [vpage]. *)
  on_free : frame:int -> unit;
      (** The frame's count reached zero: no map can write it again, as
          ids are not reused until the store is {!reset}. *)
  on_release : map:int -> unit;
      (** The map was released (or absorbed into its parent): it will
          never write again. *)
}

val add_observer : t -> observer -> unit
(** Notify the observer of every event above from now on. Observers are
    independent: in what order they hear one event is unspecified. *)

val remove_observer : t -> observer -> unit
(** Stop notifying the observer (compared physically; one registration
    of it goes); the others keep hearing everything. Removing the
    observer added last allocates nothing, so a monitor that keeps its
    observer and re-adds it per run (the sanitizer) pays only the list
    cell of {!add_observer}. *)

val notify_write : t -> map:int -> vpage:int -> frame -> unit
(** Used by {!Page_map} on every write, with the frame written; a no-op
    when no observer is installed. *)

val notify_release : t -> map:int -> unit
(** Used by {!Page_map} when a map is released or absorbed. *)
