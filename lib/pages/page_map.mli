(** Per-process page tables with copy-on-write inheritance.

    "The state management strategy is copy-on-write with page map
    inheritance from the parent" (paper, section 3.3). A {!t} is one
    table from virtual page numbers to {!Frame_store} frames, holding one
    reference on each frame it maps, so a frame's
    {!Frame_store.refcount} is the number of maps sharing it. {!fork}
    copies the parent's table and takes a reference on every frame; a
    write to a frame whose count is above one copies it first. {!absorb}
    implements the [alt_wait] rendezvous: the parent atomically replaces
    its page table with the child's. *)

(** {2 Flat int tables}

    The int-keyed open-addressing table a page map keeps its frames in,
    exposed for other per-operation tables (the sanitizer's).
    Power-of-two capacity, linear probing, backward-shift deletion. An
    empty table holds no arrays until its first insert; lookups, the
    replacement of an existing key and removals allocate nothing. [min_int] is reserved; every other int is a valid key. *)

module Int_table : sig
  type 'a t

  val create : 'a -> 'a t
  (** [create dummy]: [dummy] fills empty slots (so the table holds no
      reference to removed values) and is what {!find} returns for an
      absent key. *)

  val length : 'a t -> int

  val find : 'a t -> int -> 'a
  (** The key's value, or the table's dummy when the key is absent. *)

  val replace : 'a t -> int -> 'a -> unit
  val remove : 'a t -> int -> unit

  val clear : 'a t -> unit
  (** Remove every entry, keeping the table's capacity: a table cleared
      and refilled to its old size allocates nothing. *)

  val remove_if : ('e -> int -> 'a -> bool) -> 'e -> 'a t -> unit
  (** [remove_if f env t] removes every entry for which [f env key value]
      holds, allocating nothing when [f] is a top-level function. *)
end

type t

val create : Frame_store.t -> t
(** An empty address map over the given frame pool. Unmapped pages read as
    zeroes and are materialised on first write. *)

val id : t -> int
(** This map's {!Frame_store.fresh_map_id}: a store-unique, deterministic
    identity. The frame store's observers hear this map's writes and its
    release under it, and the analysis layer joins those reports back to
    processes through {!Address_space.map}. *)

val page_size : t -> int

val fork : t -> t
(** [fork parent] is a child map sharing every frame of [parent]
    copy-on-write: it copies the parent's page table and adds a reference
    to every frame, in time and words proportional to the mapped pages,
    but copies no frame. The caller charges {!Cost_model.fork_cost}. *)

val mapped_pages : t -> int
(** Number of virtual pages with a materialised frame. O(1). *)

val private_pages : t -> int
(** Mapped pages whose frame is reachable through this map alone. *)

val read_into : t -> vpage:int -> off:int -> len:int -> dst:bytes -> dst_off:int -> unit
(** Read [len] bytes at [off] within page [vpage] into [dst] at
    [dst_off]. Unmapped pages zero-fill the destination range. *)

val write : t -> vpage:int -> off:int -> src:bytes -> copied:bool ref -> unit
(** Write [src] at [off] within page [vpage]. Sets [copied := true] if a
    copy-on-write fault was serviced (the caller charges
    {!Cost_model.copy_cost} for it); leaves it untouched otherwise. Writing
    to an unmapped page materialises a zero frame without setting
    [copied]. *)

val write_from :
  t -> vpage:int -> off:int -> src:bytes -> src_off:int -> len:int -> bool
(** Like {!write} for the range [src_off, src_off+len) of [src], without
    requiring the caller to slice it out. Returns [true] iff a
    copy-on-write fault was serviced. *)

(** {2 Scalar fast paths}

    Single-value accessors that touch the frame bytes in place — no
    [Bytes.sub]/[Bytes.make] per access. The [int] forms are additionally
    allocation-free; [get_int]/[set_int] use the little-endian [int64]
    encoding truncated to OCaml's 63-bit [int] (identical to
    [Int64.to_int] of {!get_i64}). All raise [Invalid_argument] when the
    access would cross the page boundary; {!Address_space} falls back to
    the byte-range path in that case. Setters return [true] iff a
    copy-on-write fault was serviced. *)

val get_u8 : t -> vpage:int -> off:int -> int
val set_u8 : t -> vpage:int -> off:int -> int -> bool
val get_i64 : t -> vpage:int -> off:int -> int64
val set_i64 : t -> vpage:int -> off:int -> int64 -> bool
val get_int : t -> vpage:int -> off:int -> int
val set_int : t -> vpage:int -> off:int -> int -> bool

val touch_page : t -> vpage:int -> bool
(** Fault-only probe: ensure [vpage] is privately mapped without reading
    or changing its contents. Returns [true] only when a copy-on-write
    fault was actually serviced (the caller charges the copy);
    already-private pages are no-ops and unmapped pages are materialised
    as zero frames for free. Either way the store's observers hear a
    write of the page. *)

val absorb : parent:t -> child:t -> unit
(** The parent drops its reference on each of its frames and takes over
    the child's page table, references and copy-on-write count; the child
    map becomes released (any further use raises, and the store's
    observers hear of the release). This is the atomic page-pointer
    replacement of [alt_wait]. O(pages the parent mapped). *)

val release : t -> unit
(** Drop every frame reference (process elimination) and report the
    release to the store's observers. Idempotent. *)

val released : t -> bool

val cow_copies : t -> int
(** Copy-on-write faults serviced by writes through this map (absorbing a
    child adds the child's count: the surviving timeline's history). *)

val mapped_vpage_array : t -> int array
(** Virtual page numbers with a materialised frame, ascending, in a fresh
    array read straight off the page table: it allocates the array and
    nothing else. *)

val frame_id : t -> vpage:int -> int option
(** Identity of the frame backing [vpage], for sharing assertions in
    tests. *)

val snapshot_equal : t -> t -> bool
(** [snapshot_equal a b] holds when both maps present identical page
    contents (zero-extended to the union of their mapped pages).
    Stat-neutral: it takes no fault and notifies no observer. Frames
    shared between maps of the same store short-circuit by identity
    before any byte comparison. *)
