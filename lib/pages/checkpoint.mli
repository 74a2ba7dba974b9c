(** Checkpoint/restart of address spaces.

    Smith and Ioannidis (1989) implemented [rfork()] "by dumping the state
    of the process into a file in such a way that the file is executable; a
    bootstrapping routine restores the registers and data segments". This
    module is that mechanism for the simulated store: an {!image} is a
    self-contained byte snapshot of an address space, which can be restored
    into a fresh space — in the same simulation or conceptually shipped to
    a remote node. Remote spawning of alternatives is built on it.

    An image's page contents live in {!Frame_store} frames of a store
    private to the image, so they are taken from the calling domain's
    free-frame pool rather than allocated afresh. Lifetime rule: whoever
    captures (or parses) an image {!release}s it once its last {!restore}
    or {!to_bytes} is done, which hands the frames back to the pool; an
    image that is never released simply leaves its frames to the GC. *)

type image
(** A serialised address space: page size plus the (sparse) list of mapped
    pages and their contents, held in pooled frames the image owns. *)

val capture : Address_space.t -> image
(** Snapshot the space's current contents. O(mapped pages); does not
    disturb sharing (reads only). The pages are read through
    {!Page_map.read_into}; the space's store is not touched — its frame
    ids, {!Frame_store.live_frames}, {!Frame_store.total_allocations} and
    {!Frame_store.cow_copies} are exactly what they were. *)

val release : image -> unit
(** Return the image's frames to the domain's free-frame pool. Idempotent.
    After it, {!restore} and {!to_bytes} raise
    [Invalid_argument "Checkpoint: image released"] (the frames may
    already hold another store's pages); {!mapped_pages} and
    {!transfer_cost} still answer. *)

val restore : Frame_store.t -> Cost_model.t -> image -> Address_space.t
(** Materialise the image as a fresh private address space in the given
    store. Its page fills are writes like any other: the store's observers
    hear them under the new space's map id, before any process owns it,
    and in frames no other map holds. Raises [Invalid_argument] if the
    page sizes disagree or the image was released. *)

val mapped_pages : image -> int

val to_bytes : image -> bytes
(** Serialise to a flat byte string (the "executable file" of the paper's
    implementation): a 16-byte header, then an 8-byte header and the
    contents of each mapped page. Raises [Invalid_argument] if the image was
    released. *)

val of_bytes : bytes -> image
(** Inverse of {!to_bytes}; the result owns pooled frames like a captured
    image. Raises [Invalid_argument] with a ["Checkpoint.of_bytes"]
    message on malformed data: a truncated or
    oversized buffer, nonsensical header fields (the size arithmetic is
    overflow-safe, so no wire value can smuggle an out-of-range access
    into [Bytes]), a negative page number, or a duplicated page entry
    (restoring a duplicate would double-write the page silently). *)

val transfer_cost : Cost_model.t -> image -> float
(** {!Cost_model.remote_spawn_cost} of shipping this image: the checkpoint
    base cost plus per-page transfer. *)
