(** Byte-addressable address spaces over the paged store.

    An address space couples a {!Page_map} with a {!Cost_model} and keeps a
    running total of the virtual-time cost incurred by its operations
    (copy-on-write faults, fork setup). The simulation runtime drains this
    pending cost into the simulated clock, so that memory behaviour shows up
    as execution time exactly as in the paper's overhead analysis. *)

type t

val create : ?size_hint:int -> Frame_store.t -> Cost_model.t -> t
(** [create store model] is an empty space. [size_hint] (bytes) pre-faults
    that much zeroed memory, modelling a process image of a given size (used
    to reproduce the 320K-address-space fork measurements). The frame
    store's page size must equal the model's. *)

val model : t -> Cost_model.t
val map : t -> Page_map.t

val fork : ?model:Cost_model.t -> t -> t
(** Copy-on-write child. Adds {!Cost_model.fork_cost} for the mapped pages
    to the {e child}'s pending cost (spawning work is charged to the spawn
    path by the runtime). [model] (default: the parent's) prices the
    child's subsequent operations — an on-demand remote child shares the
    parent's frames but pays network prices per copy-on-write fault. Must
    have the parent's page size. *)

val absorb : parent:t -> child:t -> unit
(** Rendezvous: parent takes the child's pages; adds
    {!Cost_model.absorb_base} to the parent's pending cost. *)

val release : t -> unit

val read_bytes : t -> addr:int -> len:int -> bytes
val write_bytes : t -> addr:int -> bytes -> unit
(** Reads and writes may span page boundaries; writes accumulate
    copy-on-write fault costs into the pending total. Negative addresses
    raise [Invalid_argument]. *)

(** Scalar accessors route through {!Page_map}'s in-place fast paths when
    the access does not cross a page boundary; [get_u8]/[set_u8]/
    [get_int]/[set_int] are allocation-free on that path. *)

val get_u8 : t -> addr:int -> int
val set_u8 : t -> addr:int -> int -> unit
val get_i64 : t -> addr:int -> int64
val set_i64 : t -> addr:int -> int64 -> unit
val get_int : t -> addr:int -> int
val set_int : t -> addr:int -> int -> unit
val get_float : t -> addr:int -> float
val set_float : t -> addr:int -> float -> unit
val get_string : t -> addr:int -> len:int -> string
val set_string : t -> addr:int -> string -> unit

val touch : t -> addr:int -> len:int -> unit
(** Fault-probe every page overlapping [addr, addr+len): forces
    materialisation / privatisation without reading or changing contents.
    Charges (and counts) a write only for pages that actually take a
    copy-on-write fault; already-private pages are free. Models a program
    whose working set dirties a known fraction of its pages. *)

val pending_cost : t -> float
(** Accumulated un-charged cost. *)

val drain_cost : t -> float
(** Return the pending cost and reset it to zero. *)

val cow_copies : t -> int
val mapped_pages : t -> int
val private_pages : t -> int

val set_tracking : t -> bool -> unit
(** Does nothing. Page writes reach the frame store's observers whatever
    the setting, and no map keeps a write log. It stays only because the
    profiling harness in [bench/profile] still calls it, and goes with
    that harness (ROADMAP item 1b), next to [Engine.create ?shards] and
    [Server.sv_shards]. *)
