(** Sink-state access from inside a simulated process.

    Thin wrappers over {!Heap} cells that view the cell through the calling
    process's own address space and charge any copy-on-write fault cost to
    the process's virtual clock immediately, so that memory behaviour is
    execution time (section 4.1 of the paper: runtime overhead "consists of
    copying memory areas which are shared ... when updates are attempted").

    All functions raise [Invalid_argument] if the calling process has no
    address space. *)

val get : Engine.ctx -> 'a Heap.cell -> 'a
val set : Engine.ctx -> 'a Heap.cell -> 'a -> unit

val read_bytes : Engine.ctx -> addr:int -> len:int -> bytes
val write_bytes : Engine.ctx -> addr:int -> bytes -> unit

val touch : Engine.ctx -> addr:int -> len:int -> unit
(** Dirty the page range (forces COW privatisation) and charge the copies. *)
