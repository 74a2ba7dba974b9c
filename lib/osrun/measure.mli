(** Real-machine measurements of the paper's overhead constants.

    Section 4.4 reports fork latency and copy-on-write page-copy service
    rates measured on 1988 workstations. These functions measure the same
    quantities on the host this library runs on (experiment E12), using the
    same methodology: fork a child over an address space of known size, have
    it dirty a chosen fraction of the pages, and time the operation. *)

val fork_latency : ?image_bytes:int -> iters:int -> unit -> Stats.summary
(** Wall-clock seconds for [fork] + child [_exit] + [waitpid], with
    [image_bytes] (default 320 KiB, the paper's test size) of touched heap
    resident. [iters] must be positive. *)

val cow_touch_time :
  pages:int -> fraction:float -> iters:int -> unit -> Stats.summary
(** Wall-clock seconds for fork + the child write-touching [fraction] of
    [pages] (one byte per page, forcing one COW fault each) + exit + wait.
    The independent variable of the Smith 1988 response-time study. *)

val page_copy_rate : ?pages:int -> iters:int -> unit -> float
(** Estimated COW page-copy service rate (pages/second), from the slope
    between a 0%-touched and a 100%-touched run: the modern counterpart of
    the paper's "326 2K-pages/second (3B2), 1034 4K-pages/second (HP)". *)
