(** Machine cost profiles.

    Section 4.4 of the paper reports measured constants for two workstations
    (AT&T 3B2/310 and HP 9000/350) and for a distributed remote-fork
    implementation. The simulation runtime charges virtual time according to
    one of these profiles, so that the experiments of EXPERIMENTS.md can be
    regenerated deterministically. All times are in seconds. *)

type t = {
  name : string;  (** Human-readable profile name. *)
  page_size : int;  (** Bytes per page of sink state. *)
  fork_base : float;
      (** Fixed cost of a local copy-on-write fork (process-table entry,
          page-map header, bookkeeping). *)
  fork_per_page : float;
      (** Per-mapped-page cost of duplicating a page-map entry at fork. *)
  page_copy : float;
      (** Cost of copying one page on a copy-on-write fault (the reciprocal
          of the paper's page-copy service rate). *)
  absorb_base : float;
      (** Fixed cost of the parent atomically replacing its page pointer with
          the winning child's at [alt_wait] rendezvous. *)
  kill_per_sibling : float;
      (** Cost of issuing one sibling-elimination instruction (section
          3.2.1: the instructions "increase with the number of alternates"). *)
  msg_latency : float;  (** One-way message latency between processes. *)
  msg_per_byte : float;  (** Incremental message cost per payload byte. *)
  remote_spawn_base : float;
      (** Fixed cost of a remote fork: checkpointing the process image
          (Smith and Ioannidis 1989 implemented rfork() by dumping the
          process state to an executable file). *)
  remote_per_page : float;
      (** Per-page cost of shipping the checkpoint over the network file
          system. *)
}

val att_3b2 : t
(** AT&T 3B2/310 with the WE 32101 MMU: 2K pages, fork of a 320K address
    space at about 31 ms, page-copy service rate of 326 pages/second. *)

val hp_9000_350 : t
(** HP 9000/350: 4K pages, fork of a 320K address space at about 12 ms,
    page-copy service rate of 1034 pages/second. *)

val distributed_lan : t
(** Remote-fork profile: an rfork() of a 70K process costs just under one
    second of mechanism time; network delays raise the observed mean to
    about 1.3 seconds. *)

val modern : t
(** A present-day Linux/x86-64-like profile, used by the real-machine
    analogue experiment (E12) for comparison and by the examples to keep
    simulated runs short. *)

val uniform : ?page_size:int -> unit -> t
(** A profile in which every overhead constant is zero: useful in tests to
    isolate algorithmic behaviour from cost accounting, and in the analytic
    table (E1) where the overhead is supplied explicitly. *)

val pages_for : t -> bytes:int -> int
(** [pages_for m ~bytes] is the number of pages needed to hold [bytes]. *)

val fork_cost : t -> mapped_pages:int -> float
(** Cost of a local COW fork of an address space with that many mapped
    pages: [fork_base + mapped_pages * fork_per_page]. *)

val copy_cost : t -> pages:int -> float
(** Cost of servicing [pages] copy-on-write faults. *)

val remote_spawn_cost : t -> mapped_pages:int -> float
(** Mechanism cost of a remote fork shipping [mapped_pages] pages. *)

val message_cost : t -> bytes:int -> float
(** End-to-end cost of delivering one message of [bytes] payload bytes. *)

