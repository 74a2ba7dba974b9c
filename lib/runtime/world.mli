(** Multiple worlds (section 3.4.2): which processes are world copies of
    one logical receiver, and the replay log a copy is rebuilt from.

    A receiver that cannot decide a message splits in two. The paper
    forks it; the engine instead starts a clone that re-executes the
    receiver's body from its {!log}, consuming the recorded results of
    every effectful operation, and runs live from there. Delivery to a
    logical pid reaches each of its live copies.

    The module knows pids and log entries, not process records, so it is
    held on its own to a plain-list model ([test_runtime]'s
    [model: worlds over a plain list]). *)

(** {2 Replay logs} *)

(** One effectful operation of a cloneable process and its result. *)
type entry =
  | L_delay of float
  | L_now of float
  | L_recv of Message.t
  | L_recv_opt of Message.t option
  | L_sent
  | L_random of int64

type log
(** A process's log: what it recorded so far and, while it is a clone
    replaying, the entries it has still to consume. *)

val not_cloneable : log
(** The log of every process that cannot split: it records nothing. *)

val fresh : unit -> log
(** The empty log of a cloneable process. *)

val cloneable : log -> bool

val logging : log -> bool
(** Cloneable and done replaying: its operations are recorded. Tested
    before an entry is built, so an unlogged operation allocates none. *)

val record : log -> entry -> unit

val replay_next : log -> entry option
(** The next entry a clone replays, oldest first; [None] once it runs
    live. *)

val clone : log -> log
(** The log of a split's rejecting copy: the same entries, replayed from
    the first before the copy runs live. *)

(** {2 World copies} *)

type t

val create : unit -> t

val reset : t -> unit
(** No copies, with the table's capacity kept. Allocates nothing. *)

val split : t -> logical:Pid.t -> Pid.t -> unit
(** Record the clone [pid] as the newest copy of [logical]. The first
    split makes [logical] itself the oldest copy. A process that never
    split has no entry. *)

val remove : t -> Pid.t -> logical:Pid.t -> unit
(** The process died: it leaves [logical]'s copies. *)

val copies : t -> Pid.t -> Pid.t list
(** The live copies of a logical pid, oldest first; [] if it never split
    (or every copy died), which means "the pid itself". *)
