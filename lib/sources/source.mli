(** Source devices: non-idempotent state.

    The paper divides system state by idempotence (section 3.1): operations
    on {e sink} state (pages) can be retried invisibly, while operations on
    {e sources} — "for definiteness, consider ... a teletype device" —
    cannot. "While a process has predicates which are unsatisfied, it is
    restricted from causing observable side-effects, and thus cannot
    interface with sources" (section 3.4.2).

    This module enforces that rule:

    - a {!write} by a {e certain} process is emitted immediately;
    - a write by a speculative process is buffered, and flushed in order
      when the process's predicates resolve in its favour, or discarded
      when its world dies — so losing alternatives leave no trace;
    - a {!read} consumes the device's input script {e once} per position
      and buffers the value, so re-reads by replayed world-clones observe
      the same datum ("idempotency of some source state can be forced
      through buffering", section 6). *)

type t

val create : Engine.t -> name:string -> t
val name : t -> string

val write : Engine.ctx -> t -> string -> unit
(** Emit [line] on the device, subject to predicate gating as described
    above. Buffered lines of one process flush atomically and in order. *)

val read : Engine.ctx -> t -> string
(** Read the next input line for this process. Each process (identified by
    its {e logical} pid, so world-clones share a history) has its own
    cursor; positions already consumed from the script are served from the
    idempotence buffer. Raises [End_of_file] when the script is
    exhausted. *)

val feed : t -> string list -> unit
(** Append lines to the device's input script. *)

val set_emission_hook :
  t -> (time:float -> pid:Pid.t -> line:string -> certain:bool -> unit) option ->
  unit
(** Install (or clear) an online emission observer: called the instant a
    line reaches the device, with the emitter and whether it was certain
    at that moment. The analysis layer's sanitizer watches for
    [certain = false] — an uncertain emission is a violation of the
    paper's source rule {e as it happens}, not just in the post-mortem
    {!emissions} audit. *)

val force_flush : t -> Pid.t -> unit
(** Flush [pid]'s buffered speculative lines {e now}, bypassing the
    predicate gate. Never called by the runtime: the analysis layer's
    fault-seeding tests corrupt an execution with it on purpose (emitting
    while uncertain) and confirm both the sanitizer and the post-mortem
    checker catch it. *)

val output : t -> (float * Pid.t * string) list
(** Lines actually emitted, oldest first, with emission time and the
    process that (eventually) owned them. *)

val emissions : t -> (float * Pid.t * string * bool) list
(** Like {!output} but each line also carries whether its writer was
    {e certain} at the moment of emission. A [false] flag is a violation of
    the paper's source rule — the analysis layer's sources check looks for
    exactly that. *)

val pending : t -> (Pid.t * string list) list
(** Buffered lines of still-speculative writers. *)

val discarded : t -> int
(** Number of buffered lines dropped because their writer's world died. *)
