(** The simulated operating system: process management, virtual time,
    parking on the CPU, and predicate-aware interprocess communication.
    Processor sharing itself (rates, charging, the tick) is {!Cpu}'s; the
    engine parks a process there and resumes it when its slice ends.

    This is the substrate the paper assumes (section 3.1): independently
    schedulable processes, reliable FIFO message passing, sink state managed
    as copy-on-write pages, and a process-management component that
    interacts with the message layer. Execution is a deterministic
    discrete-event simulation: program code runs natively, and calls
    {!delay} to account the virtual CPU time its steps would take.

    {2 Programming model}

    A process body is an OCaml function over a {!ctx}. Inside a body, the
    operations of this module ({!delay}, {!send}, {!receive}, ...) may be
    used. They run on the body's own stack; only parking (waiting for CPU
    time in {!delay}, for a message in {!receive} or {!receive_timeout},
    for a fill in {!Ivar.read} or {!Ivar.read_timeout}) performs an effect,
    which the engine handles to suspend the body and resume it
    transparently. Every body of an engine runs under one handler, built
    at the engine's first start, which learns whose fiber it serves from
    a pid the fiber stores just before it parks, returns or raises, so
    nested fibers (a fill waking its waiter, a kill from a body) stay
    apart. The CPU and message parks are constant effects whose operands
    travel in the engine, so a park allocates its park record and the
    runtime's continuation, and a start no handler. An operation that has
    to park outside a body raises [Effect.Unhandled].

    {2 Multiple worlds}

    Message receipt compares the receiver's predicate with the sender's, as
    in section 3.4.2 of the paper, and {!Predicate.receipt} is the whole
    rule. In order: a message from a dead world or stamped assuming its
    sender fails is ignored, an implied one accepted, and a conflicting one
    or one whose sender the receiver assumes fails ignored. A
    receiver that already assumes the sender completes adopts the rest;
    any other message splits the receiver in two. The paper splits with a
    COW fork; here a clone is produced by {e deterministic replay}: the
    engine logs every effectful operation of a cloneable process, and the
    clone re-executes the body consuming the log (performing no side
    effects and no virtual time), then continues live. A process that has
    spawned children or read an ivar is not cloneable; a split against a
    non-cloneable receiver falls back to deferring the message until the
    sender's fate resolves, which is pessimistic but semantics-preserving.
    A deferral records no trace event: [Trace.Ignored] means the message
    left the mailbox unaccepted. *)

type t
(** An engine (one simulation). *)

exception Process_killed of string
(** Raised inside a body when the process is eliminated ({!kill}); bodies
    that wrap work in [try ... with] must re-raise it so elimination stays
    prompt. Exposed so instrumentation (e.g. the alt-block's attempt
    accounting) can tell an eliminated child from a crashed one. *)

exception Abort_process of string
(** Raised by {!abort}; same caveat as {!Process_killed}. *)

type ctx
(** A process's view of itself; passed to its body. *)

(** CPU capacity: [Infinite] gives every process its own processor (pure
    "real concurrency"); [Cores n] shares [n] processors among runnable
    processes, egalitarian processor-sharing (the paper's "virtual
    concurrency" through multiprocessing; see {!Cpu}). *)
type cores = Cpu.cores = Infinite | Cores of int

(** How a process left the system. *)
type exit_status =
  | Exited_ok  (** Body returned: the alternative completed successfully. *)
  | Exited_failed of string  (** Guard unsatisfied / explicit {!abort}. *)
  | Crashed of string  (** Body raised an unexpected exception. *)
  | Eliminated of string  (** Killed: sibling elimination or a dead world. *)

val create :
  ?cores:cores ->
  ?model:Cost_model.t ->
  ?seed:int ->
  ?trace:bool ->
  ?shards:int ->
  unit ->
  t
(** A fresh engine. Default [cores] is [Infinite], default [model] is
    {!Cost_model.uniform}, default [seed] 42, tracing on. Each process
    draws from its own random stream, keyed by [(seed, pid)]. [Cores c]
    with [c < 1] raises [Invalid_argument]: no processor would ever finish
    a slice.

    [shards] exists only because the profiling harness in [bench/profile]
    still passes [~shards:1]; it goes when that harness is next edited.
    The only accepted value is 1 (the default): any other raises
    [Invalid_argument]. *)

val reset : t -> seed:int -> unit
(** Return the engine to exactly the state [create ~seed] leaves, with
    the cores, cost model and [trace] setting it was created with. What
    the previous run left behind is dropped: its processes (parked ones
    are abandoned, not unwound: no cleanup of theirs runs), queued
    events, fates, recorded trace events and trace subscribers, the
    frame store's counters and observer, the CPU's tasks and charges,
    and the fault, spawn, site and delivery hooks. Every table keeps its
    capacity, and only the part of it the previous run used is cleared,
    so a run on a reset engine allocates what it would on a warm one,
    and nothing observable tells it from a run on a fresh engine.
    Address spaces made on the previous run's frame store must not be
    used or released afterwards. Not to be called from a process body
    or a hook while the engine runs. *)

val now : t -> float
(** Current virtual time (seconds). *)

val model : t -> Cost_model.t
val frame_store : t -> Frame_store.t
val trace : t -> Trace.t
val registry : t -> Fate_registry.t

val fresh_pids : t -> int -> Pid.t array
(** Pre-allocate pids, in ascending order, so that sibling predicates can be constructed before
    the siblings are spawned. Pids obtained here must be passed to
    {!spawn}'s [?pid] exactly once. An engine's pids are dense: it hands
    them out from 0, and keeps its per-process tables in arrays indexed by
    them. *)

val spawn :
  t ->
  ?pid:Pid.t ->
  ?parent:Pid.t ->
  ?predicate:Predicate.t ->
  ?space:Address_space.t ->
  ?cloneable:bool ->
  ?oblivious:bool ->
  ?start_delay:float ->
  ?name:string ->
  ?site:string ->
  (ctx -> unit) ->
  Pid.t
(** Create a process. It becomes runnable [start_delay] (default 0) seconds
    from now. [cloneable] (default true) enables the effect log used for
    world-splitting; it is disabled automatically if the process spawns or
    reads an ivar. [oblivious] (default false) marks a kernel-level service
    (consensus voter, device driver) whose receives bypass predicate
    matching: it accepts every message and belongs to no world. [site]
    requests explicit placement on a simulated site; it is passed to the
    site hook (see {!set_site_hook}) as the [explicit] argument, or adopted
    directly when no hook is installed. The engine does not run anything
    until {!run}.

    [pid] must be one this engine's {!fresh_pids} returned and no process
    has taken yet: a pid it never issued raises [Invalid_argument
    "Engine.spawn: pid not issued by this engine"] (accepted, it would
    later collide with a pid the engine hands out itself), and a taken one
    raises [Invalid_argument "Engine.spawn: pid already in use"].

    [spawn] is a thin wrapper over {!spawn_process}: it fills in the
    defaults and, without [?pid], takes the next pid. *)

val spawn_process :
  t ->
  pid:Pid.t ->
  parent:Pid.t option ->
  predicate:Predicate.t ->
  space:Address_space.t option ->
  cloneable:bool ->
  oblivious:bool ->
  start_delay:float ->
  name:string ->
  site:string option ->
  (ctx -> unit) ->
  Pid.t
(** {!spawn} with every argument given: the one code path both take. A
    caller that spawns many processes with the same [parent] boxes it once
    and passes no [Some] per spawn (a block's children are spawned this
    way). [pid] must be one of {!fresh_pids}, as for {!spawn}, and raises
    the same [Invalid_argument]s. *)

val on_exit : t -> Pid.t -> (exit_status -> unit) -> unit
(** Register a watcher called (at the process's exit time) when the pid
    exits. Fires immediately if it already exited. *)

val kill : t -> Pid.t -> reason:string -> unit
(** Eliminate a process: a parked process is unwound immediately (its
    [Fun.protect] cleanups run); a runnable or running process is doomed and
    unwinds at its next operation. Killing a dead pid is a no-op. *)

val alive : t -> Pid.t -> bool

val receivable : t -> Pid.t -> bool
(** Whether a message addressed to the pid could still be accepted: the
    process, or some world copy of it, is alive. *)

val status : t -> Pid.t -> exit_status option
(** [None] while the process is still live (or never existed). *)

val preserve_space : t -> Pid.t -> unit
(** Keep the pid's address space alive across its exit, so that a parent can
    absorb it at rendezvous (the default is to release it). *)

val after : t -> delay:float -> (unit -> unit) -> unit
(** Schedule an engine-level action [delay] seconds of virtual time from
    now (asynchronous sibling elimination uses this: the kill instructions
    are issued without charging the resuming parent). *)

val run : t -> unit
(** Run until no events remain. Processes still parked at quiescence (e.g.
    waiting for messages that will never come) are left suspended; inspect
    {!parked_pids}. *)

val run_for : t -> float -> unit
(** Run events up to [now + duration], then stop (remaining events stay
    queued). *)

val parked_pids : t -> Pid.t list
(** Processes blocked in {!receive}, {!Ivar.read} or {!delay} right now,
    sorted by pid. *)

val live_count : t -> int

(** {2 Operations usable inside a process body} *)

val self : ctx -> Pid.t
val engine : ctx -> t
val now_v : ctx -> float
(** Current virtual time, recorded in the replay log. *)

val delay : ctx -> float -> unit
(** Consume [dt] seconds of CPU work. Under [Cores n] contention, the
    elapsed virtual time may exceed [dt]. [dt <= 0.] returns at once. A
    NaN or infinite [dt] raises [Invalid_argument] in the caller, so only
    that process crashes. *)

val space : ctx -> Address_space.t option
(** The process's paged address space, if it has one. *)

val charge_memory : ctx -> unit
(** Drain the address space's pending copy-on-write cost into {!delay}.
    A body that writes its {!space} should call this after each write or
    burst of writes, so its copy-on-write faults cost virtual time. *)

val send : ctx -> ?tag:string -> Pid.t -> Payload.t -> unit
(** Reliable FIFO send; stamps the message with the sender's current
    predicate and delivers it after the model's [msg_latency] plus
    [msg_per_byte] per byte of its size. The message is built once: every world copy of the receiver,
    every trace event and every fault hook sees that one immutable
    value. *)

val receive : ctx -> ?tag:string -> unit -> Message.t
(** Block until a message acceptable under the predicate rules (and matching
    [tag], if given) arrives. May split the receiver (see module doc). *)

val receive_timeout : ctx -> ?tag:string -> timeout:float -> unit -> Message.t option
(** Like {!receive} but gives up after [timeout] seconds of virtual time
    (needed by protocols that must survive silent peers, e.g. majority
    consensus over crashed voters). [timeout <= 0.] is a pure poll: it
    returns immediately with an already-queued acceptable message if there
    is one, [None] otherwise, never parking and never advancing virtual
    time — well-defined for watchdog polling loops and reply-drains.
    [timeout = infinity] sets no deadline: the call parks exactly like
    {!receive}, and a process nothing wakes stays in {!parked_pids} at
    quiescence rather than resuming at virtual time [infinity]. A NaN
    timeout raises [Invalid_argument] in the caller.

    The deadline is an event like any other, ordered by (time, stamp)
    and stamped when the call parks, so a delivery due at exactly the
    deadline wins only if its event was scheduled before the park. *)

val abort : ctx -> string -> 'a
(** Terminate this process with [Exited_failed]. *)

val random_bits : ctx -> int64
(** Deterministic per-engine randomness, recorded in the replay log. *)

val my_predicate : ctx -> Predicate.t

val is_certain : ctx -> bool
(** Decided [`Certain] ({!on_resolution}): it may touch source devices. *)

(** {2 Write-once cells (the local synchronisation latch)} *)

module Ivar : sig
  type 'a t

  val create : unit -> 'a t

  val try_fill : 'a t -> 'a -> bool
  (** At-most-once: [true] for the first caller, [false] ("too late") for
      all later ones. Callable from bodies and from engine callbacks. *)

  val is_filled : 'a t -> bool
  val peek : 'a t -> 'a option

  val read : ctx -> 'a t -> 'a
  (** Block until filled. Disables cloning for the calling process. *)

  val read_timeout : ctx -> 'a t -> timeout:float -> 'a option
  (** Like {!read} but gives up after [timeout] seconds of virtual time,
      returning [None]. The deadline is an event stamped when the call
      parks, and events fire in (time, stamp) order. So a fill from an
      event at exactly the deadline wins only if that event was scheduled
      before the park; one scheduled after the park finds the wait
      already resumed with [None]. [timeout <= 0.] is a pure poll: the
      current contents (if any) are returned immediately, without parking
      or advancing virtual time. [timeout = infinity] sets no deadline, as
      in {!receive_timeout}. *)
end

(** {2 Engine-level hooks} *)

val on_resolution : t -> Pid.t -> ([ `Certain | `Dead ] -> unit) -> unit
(** Call back once with what is decided about the pid's world, at once if
    it is decided already: [`Certain] once its fate is recorded completed
    or its predicate, normalised against the recorded fates, is empty;
    [`Dead] once its fate is recorded failed, it ended other than ok, or
    its predicate is falsified ({!Fate_registry.resolution}). Used by the
    source-device layer to flush or discard gated side effects. *)

val stats_events_processed : t -> int
(** Events executed so far, including timed-wait deadlines that fired. A
    deadline cleared by a wake or a kill is never an event. *)

val stats_mailbox_scanned : t -> int
(** Total mailbox slots visited by receive scans since the engine was
    created. Tag-filtered receives keep a per-tag cursor past the traffic
    they have already rejected, so repeated polls over a mailbox full of
    foreign-tag messages cost O(new messages), not O(mailbox) each — the
    regression tests pin a budget on this counter. *)

val cpu_time_of : t -> Pid.t -> float
(** Virtual CPU seconds consumed by the pid so far (its {!delay}s, scaled by
    actual processor share). The basis of the wasted-work / throughput
    metrics of section 4.1. *)

val total_cpu_time : t -> float
(** Sum of {!cpu_time_of} over all processes ever run, added in pid
    order. *)

val logical_of : t -> Pid.t -> Pid.t option
(** The logical identity of a physical process: differs from the pid only
    for world-split clones, which keep the identity of the original
    receiver. *)

val space_of : t -> Pid.t -> Address_space.t option
(** The pid's address space, if it was spawned with one. Works after the
    process has exited (the process table is retained for post-mortem
    inspection), though the space itself may have been released unless
    {!preserve_space} was called. *)

val certain_of : t -> Pid.t -> bool
(** Whether the pid is decided [`Certain] {e right now}, as {!on_resolution}
    would say; [false] for an unknown pid. Used by the source-device layer
    to stamp emissions, and by the analysis layer to audit them. *)

val name_of : t -> Pid.t -> string option
(** The name the pid was spawned with. Works after exit (post-mortem
    process table); [None] for unknown pids. *)

val site_of : t -> Pid.t -> string option
(** The site the pid was placed on (see {!set_site_hook}). Works after exit;
    [None] for unknown pids or when no placement was made. *)

val children_of : t -> Pid.t -> Pid.t list
(** Every process ever spawned with [~parent:pid] (live or dead), sorted by
    pid. The coordinator watchdog uses it to find orphaned alternatives of a
    dead parent. *)

(** {2 Fault injection}

    Hooks for the fault-plan layer ([lib/faultplan]). They sit below the
    predicate-matching semantics: a dropped or delayed message never reaches
    acceptance, exactly as if the (simulated) network had misbehaved. All
    decisions are taken by the installed plan, so an engine with no plan
    installed behaves bit-for-bit as before. *)

(** What to do with a message about to be scheduled for delivery.
    [F_delay] adds latency but preserves per-(sender, dest) FIFO order
    (later sends to the same destination queue behind it); [F_reorder] adds
    latency {e without} holding the pair's clock back, so a later message
    can overtake
    — the only way to violate FIFO, kept separate so campaigns can opt in
    deliberately. [F_duplicate] queues the one message value twice, so a
    world split that accepts one copy excludes both from the rejecting
    world. *)
type fault_action =
  | F_deliver
  | F_drop
  | F_delay of float
  | F_duplicate
  | F_reorder of float

val set_message_fault : t -> (Message.t -> fault_action) option -> unit
(** Install (or clear) the message-fault hook, consulted once per {!send}
    after normal latency is computed. Each non-[F_deliver] decision is
    recorded as a {!Trace.Injected} event. *)

val set_spawn_hook : t -> (Pid.t -> string -> unit) option -> unit
(** Install (or clear) a callback invoked at every process creation —
    {!spawn} and world-split clones alike — with the new pid and its name.
    The fault plan uses it to target processes by name pattern. *)

(** {2 Sites}

    Hooks for the site/topology layer ([lib/sites]). The engine itself knows
    nothing about placement policy: it stores one optional site label per
    process and defers every decision to the hooks. With no hooks installed
    the engine behaves bit-for-bit as before. *)

val set_site_hook :
  t ->
  (pid:Pid.t ->
  parent:Pid.t option ->
  name:string ->
  explicit:string option ->
  string option)
  option ->
  unit
(** Install (or clear) the placement hook, consulted at every process
    creation ({!spawn} and world-split clones alike). [explicit] is the
    [?site] given to {!spawn} (for clones: the original's site — a world
    copy must live, and die, with its original). The returned label becomes
    the process's site ({!site_of}); the hook is also where the topology
    layer records membership. *)

val set_delivery_fault : t -> (Message.t -> dest:Pid.t -> bool) option -> unit
(** Install (or clear) the delivery filter, consulted at {e delivery} time
    once per (message, destination copy): [false] silently discards that
    copy's delivery. Unlike {!set_message_fault} (a send-time decision),
    this sees faults that arise while the message is in flight — a site
    crash or partition loses exactly the traffic that was crossing it. A
    message's verdicts are all taken before any copy is rescanned, so no
    receiver runs between two of them, and installing a filter that admits
    everything changes nothing a receiver observes. The filter is expected
    to record its own {!Trace.Injected} events. *)
