(** Deterministic, seed-replayable fault injection.

    A {e fault plan} is a list of declarative rules compiled onto an
    {!Engine.t} through the engine's fault hooks
    ({!Engine.set_message_fault}, {!Engine.set_spawn_hook}). Message rules
    drop, duplicate, delay, or reorder messages selected by tag, endpoint
    name, and virtual-time window; process rules kill a process outright or
    crash it (black-hole its traffic) with an optional revival. Every
    injection that takes effect is recorded as a {!Trace.Injected} event, so
    the analysis layer can tell a faulted execution from a clean one and
    audit exactly what the campaign did.

    {2 Determinism contract}

    All randomness comes from a private {!Rng} stream seeded at {!make}.
    The engine consults the plan at deterministic points (each [send], each
    spawn), so the same [(plan seed, engine seed, program)] triple yields a
    byte-identical execution — including the injected faults. This is what
    makes a fuzzing campaign's failures replayable from the two seeds
    alone. *)

(** What to do to a matched message. [Delay] adds latency but preserves the
    per-(sender, dest) FIFO order; [Reorder] adds latency {e without} holding
    that order back, so later messages may overtake (the paper's transport is
    FIFO, so reorder campaigns probe beyond its stated model). *)
type msg_action = Drop | Duplicate | Delay of float | Reorder of float

type rule

val message :
  ?p:float ->
  ?tag:string ->
  ?sender:string ->
  ?dest:string ->
  ?window:float * float ->
  msg_action ->
  rule
(** A message rule. A message matches when its tag equals [tag] (if given),
    the sender's / destination's process name contains [sender] / [dest] as
    a substring (if given), and the current virtual time lies in [window]
    (default [(0., infinity)]). A matching message suffers the action with
    probability [p] (default [1.]); rules are tried in list order and the
    first one that fires wins. *)

val storm : ?window:float * float -> float -> rule
(** [storm extra] delays {e every} message in the window by [extra] —
    a timeout storm: enough added latency turns every pending
    [receive_timeout] and consensus reply wait into a timeout. *)

val kill_process : ?nth:int -> ?after:float -> string -> rule
(** Kill the [nth] (0-based, default 0) process whose name contains the
    given substring, [after] (default 0) virtual seconds after it is
    spawned. Children of an alternative block are named ["<alt>[<i>]"], so
    ["["] targets any child; voters are ["voter<i>"]. *)

val crash_process : ?nth:int -> ?after:float -> ?revive_after:float -> string -> rule
(** Crash (rather than kill) the matched process: it keeps running but all
    its traffic — incoming and outgoing — is silently dropped, like a
    crashed or partitioned node. With [revive_after] the partition heals
    that many seconds later. A crashed voter's grant state survives the
    outage, exactly the durability the majority-consensus protocol relies
    on. *)

val crash_site : ?at:float -> ?jitter:float -> string -> rule
(** Crash the named site at virtual time [at + u] where [u] is drawn
    uniformly from [[0, jitter)] (default both 0) from the plan's stream at
    install time. Every process then resident on the site is killed
    ({!Sites.crash}) and messages to or from the site's residents are
    dropped from then on. Requires [install ~sites]. Raises
    [Invalid_argument] on negative [jitter]. *)

val partition_sites :
  ?at:float ->
  ?jitter:float ->
  ?heal_after:float ->
  string list ->
  string list ->
  rule
(** [partition_sites left right] cuts every link between a site in [left]
    and a site in [right] at time [at + u], [u] uniform in [[0, jitter)]
    (messages crossing the cut are dropped at delivery time, so in-flight
    traffic is lost too). With [heal_after] the same cut is healed that many
    seconds after it was made. Requires [install ~sites]. Raises
    [Invalid_argument] on negative [jitter] or [heal_after]. *)

type t

val make : ?seed:int -> rule list -> t
(** A plan. [seed] (default 0) feeds the plan's private random stream. *)

val none : t
(** The empty plan: installs hooks that deliver everything untouched. *)

val install : ?sites:Sites.t -> t -> Engine.t -> unit
(** Compile the plan onto the engine. Must be called before the engine
    runs; installing a second plan replaces the first. Site rules
    ({!crash_site}, {!partition_sites}) are scheduled against [sites] —
    their jitter draws happen here, in rule order, so the fault schedule
    is fixed by the plan seed alone. Raises [Invalid_argument] if the plan
    contains site rules and [sites] is not given. *)
