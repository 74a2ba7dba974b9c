(** Simulated failure domains: sites, site crashes, and network partitions.

    The paper justifies the majority-consensus latch (section 3.2.1) by the
    observation that a single synchronisation point "would be a single point
    of failure" across {e nodes} — this module gives the simulator the node
    concept that argument needs. A topology is a fixed set of named sites;
    every process created after {!create} is placed on exactly one site (an
    explicit [?site] on {!Engine.spawn} wins, otherwise a child runs where
    its parent runs, and parentless processes are spread round-robin).
    World-split clones always live — and die — with their original.

    Faults are site-granular and delivery-timed:
    - {!crash} kills every resident of a site and silently loses all
      in-flight traffic to or from it, forever;
    - {!partition} cuts the links between two site groups (messages
      crossing the cut are dropped) until a matching {!heal}.

    Every fault is traced ({!Trace.Site_crashed}, [Partitioned], [Healed])
    and every message it loses is traced as {!Trace.Injected} with kind
    ["site-drop"] or ["partition-drop"], so the analysis layer can tell a
    site-faulted execution from a clean one. All decisions are deterministic
    functions of the installation order and the engine's own scheduling, so
    identical seeds replay identical fault histories. *)

type t

val create : Engine.t -> names:string list -> t
(** Install a topology on the engine: claims {!Engine.set_site_hook} and
    {!Engine.set_delivery_fault}. Raises [Invalid_argument] on an empty or
    duplicated name list. One topology per engine; installing a second one
    silently replaces the first's hooks. The topology is index-based (a
    name array, a crashed flag per site, a symmetric cut matrix, members
    per site), so placing a process allocates only its membership cell
    and a delivery verdict on healthy sites allocates nothing. *)

val reset : t -> unit
(** Return the topology to the state {!create} left it in (no members,
    no crashed site, no cut link, the round-robin cursor at site 0) and
    install its two hooks on its engine again, as {!Engine.reset} clears
    them. The hooks were boxed by {!create}, so a reset allocates nothing:
    a caller that runs one topology per engine run re-arms it instead of
    creating one per run. *)

val names : t -> string list
(** Site names, in declaration order: the list given to {!create}. *)

val count : t -> int
(** The number of sites. Site [i] (from 0) is the [i]th of {!names}. *)

val label : t -> int -> string option
(** [Some] the name of site [i], boxed once per topology: the value every
    placement on that site returns, so passing it as a spawn's [?site]
    allocates nothing. Raises [Invalid_argument] if [i] is out of range. *)

val is_crashed_at : t -> int -> bool
(** {!is_crashed} of site [i]. *)

val site_of : t -> Pid.t -> string option
(** Where the pid was placed ([None] only for processes spawned before the
    topology was installed). Works after the process exits. *)

val members : t -> string -> Pid.t list
(** Every process ever placed on the site (live or dead), sorted by pid.
    Raises [Invalid_argument] on an unknown site. *)

val is_crashed : t -> string -> bool

val alive_sites : t -> string list
(** Sites not crashed yet, in declaration order. *)

val crashed_sites : t -> string list

val crash : t -> string -> unit
(** Fail the site permanently: traces {!Trace.Site_crashed}, kills every
    resident (in pid order; each live casualty is first traced as
    [Injected {kind="site-kill"}]), and from now on loses every message
    whose sender or destination lives there. Idempotent. Raises
    [Invalid_argument] on an unknown site. *)

val partition : t -> left:string list -> right:string list -> unit
(** Cut every link between a site in [left] and a site in [right]; traces
    {!Trace.Partitioned}. Cuts accumulate (overlapping partitions are
    fine); intra-group traffic is unaffected. Raises [Invalid_argument] if
    either group is empty, mentions an unknown site, or the groups
    intersect. *)

val heal : t -> left:string list -> right:string list -> unit
(** Remove the cuts between [left] and [right] (whether or not each pair
    was cut); traces {!Trace.Healed}. Same argument validation as
    {!partition}. *)

val partitioned : t -> string -> string -> bool
(** Whether the link between the two sites is currently cut. *)

val delivers : t -> sender:Pid.t -> dest:Pid.t -> bool
(** The delivery filter's verdict on a message from [sender] to [dest] if
    it were delivered now: [false] when either end lives on a crashed site
    or the link between their two sites is cut. Records nothing; the
    installed filter traces each loss it decides. *)
