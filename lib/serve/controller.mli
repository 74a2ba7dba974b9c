(** The deterministic degradation ladder: virtual-time admission control
    that walks each request class down

    {v majority consensus -> latch elision -> sequential fallback -> shed v}

    instead of paying worst-case synchronisation at every load level.

    Signals are virtual-time only — a leaky-bucket backlog meter of
    {e estimated} admitted work (drained at lane capacity; the plan-time
    stand-in for lane occupancy and queue depth) and an exponentially
    decayed shed-rate window. Never the wall clock, and never actual
    service times (unknown at admission time, and order-dependent), so
    the ladder's trajectory is a pure function of the arrival stream and
    the config: replay-identical, and independent of [sv_jobs].

    Each class (scenario, policy) holds its own rung over the shared
    meter and moves one rung per decision, with hysteresis: down at its
    rung's pressure threshold, back up only below the previous rung's
    threshold scaled by [1 - dc_hysteresis] — no flapping when pressure
    hovers at a boundary. *)

type config = {
  dc_enabled : bool;  (** [false]: every decision is full service. *)
  dc_shed_only : bool;
      (** Baseline mode for the degrade benchmark: identical meter and
          rung walk, but any rung below full service sheds instead of
          degrading. *)
  dc_est_service : float;
      (** Estimated virtual service seconds per unit of [rq_work]. *)
  dc_lanes : int;  (** Drain capacity: work-seconds per virtual second. *)
  dc_latch_at : float;  (** Pressure that steps rung 0 -> 1. *)
  dc_seq_at : float;  (** 1 -> 2. *)
  dc_shed_at : float;  (** 2 -> 3 (shed). *)
  dc_hysteresis : float;  (** Fractional undershoot required to step up. *)
  dc_window : float;  (** Decay window of the shed-rate signal (s). *)
}

val default : lanes:int -> config
(** Disabled, shed-only off, 0.2 s estimated service, thresholds
    0.4 / 1.2 / 3.0 backlog-seconds per lane, 25% hysteresis, 0.5 s
    window. Enable with [{ (default ~lanes) with dc_enabled = true }]. *)

type t

val create : config -> t
(** Validates the config: increasing thresholds, [dc_hysteresis] in
    [0, 1), positive estimate and window ([Invalid_argument]
    otherwise). *)

(** One admission decision. *)
type decision =
  | Admit of { level : int }
      (** Serve at rung [level] (0 full, 1 latch elision, 2 sequential
          fallback). Deposits the request's estimated work in the
          meter. *)
  | Shed of { backlog : float }
      (** Rung 3 (or any rung below 0 in shed-only mode): refuse
          honestly. [backlog] is the backlog-seconds-per-lane the meter
          held — the client is told exactly how overloaded the server
          believed itself to be. Deposits nothing. *)

val decide : t -> cls:string -> now:float -> work:float -> decision
(** Decide for one arrival of class [cls] at virtual time [now] with
    work multiplier [work]. Calls must have nondecreasing [now] (the
    arrival stream's own order). With [dc_enabled = false] this is a
    constant [Admit {level = 0}] and touches no state. *)

val level : t -> cls:string -> int
(** The class's current rung (0 when never seen). *)

val transitions : t -> int
(** Rung moves so far, all classes — the flap measure tests bound. *)

val overload_sheds : t -> int
(** Requests refused by the ladder (not by quota). *)

val peak_pressure : t -> float
(** High-water pressure the meter reached — reported in the metrics. *)
