(** Deterministic open-loop workload generation.

    "Millions of simulated users" as a replayable experiment: one seeded
    SplitMix64 stream drives Poisson arrivals over Zipf-distributed
    tenants, with a heavy-tailed (bounded Pareto) per-request work
    multiplier. The generator is {e open-loop} — arrival times never
    depend on service times or responses, so the same seed produces the
    same request array byte for byte, whatever the server does with it. *)

(** One request: a tenant asking for one alternative block, named by
    scenario / policy / seed exactly as an [altcheck] matrix cell is. *)
type request = {
  rq_id : int;  (** Dense arrival index, 0-based. *)
  rq_tenant : int;  (** Zipf-distributed tenant in [0, tenants). *)
  rq_arrival : float;  (** Virtual arrival time (Poisson process). *)
  rq_scenario : string;  (** An {!Invariants.default_scenarios} name. *)
  rq_policy : int;  (** Index into {!Invariants.policy_matrix}. *)
  rq_seed : int;  (** The block's scenario seed. *)
  rq_work : float;
      (** Heavy-tail service multiplier: [min tail_cap p] for a Pareto
          draw [p >= 1]. *)
}

type config = {
  wl_seed : int;
  wl_requests : int;  (** Arrivals to generate. *)
  wl_rate : float;  (** Mean arrivals per virtual second. *)
  wl_tenants : int;
  wl_zipf : float;  (** Zipf exponent (popularity skew; 0 = uniform). *)
  wl_tail : float;  (** Pareto shape of the work multiplier. *)
  wl_tail_cap : float;  (** Truncation of the work multiplier (> 0). *)
  wl_scenarios : string list;  (** Scenario names drawn uniformly. *)
  wl_policies : int;  (** Policies drawn from the matrix's first [n]. *)
}

val default : config
(** Seed 1, 2000 requests at 200 req/s over 100 tenants (Zipf 1.1),
    Pareto 1.5 work capped at 20x, scenarios [counters]/[guarded],
    the policy matrix's first 8 policies. *)

val validate : config -> unit
(** Raises [Invalid_argument "Workload.generate: ..."] unless the config
    has [wl_requests >= 0], a positive rate, tail shape and tail cap, at
    least one tenant, scenario and policy, and a Zipf exponent that is
    not NaN. A NaN float fails every check. {!iter} and {!generate} call
    it first; a caller that streams later can call it up front, so a bad
    config is reported before anything else is checked. *)

val iter : config -> (request -> unit) -> unit
(** [iter c f] validates [c], then calls [f] on every request in arrival
    order ([rq_id] = 0, 1, ...), as each is drawn. All requests draw from
    one SplitMix64 stream seeded with [wl_seed], each in a fixed order:
    exponential interarrival, tenant, scenario, policy, block seed,
    work. Nothing is kept between calls to [f], so a consumer that drops
    a request leaves it to the minor heap. *)

val generate : config -> request array
(** The full arrival sequence, collected from {!iter}: nondecreasing
    [rq_arrival] order with [rq_id] dense from 0. Same config, same
    array — byte for byte. *)
