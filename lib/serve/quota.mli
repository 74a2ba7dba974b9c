(** Per-tenant admission quota: a token bucket in GCRA form.

    The bucket holds [burst] tokens, refills at [rate] tokens per virtual
    second, and each admitted request consumes one. The implementation is
    the generic-cell-rate form — the theoretical arrival time is computed
    {e fresh} from an integer admission counter on every decision
    ([base + steps/rate]), never accumulated float-by-float — so the
    admit/shed pattern at exact virtual-time boundaries is drift-free
    over millions of requests: request 10^6 sees the same arithmetic as
    request 1. *)

type t

val create : rate:float -> burst:int -> t
(** A full bucket. [rate > 0], [burst >= 1] ([Invalid_argument]
    otherwise). *)

val admit_all : t list -> now:float -> bool
(** Admission decision at virtual time [now] (calls must have
    nondecreasing [now]) across quota classes (per-tenant, per-scenario,
    global, ...): [true] — and one token consumed from {e every} bucket
    — iff all of them conform at [now]; [false] is a shed, and no
    bucket's state changes, so shed traffic never pushes a refill
    schedule around. A request denied by any class
    consumes from none, so a tenant-shed request cannot drain the global
    bucket out from under other tenants. The decision is evaluated in
    list order with plain integer GCRA arithmetic: bit-exact at boundary
    rates, like the single-bucket path. *)

val admitted : t -> int
(** Requests admitted so far. *)

val tokens : t -> now:float -> float
(** Tokens available at [now], in [0, burst] — introspection for tests
    and for honest shed responses. *)
