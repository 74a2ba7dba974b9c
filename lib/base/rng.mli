(** Deterministic, splittable pseudo-random numbers (SplitMix64).

    All stochastic behaviour in the reproduction (fault injection, workload
    generation, random scheme selection) flows through this module so that
    every experiment is bit-reproducible from a seed. The generator is the
    standard SplitMix64 of Steele, Lea and Flood. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] builds a generator. Equal seeds yield equal streams. *)

val split : t -> t
(** [split t] derives an independent generator and advances [t]. Used to give
    each simulated process / workload its own stream without coupling their
    consumption rates. *)

val stream : seed:int -> key:int -> t
(** [stream ~seed ~key] is an independent generator that is a {e pure
    function} of [(seed, key)] — unlike {!split}, it does not depend on
    how many draws preceded the derivation. The engine keys one stream
    per process by pid (from the root seed), so a process's draw
    sequence does not depend on which other processes exist or how much
    they draw. *)

val copy : t -> t
(** [copy t] duplicates the current state (the two copies then produce
    identical streams). *)

val bits64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val bernoulli : t -> p:float -> bool
(** [bernoulli t ~p] is [true] with probability [p]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed value with the given mean. *)

val uniform_in : t -> lo:float -> hi:float -> float

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniformly random element. The array must be non-empty. *)
