(** The engine's per-(sender, logical destination) FIFO clocks: for every
    pair some process has sent on since the last {!reset}, the latest
    delivery time scheduled on it, so that no send is delivered before an
    earlier one on the same pair.

    One table per engine, open-addressed over parallel arrays: a pair's
    slot index stays valid until the next {!slot} that inserts (which may
    move every pair) or {!reset}. Its keys are the pair itself, so they
    are injective over every pair of ints; a slot is free while its
    sender reads -1, which no sender's pid is (the engine issues pids
    from 0). A destination may be any int, a forged -1 or [max_int]
    included.

    A pair whose clock is at or before the engine's time can no longer
    hold a send back, as long as a send is never scheduled before the
    time it is made: such a pair reads as absent. So when a {!slot}
    finds the table full, a table made with [~reclaim:true] first drops
    those pairs, and grows only if that leaves it more than a quarter
    full: the table of an engine that runs on without a reset grows with
    the pairs whose clocks are still ahead, not with every pair ever
    sent on. *)

type t

val create : clock:floatarray -> reclaim:bool -> t
(** An empty table; it builds its arrays at the first {!slot}. [clock]
    is the engine's clock cell ([clock.(Cpu.now_slot)] is the time).
    [reclaim] must be [false] unless every send is scheduled at or after
    the time it is made. *)

val slot : t -> sender:int -> dest:int -> int
(** The slot of the pair, inserted with clock [neg_infinity] if absent.
    Raises [Invalid_argument] if [sender] is negative. *)

val get : t -> int -> float
(** The clock in a slot {!slot} returned. *)

val set : t -> int -> float -> unit

val reset : t -> unit
(** Forget every pair: clear each slot written since the last reset, in
    place, keeping the arrays' capacity. Allocates nothing. *)
