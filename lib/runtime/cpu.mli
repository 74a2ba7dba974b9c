(** Egalitarian processor sharing: the engine's CPU.

    [n] runnable tasks share the processors, each progressing at rate
    [min 1 (c / n)] under [Cores c] and at rate 1 under [Infinite]. A task
    is a pid with some seconds of demand left and an opaque payload,
    handed back when the demand runs out.

    The float arithmetic fixes every virtual timestamp, and so every
    digest. Each task's remaining demand is charged [elapsed *. rate] at
    every {!add}, {!remove} and {!tick}, where [elapsed] is the time since
    the last of them and [rate] is read before the table changes. The
    next tick is due at [Float.max (now +. min_rem /. rate) now], with
    [rate] read after it changes. It lives in the event queue's slot, not
    its heap: each reschedule re-keys the slot (or clears it when no task
    is left), and a re-key takes a fresh sequence number even when the
    time is unchanged. *)

(** CPU capacity: [Infinite] gives every task its own processor; [Cores c]
    shares [c] of them. *)
type cores = Infinite | Cores of int

type ('p, 'e) t
(** A CPU holding tasks with payloads of type ['p], whose pending tick is
    an ['e] in the event queue's slot. *)

val now_slot : int
val demand_slot : int
(** The slots of the engine's clock cell the CPU reads: [clock.(now_slot)]
    is the virtual time of every charge, and [clock.(demand_slot)] the
    demand {!add} gives its task. A cell, not arguments, so that no call
    here boxes a float. *)

val create :
  cores -> 'e Event_queue.t -> clock:floatarray -> tick:'e -> empty:'p -> ('p, 'e) t
(** No task, no CPU used, last charged at time 0. [clock] is the engine's
    clock cell (above). [tick] is the event the slot holds while a tick
    is pending; running it must call {!tick}. [empty] fills the payload
    slots no task holds, so a finished task's payload is not retained.
    [cores] is not validated: [Cores c] with [c < 1] never finishes a
    task. *)

val add : ('p, 'e) t -> Pid.t -> 'p -> unit
(** [add t pid p] charges every task up to now, then makes [pid] runnable
    with [clock.(demand_slot)] seconds of demand and payload [p]
    (replacing its task if it has one), and reschedules the tick. *)

val remove : ('p, 'e) t -> Pid.t -> unit
(** Charge every task up to now, drop [pid]'s task and reschedule the
    tick. Does nothing, not even the charge, if [pid] has no task. *)

val tick : ('p, 'e) t -> int
(** Charge every task up to now, drop those whose demand ran out (within
    [1e-12]), reschedule the tick, and return how many were dropped. Their
    payloads, in pid order, are {!take_finished} [0] to [n - 1], held in a
    buffer the CPU reuses, so a tick builds no list. *)

val take_finished : ('p, 'e) t -> int -> 'p
(** [take_finished t i]: the [i]th payload the last {!tick} dropped. The
    buffer forgets it, so a finished task's payload is not retained. *)

val used : ('p, 'e) t -> Pid.t -> float
(** CPU seconds charged to the pid so far; 0 for a pid never added. *)

val total : ('p, 'e) t -> float
(** The sum of {!used} over every pid, added in pid order. *)

val reset : ('p, 'e) t -> unit
(** Drop every task and clear the queue's slot, zero the CPU charged to
    every pid ever added, and charge from time 0 again: the state
    {!create} leaves, with the tables' capacity kept. *)
