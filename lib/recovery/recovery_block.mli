(** Recovery blocks (Horning et al. 1974) and their distributed execution
    (paper, section 5.1).

    A recovery block gathers several independently written versions of a
    computation and a boolean {e acceptance test}. Sequentially, the primary
    runs first; if the acceptance test fails, the program state is rolled
    back and the next alternate is tried; if all alternates fail, the block
    fails. The paper's transformation runs the alternates concurrently —
    "fastest-first behaviour in an attempt to find a rapid failure-free
    path through the computation" — with the acceptance test folded into
    the guard (section 5.1.1) and majority-consensus synchronisation so
    that fault tolerance is not undermined by a single synchronisation
    point (section 5.1.2). *)

type 'a alternate = {
  name : string;
  version : Engine.ctx -> 'a;
      (** One software version. May update sink state in its
          {!Engine.space} (then {!Engine.charge_memory}); raises or calls
          {!Engine.abort} on internal failure. *)
}

val alternate : ?name:string -> (Engine.ctx -> 'a) -> 'a alternate

type 'a t = {
  alternates : 'a alternate list;
      (** "Typically ordered on the basis of observed or estimated
          characteristics such as reliability and execution speed." *)
  acceptance : Engine.ctx -> 'a -> bool;
      (** The acceptance test, applied to each version's result. *)
}

val make : acceptance:(Engine.ctx -> 'a -> bool) -> 'a alternate list -> 'a t

type 'a result = {
  verdict : [ `Accepted of int * 'a | `Failed ];
      (** The alternate whose result passed the acceptance test, or block
          failure. *)
  elapsed : float;  (** Virtual seconds spent in the block. *)
  attempts : int;
      (** Alternates that ran their version (and acceptance test) to a
          verdict — sequentially: alternates tried, including the accepted
          one; concurrently: {!Concurrent}'s [attempted] count, which
          excludes alternates eliminated before finishing. *)
  rollbacks : int;  (** Sequential state restorations performed. *)
  wasted_cpu : float;  (** Concurrent: CPU burnt by eliminated siblings. *)
}

val run_sequential : Engine.ctx -> 'a t -> 'a result
(** The classical semantics: primary first, rollback and retry on
    acceptance failure. *)

val run_concurrent :
  Engine.ctx -> ?policy:Concurrent.policy -> 'a t -> 'a result
(** The paper's transformation: all alternates race as copy-on-write
    children; an alternate synchronises only if its own acceptance test
    passed, so the winner is the fastest {e accepted} version. *)

val distributed_policy :
  ?nodes:int -> ?crashed:int list -> ?vote_delay:float -> ?reply_timeout:float ->
  ?timeout:float -> unit -> Concurrent.policy
(** A {!Concurrent.policy} using majority-consensus synchronisation
    (default 3 nodes, none crashed), asynchronous elimination — the
    configuration section 5.1.2 prescribes for fault-tolerant distributed
    recovery blocks. *)
