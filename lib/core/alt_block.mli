(** Alternative blocks: shared outcome type and the sequential reference
    semantics.

    The meaning of a block is that "one of the alternatives (including
    failure) is selected non-deterministically" (section 2). The
    transparent concurrent execution of {!Concurrent} must be
    indistinguishable from some run of this module's sequential
    implementations. *)

(** The observable result of executing a block. *)
type 'a outcome =
  | Selected of { index : int; value : 'a }
      (** Alternative [index] (0-based) was applied; its state changes took
          effect and it returned [value]. *)
  | Block_failed of string
      (** The FAIL branch: no alternative succeeded (or none synchronised
          in time, in the concurrent case). *)

val attempt : Engine.ctx -> 'a Alternative.t -> ('a, string) result
(** Run one alternative in the calling process against its sink state,
    rolling the state back from a copy-on-write snapshot if the guard or
    body fails (raises {!Alternative.Failed} or calls {!Engine.abort}).
    The building block of {!run_first} and of sequential recovery
    blocks. *)

val run_first : Engine.ctx -> 'a Alternative.t list -> 'a outcome
(** Try the alternatives in the given order; apply the first whose guard
    holds and whose body succeeds. Failed trials are rolled back: sink
    state written by a failed body is restored from a copy-on-write
    snapshot taken before the trial (charging fork and restore costs), so a
    later alternative starts from the block-entry state. *)
