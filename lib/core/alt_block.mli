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
    body fails. The building block of the sequential strategies below and
    of sequential recovery blocks. *)

val run_first : Engine.ctx -> 'a Alternative.t list -> 'a outcome
(** Try the alternatives in the given order; apply the first whose guard
    holds and whose body succeeds. Failed trials are rolled back: sink
    state written by a failed body is restored from a copy-on-write
    snapshot taken before the trial (charging fork and restore costs), so a
    later alternative starts from the block-entry state. *)

val run_random : Engine.ctx -> rng:Rng.t -> 'a Alternative.t list -> 'a outcome
(** The paper's Scheme B: select one alternative uniformly at random and
    commit to it — succeed or fail with it, no retry. Repeated over many
    inputs this costs the arithmetic mean of the alternatives' times. *)

val run_oracle : Engine.ctx -> costs:float array -> 'a Alternative.t list -> 'a outcome
(** An oracle baseline: runs only the alternative with the smallest
    announced cost (the caller, e.g. a benchmark that constructed the
    alternatives, knows their [tau(Ci, x)]). This is [tau(C_best)] with no
    overhead — the ideal that concurrent execution approaches from
    above. *)
