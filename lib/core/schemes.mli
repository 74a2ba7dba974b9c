(** The three execution schemes of section 4.2.

    When [tau(Ci, x)] is unpredictable, the paper considers: (A) statically
    picking the alternative that is best "almost always" (statistical
    information), (B) picking one at random, and (C) running all of them
    concurrently and keeping the fastest. This module evaluates all three
    over a workload — a matrix of per-input execution times — to regenerate
    experiment E6. *)

type workload = {
  description : string;
  times : float array array;  (** [times.(input).(alternative)] seconds. *)
}

val generate :
  rng:Rng.t ->
  inputs:int ->
  alternatives:int ->
  dist:[ `Uniform of float * float | `Exponential of float | `Bimodal of float * float * float ] ->
  description:string ->
  workload
(** Independent draws per (input, alternative). [`Bimodal (fast, slow, p)]
    draws [fast] with probability [p], else [slow] — the "database query"
    regime where an alternative is sometimes lucky. *)

type evaluation = {
  scheme_a : float;  (** Mean time of always running the best-on-average alternative. *)
  scheme_b : float;  (** Expected mean time of random selection. *)
  scheme_c : float;  (** Mean of per-input best, plus overhead. *)
  oracle : float;  (** Mean of per-input best, no overhead. *)
  pi_c_over_b : float;  (** The paper's PI for this workload. *)
}

val evaluate : workload -> overhead:float -> evaluation
