(** The paper's analytic performance model (section 4).

    Concurrent execution of the alternatives [C1..CN] on input [x] costs
    [tau(C_best, x) + tau(overhead)], to be compared against the
    nondeterministic sequential baseline whose expected cost is the
    arithmetic mean of the [tau(Ci, x)]. The performance improvement is

    {v PI = tau(C_mean, x) / (tau(C_best, x) + tau(overhead)) v}

    and the parallel execution wins iff [PI > 1]. *)

type overhead = {
  setup : float;
      (** Creating execution environments: process-table entries and page
          map tables for [C1..CN]. *)
  runtime : float;
      (** Copying shared memory areas on update, plus cycles lost to
          siblings when alternatives share processors. *)
  selection : float;
      (** Choosing [C_best]: deleting the others and cleaning up. *)
}

val overhead_total : overhead -> float
val zero_overhead : overhead

val pi : times:float array -> overhead:float -> float
(** The performance improvement ratio. [times] must be non-empty and
    [overhead] non-negative. *)

val wins : times:float array -> overhead:float -> bool
(** [pi > 1]: the condition
    [tau(C_best) + tau(overhead) < (sum tau(Ci)) / N]. *)

val break_even_overhead : times:float array -> float
(** Largest overhead at which concurrent execution still ties the
    sequential baseline: [mean - best]. Negative dispersion is impossible,
    so this is always [>= 0]. *)

(** {2 The section 4.3 example table}

    Three methods, overhead 5, six rows. The paper reports PI rounded to
    the printed precision; {!table_4_3} recomputes it exactly. *)

type row = {
  label : string;
  times : float array;
  overhead : float;
  pi_value : float;  (** Recomputed. *)
  pi_paper : float;  (** As printed in the paper. *)
}

val table_4_3 : unit -> row list

val pp_row : Format.formatter -> row -> unit
