(** The paper's analytic performance model (section 4).

    Concurrent execution of the alternatives [C1..CN] on input [x] costs
    [tau(C_best, x) + tau(overhead)], to be compared against the
    nondeterministic sequential baseline whose expected cost is the
    arithmetic mean of the [tau(Ci, x)]. The performance improvement is

    {v PI = tau(C_mean, x) / (tau(C_best, x) + tau(overhead)) v}

    and the parallel execution wins iff [PI > 1]. The overhead covers
    creating the execution environments (process-table entries and page
    map tables for [C1..CN]), copying shared memory on update plus cycles
    lost to siblings sharing processors, and selecting [C_best] (deleting
    the others and cleaning up). *)

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
