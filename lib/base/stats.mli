(** Small descriptive-statistics helpers used by the benchmark harness and
    the analytic model (section 4 of the paper reasons about means and
    dispersion of execution times). *)

val mean : float array -> float
(** Arithmetic mean. Raises [Invalid_argument] on an empty array. *)

val min : float array -> float

val percentile : float array -> p:float -> float
(** [percentile xs ~p] with [p] in [\[0,100\]], linear interpolation between
    order statistics. The input need not be sorted. *)

val median : float array -> float

type summary = {
  n : int;
  mean : float;
  stddev : float;  (** Population standard deviation. *)
  min : float;
  max : float;
  median : float;
}

val summarize : float array -> summary
