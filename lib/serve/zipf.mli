(** Zipf-distributed tenant picks by inversion over a precomputed CDF.

    Tenant [k] of [n] gets weight [(k+1)^-s]. A pick maps a uniform
    [u] in [\[0, 1)] to the smallest [k] with [u <= cdf.(k)], where the
    CDF holds the normalised cumulative weights with the last entry set
    to exactly [1.0]. A binary search answers that in [log2 n] probes;
    {!pick} answers it through a guide table of 256 entries, so an
    arrival costs a table load and a short forward scan. *)

type t
(** A CDF with its guide table. *)

val table : tenants:int -> s:float -> t
(** The CDF of [tenants] (at least 1) at exponent [s], with its guide
    table. *)

val pick : t -> float -> int
(** [pick t u] equals the binary search's answer for every [u] in
    [\[0, 1)], the only values it accepts. It starts at the entry of
    [u]'s bucket [b], which is the search's answer at [b / 256], and
    scans forward while [u] is above the CDF. That is the binary
    search's answer whenever [u <= cdf.(k)] is monotone in [k] for every
    such [u], as running sums of non-negative weights are. When it is
    not (an exponent so negative that the weights overflow and the CDF
    holds NaN), the table has no guide and [pick] is the search. *)
