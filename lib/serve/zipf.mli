(** Zipf-distributed tenant picks by inversion over a precomputed CDF.

    Tenant [k] of [n] gets weight [(k+1)^-s]. A pick maps a uniform
    [u] in [\[0, 1)] to the smallest [k] with [u <= cdf.(k)]. {!search}
    is the reference binary search; {!pick} answers the same question
    through a guide table of {!buckets} entries, so an arrival costs a
    table load and a short forward scan instead of [log2 n] probes. *)

val cdf : tenants:int -> s:float -> float array
(** The cumulative weights, normalised, with the last entry set to
    exactly [1.0]. [tenants] must be at least 1. *)

val search : float array -> float -> int
(** [search cdf u] is the smallest [k] with [u <= cdf.(k)], found by
    binary search ([n - 1] when there is none). *)

type t
(** A CDF with its guide table. *)

val buckets : int
(** Entries in the guide table (256): bucket [b] covers
    [\[b / buckets, (b + 1) / buckets)]. *)

val table : tenants:int -> s:float -> t
(** [cdf ~tenants ~s] with its guide table. *)

val pick : t -> float -> int
(** [pick t u] equals [search (cdf ~tenants ~s) u] for every [u] in
    [\[0, 1)], the only values it accepts. It starts at the entry of
    [u]'s bucket [b], which is [search cdf (b / buckets)], and scans
    forward while [u] is above the CDF. That is the binary search's
    answer whenever [u <= cdf.(k)] is monotone in [k] for every such
    [u], as running sums of non-negative weights are. When it is not
    (an exponent so negative that the weights overflow and the CDF
    holds NaN), the table has no guide and [pick] is {!search}. *)
