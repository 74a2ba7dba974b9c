(** Indexed names from precomputed tables.

    Processes and alternatives are named by index (["voter2"],
    ["ctr0[0]"], ["alt-parent.e1"]), and a served request spawns several
    of them. Formatting each name with [Printf] costs far more than the
    name is worth, so the common indices are formatted once. *)

val indexed : int -> (int -> string) -> int -> string
(** [indexed n f] behaves as [f], with [f 0] .. [f (n - 1)] computed once,
    up front; any other index falls back to calling [f]. *)
