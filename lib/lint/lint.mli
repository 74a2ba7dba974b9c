(** altlint: static alternative-independence analysis.

    Two analyses prove, before anything runs, that the members of an
    alternative block are {e mutually exclusive} — at most one of them can
    ever reach its synchronisation point successfully:

    - {!check_goal} examines the OR branches of a Prolog goal (the clauses
      whose heads unify with it, exactly {!Solve.branches}) and attempts a
      syntactic mutual-exclusivity proof: goal-instantiation discrimination
      (at most one clause head unifies), static failure (a top-level body
      conjunct is [fail]/[false], so the branch can never succeed), and
      complementary guard prefixes (one branch tests [X < Y] where another
      tests [Y =< X] on syntactically equal arguments). Two facts that both
      unify with the goal are a definite overlap {e witness}.
    - {!check_footprints} compares the {e declared} effect footprints
      ({!Alternative.footprint}) of a block's alternatives: write ranges,
      source-device use and message endpoints. Alternatives that declare no
      footprint are conservatively treated as conflicting with everything
      ({e unknown} implies {e conflicting}).

    Both analyses are {e sound for exclusivity}: an {!Independent} verdict
    is a proof, never a guess; anything unproven is {!Unknown}. A proven
    verdict licenses the consensus-elision fast path
    ([Concurrent.run ~exclusive:true]): when at most one alternative can
    synchronise, the distributed 0-1 semaphore decides nothing, and a local
    latch yields a byte-identical winner without the vote traffic
    (DESIGN.md section 7). *)

(** The three-valued result of either analysis. *)
type verdict =
  | Independent of { proof : string }
      (** Proven: at most one alternative can succeed (OR-branches), or the
          declared footprints are pairwise disjoint (footprint analysis). *)
  | Conflicting of { witness : string }
      (** Definitely not exclusive, with a concrete witness (two facts both
          unifying with the goal; two footprints naming the same page range,
          source, or endpoint). *)
  | Unknown of { reason : string }
      (** The analysis could not decide. Callers must treat this exactly
          like {!Conflicting} when deciding whether to elide consensus. *)

type finding = {
  target : string;  (** The goal (printed) or the block label. *)
  kind : string;  (** ["or-branches"] or ["footprints"]. *)
  branches : int;  (** Alternatives or unifying clauses examined. *)
  verdict : verdict;
}

val check_goal : Database.t -> Term.t -> finding
(** Analyse the OR branches of [goal] against the database. *)

val check_footprints : label:string -> 'a Alternative.t list -> finding
(** Compare the declared footprints of a block's alternatives pairwise.
    Any alternative with no declared footprint makes the verdict
    {!Unknown} (unknown implies conflicting). *)

val verdict_name : verdict -> string
(** ["independent"], ["conflicting"] or ["unknown"]. *)

val verdict_detail : verdict -> string
(** The proof, witness or reason. *)

val finding_to_json : finding -> string
(** One finding as a single-line JSON object
    [{"target":...,"kind":...,"branches":N,"verdict":...,"detail":...}]. *)

val pp_finding : Format.formatter -> finding -> unit

val exit_code : finding list -> int
(** [0] when every finding is {!Independent};
    {!Report.code_lint_conflict} (21) when any is {!Conflicting};
    otherwise {!Report.code_lint_unknown} (22). *)
