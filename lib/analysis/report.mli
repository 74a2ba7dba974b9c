(** Structured findings of the analysis layer.

    Every checker names its findings with a {!check_class}; the classes map
    to distinct process exit codes so that scripted runs of [altcheck] can
    tell {e which} invariant of the paper broke without parsing output. All
    exit codes [altcheck] can produce — checker classes, the determinism
    contract, and the lint verdicts — live in one registry; the CLI
    table ([altcheck codes]) and the docs are derived from it. *)

(** The invariant families, in severity order (most fundamental first). *)
type check_class =
  | At_most_once
      (** Exactly one alternative synchronises; everyone else is too late
          (section 3.2: the at-most-once synchronisation). *)
  | Transparency
      (** The surviving state and result are bit-identical to a sequential
          execution of the winning alternative alone (section 3). *)
  | World
      (** Predicate/world soundness: no acceptance of a conflicting
          message, immutable fates, falsified worlds eliminated
          (sections 3.3-3.4). *)
  | Elimination
      (** Every spawned alternative is accounted for: one exit each, only
          the winner succeeds, losers terminate (section 3.2.1). *)
  | Isolation
      (** No two live siblings mutate the same physical frame: sink state
          updates are privatised copy-on-write (section 3.3). *)
  | Sources
      (** No speculative process's output reaches a source device
          (section 3.4.2). *)
  | Accounting
      (** The execution report's overhead counters reconcile with the
          engine's own measurements (section 4). *)
  | Sanitizer
      (** The online sanitizer ({!Sanitizer}) and the post-mortem checkers
          disagree on a run — one of the two monitors is wrong, which is
          itself a finding. Streaming flags that mirror a post-mortem class
          are reported under {e that} class; this class only covers
          divergence between the two. *)

val class_name : check_class -> string
(** Short stable identifier, e.g. ["at-most-once"]. *)

(** {1 The exit-code registry} *)

type code_info = {
  code : int;  (** The process exit code. *)
  label : string;  (** Stable identifier ({!class_name} for checker classes). *)
  meaning : string;  (** One-line account, used by the CLI table and docs. *)
  source : string;  (** The source file the code's logic lives in. *)
}

val code_of_label : string -> int
(** Look a code up by its label. Raises [Invalid_argument] on labels not in
    the registry. *)

val code_determinism : int
(** Exit code of a jobs-1 vs jobs-N report mismatch (20). *)

val code_lint_conflict : int
(** Exit code when [altcheck lint] finds conflicting alternatives (21). *)

val code_lint_unknown : int
(** Exit code when [altcheck lint] cannot analyse its input (22). *)

val pp_code_table : Format.formatter -> unit -> unit
(** The registry as an aligned text table, one code per line — what
    [altcheck codes] prints and what the README quotes. *)

type violation = {
  check : check_class;
  scenario : string;  (** Which workload tripped it. *)
  policy : string;  (** {!Concurrent.describe} of the policy in force. *)
  seed : int;
  detail : string;  (** Human-readable account of the failure. *)
}

val violation :
  check_class -> scenario:string -> policy:string -> seed:int -> string ->
  violation

val pp_violation : Format.formatter -> violation -> unit
(** One line: [check: detail (scenario, policy, seed)]. It names no
    file: a class's [source] ({!pp_code_table}) is where its check is
    defined, not where a violation was found. *)

val exit_code : violation list -> int
(** [0] for no violations; otherwise the exit code of the most severe
    class present (severity = declaration order of {!check_class}). *)
