type check_class =
  | At_most_once
  | Transparency
  | World
  | Elimination
  | Isolation
  | Sources
  | Accounting
  | Sanitizer

let all_classes =
  [
    At_most_once;
    Transparency;
    World;
    Elimination;
    Isolation;
    Sources;
    Accounting;
    Sanitizer;
  ]

let class_name = function
  | At_most_once -> "at-most-once"
  | Transparency -> "transparency"
  | World -> "world"
  | Elimination -> "elimination"
  | Isolation -> "isolation"
  | Sources -> "sources"
  | Accounting -> "accounting"
  | Sanitizer -> "sanitizer"

let class_provenance = function
  | At_most_once | Transparency | Elimination | Accounting ->
    "lib/core/concurrent.ml"
  | World -> "lib/runtime/engine.ml"
  | Isolation -> "lib/pages/page_map.ml"
  | Sources -> "lib/sources/source.ml"
  | Sanitizer -> "lib/analysis/sanitizer.ml"

(* ------------------------------------------------------------------ *)
(* The exit-code registry: the single source of truth for every exit
   code altcheck can produce. The CLI table (`altcheck codes`) and the
   docs are derived from this list; checker classes look their codes up
   here by label. *)

type code_info = {
  code : int;
  label : string;
  meaning : string;
  source : string;
}

let registry =
  [
    {
      code = 0;
      label = "ok";
      meaning = "all checks passed";
      source = "bin/altcheck.ml";
    };
    {
      code = 10;
      label = "at-most-once";
      meaning = "the at-most-once synchronisation admitted more than one winner";
      source = class_provenance At_most_once;
    };
    {
      code = 11;
      label = "transparency";
      meaning =
        "surviving state differs from a sequential run of the winner alone";
      source = class_provenance Transparency;
    };
    {
      code = 12;
      label = "world";
      meaning =
        "predicate/world unsoundness: conflicting acceptance, mutated fate, \
         or an unreaped falsified world";
      source = class_provenance World;
    };
    {
      code = 13;
      label = "elimination";
      meaning = "a spawned alternative is unaccounted for or escaped the block";
      source = class_provenance Elimination;
    };
    {
      code = 14;
      label = "isolation";
      meaning = "two live siblings mutated the same physical frame";
      source = class_provenance Isolation;
    };
    {
      code = 15;
      label = "sources";
      meaning = "a speculative process's output reached a source device";
      source = class_provenance Sources;
    };
    {
      code = 16;
      label = "accounting";
      meaning = "report overhead counters disagree with the engine's ledger";
      source = class_provenance Accounting;
    };
    {
      code = 17;
      label = "sanitizer";
      meaning =
        "the online sanitizer and the post-mortem oracle disagree, or a \
         sanitizer-only check fired";
      source = class_provenance Sanitizer;
    };
    {
      code = 20;
      label = "determinism";
      meaning = "a jobs-1 and a jobs-N sweep produced different reports";
      source = "lib/base/parallel.ml";
    };
    {
      code = 21;
      label = "lint-conflict";
      meaning =
        "altlint found alternatives that are provably or conservatively \
         conflicting";
      source = "lib/lint/lint.ml";
    };
    {
      code = 22;
      label = "lint-unknown";
      meaning =
        "altlint could not prove the alternatives exclusive (unknown implies \
         conflicting)";
      source = "lib/lint/lint.ml";
    };
    {
      code = 23;
      label = "serve-chaos";
      meaning =
        "the chaos-serve campaign found invariant violations, a phantom \
         winner, or a determinism divergence";
      source = "lib/serve/chaosserve.ml";
    };
    {
      code = 24;
      label = "serve-degrade";
      meaning =
        "the degradation-ladder benchmark regressed: ladder goodput below \
         the shed-only baseline, violations, or an invalid record";
      source = "lib/serve/chaosserve.ml";
    };
  ]

let code_of_label label =
  match List.find_opt (fun i -> i.label = label) registry with
  | Some i -> i.code
  | None -> invalid_arg ("Report.code_of_label: unregistered label " ^ label)

let code_determinism = code_of_label "determinism"
let code_lint_conflict = code_of_label "lint-conflict"
let code_lint_unknown = code_of_label "lint-unknown"

let class_exit_code c = code_of_label (class_name c)

let severity c =
  let rec idx i = function
    | [] -> invalid_arg "Report.severity"
    | x :: rest -> if x = c then i else idx (i + 1) rest
  in
  idx 0 all_classes

let pp_code_table ppf () =
  Format.fprintf ppf "%-6s %-14s %-28s %s@." "code" "label" "source" "meaning";
  List.iter
    (fun i ->
      Format.fprintf ppf "%-6d %-14s %-28s %s@." i.code i.label i.source
        i.meaning)
    registry

type violation = {
  check : check_class;
  scenario : string;
  policy : string;
  seed : int;
  detail : string;
}

let violation check ~scenario ~policy ~seed detail =
  { check; scenario; policy; seed; detail }

let pp_violation ppf v =
  Format.fprintf ppf "%s:%s: %s (scenario %s, policy %s, seed %d)"
    (class_provenance v.check) (class_name v.check) v.detail v.scenario
    v.policy v.seed

let exit_code = function
  | [] -> 0
  | vs ->
    let worst =
      List.fold_left
        (fun acc v -> if severity v.check < severity acc then v.check else acc)
        (List.hd vs).check vs
    in
    class_exit_code worst
