(* altcheck: verify executions against the paper's invariants.

     altcheck run [--seeds N]           run the clean scenario x policy matrix
     altcheck run --list                enumerate scenarios and policies
     altcheck run --jobs 8              fan the matrix out over 8 domains
     altcheck run -s counters           restrict to named scenarios
     altcheck fuzz [--seeds N]          re-run the invariant checkers under
                                        fault-injection campaigns
     altcheck sites [--seeds N]         run supervised (coordinator-recovery)
                                        blocks under site-crash and
                                        partition campaigns
     altcheck run/fuzz/sites --verify-determinism
                                        re-execute every cell and fail on
                                        any byte-level divergence
     altcheck run/fuzz/sites --sanitize attach the online sanitizer to every
                                        run and cross-check it against the
                                        post-mortem checkers
     altcheck run/fuzz/sites --dump-trace F.jsonl
                                        dump a trace (first violating cell,
                                        else the last cell) as JSON Lines
     altcheck lint [-f F.pl -g GOAL]    statically analyse OR-branch mutual
                                        exclusivity and alternative
                                        footprints (JSON findings via --json)
     altcheck lint --bench              measure the consensus-elision fast
                                        path and emit BENCH_lint.json
     altcheck codes                     print the exit-code registry

   run, fuzz and sites are one command ([campaign_cmd]) over one runner
   ({!Campaign.run}): run sweeps the clean family, fuzz the
   message-campaign family, sites the site-campaign family, and the three
   differ only in their defaults and wording.

   Exit code 0 when every run satisfies every invariant; otherwise the
   exit code of the most severe violated class. Every code altcheck can
   produce lives in Report.registry ('altcheck codes' prints the table). *)

(* The Prolog term module, captured before [open Cmdliner] shadows it
   with Cmdliner.Term. *)
module Prolog_term = Term

open Cmdliner

let jobs_arg =
  Arg.(
    value
    & opt int (Parallel.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the sweep (default: one per core). The \
           violation report is identical for every value of $(docv).")

let sanitize_arg =
  Arg.(
    value & flag
    & info [ "sanitize" ]
        ~doc:
          "Attach the online happens-before sanitizer to every run: vector \
           clocks, streaming invariant checks, and a cross-check against \
           the post-mortem checkers. Agreement leaves the report \
           byte-identical; divergence is itself a violation (exit 17).")

(* ---------------- run / fuzz / sites ---------------- *)

(* Resolve named items against [all] (every item when no name is given);
   an unknown name exits 1 with a pointer to where the names are listed. *)
let pick what hint name_of all = function
  | [] -> all
  | names ->
    List.map
      (fun n ->
        match List.find_opt (fun x -> name_of x = n) all with
        | Some x -> x
        | None ->
          Printf.eprintf "unknown %s %S; try '%s'\n" what n hint;
          exit 1)
      names

(* Write [c]'s event trace as JSON Lines. The sweep's engines record no
   trace, so the cell is executed once more with a recorder: a cell's run
   is a function of the cell, so this is the execution the sweep judged. *)
let dump_trace ~sanitize file which c =
  let rr, _ = Campaign.execute ~record:true ~sanitize c in
  let oc =
    try open_out file
    with Sys_error m ->
      Printf.eprintf "cannot write trace: %s\n" m;
      exit 1
  in
  output_string oc (Trace.to_jsonl (Engine.trace rr.Invariants.engine));
  close_out oc;
  Printf.printf "trace of %s cell %s written to %s\n" which
    (Campaign.describe_cell c) file

(* How a campaign command names and describes the family it sweeps. *)
type campaign_cli = {
  cli_name : string;
  cli_doc : string;
  cli_label : string;  (* the summary line reads "<n> <label> runs" *)
  cli_scenario_doc : string;
  cli_list_doc : string;
  cli_family : Campaign.family;
}

let campaign_cmd cli =
  let family = cli.cli_family in
  (* A site family runs on a fixed topology, which its --list names. *)
  let supervised =
    List.exists (fun c -> c.Campaign.cg_supervised) family.Campaign.fm_campaigns
  in
  let list_hint = Printf.sprintf "altcheck %s --list" cli.cli_name in
  let seeds =
    Arg.(
      value
      & opt int family.Campaign.fm_seeds
      & info [ "seeds" ] ~docv:"N"
          ~doc:"Seeds per (scenario, campaign, policy) cell.")
  in
  let names =
    Arg.(
      value & opt_all string []
      & info [ "s"; "scenario" ] ~docv:"NAME" ~doc:cli.cli_scenario_doc)
  in
  let campaign_names =
    Arg.(
      value & opt_all string []
      & info [ "c"; "campaign" ] ~docv:"NAME"
          ~doc:"Campaign to run (repeatable); default: all of them.")
  in
  let verify =
    Arg.(
      value & flag
      & info [ "verify-determinism" ]
          ~doc:
            "Execute every cell twice and fail (exit 20) unless summaries \
             and violation reports are byte-identical.")
  in
  let list_campaigns =
    Arg.(value & flag & info [ "list" ] ~doc:cli.cli_list_doc)
  in
  let dump =
    Arg.(
      value & opt (some string) None
      & info [ "dump-trace" ] ~docv:"FILE"
          ~doc:
            "Write one cell's event trace as JSON Lines: the first violating \
             cell if any, otherwise the last cell of the sweep.")
  in
  let quiet =
    Arg.(
      value & flag
      & info [ "q"; "quiet" ]
          ~doc:"Print only violations, mismatches and the summary.")
  in
  let run seeds names campaign_names verify list_campaigns dump quiet jobs
      sanitize =
    if list_campaigns then begin
      if supervised then
        Printf.printf "topology: %s\n" (String.concat " " Campaign.site_names);
      Printf.printf "campaigns:\n";
      let width =
        List.fold_left
          (fun w c -> max w (String.length c.Campaign.cg_name + 1))
          0 family.Campaign.fm_campaigns
      in
      List.iter
        (fun c ->
          Printf.printf "  %-*s%s\n" width c.Campaign.cg_name c.Campaign.cg_doc)
        family.Campaign.fm_campaigns;
      Printf.printf "policies (%d):\n"
        (List.length family.Campaign.fm_policies);
      List.iter
        (fun p -> Printf.printf "  %s\n" (Concurrent.describe p))
        family.Campaign.fm_policies;
      Printf.printf "scenarios:\n";
      List.iter
        (fun s ->
          Printf.printf "  %s%s\n" s.Invariants.sc_name
            (if s.Invariants.uses_source then " (uses a source device)"
             else ""))
        family.Campaign.fm_scenarios;
      exit 0
    end;
    let scenarios =
      pick "scenario" list_hint
        (fun s -> s.Invariants.sc_name)
        family.Campaign.fm_scenarios names
    in
    let campaigns =
      pick "campaign" list_hint
        (fun c -> c.Campaign.cg_name)
        family.Campaign.fm_campaigns campaign_names
    in
    let cells =
      Campaign.cells
        {
          family with
          Campaign.fm_seeds = seeds;
          fm_scenarios = scenarios;
          fm_campaigns = campaigns;
        }
    in
    let result = Campaign.run ~jobs ~verify ~sanitize cells in
    (* Results are in cell order, so everything below — the summary
       lines, the violation listing, the dumped cell and the exit code —
       is independent of [jobs]. *)
    if not quiet then List.iter print_endline result.Campaign.lines;
    List.iter
      (fun v -> Format.printf "%a@." Report.pp_violation v)
      result.Campaign.violations;
    (match result.Campaign.first_failing with
    | Some c ->
      Printf.printf "minimal failing cell: %s\n" (Campaign.describe_cell c)
    | None -> ());
    List.iter
      (fun m -> Printf.printf "DETERMINISM MISMATCH: %s\n" m)
      result.Campaign.mismatches;
    Printf.printf "%d %s runs%s, %d violations%s\n" result.Campaign.cells_run
      cli.cli_label
      (if verify then " (each executed twice)" else "")
      (List.length result.Campaign.violations)
      (if verify then
         Printf.sprintf ", %d determinism mismatches"
           (List.length result.Campaign.mismatches)
       else "");
    (match (dump, result.Campaign.first_failing) with
    | Some file, Some c -> dump_trace ~sanitize file "first violating" c
    | Some file, None when Array.length cells > 0 ->
      dump_trace ~sanitize file "last" cells.(Array.length cells - 1)
    | _ -> ());
    if result.Campaign.mismatches <> [] then exit Report.code_determinism;
    exit (Report.exit_code result.Campaign.violations)
  in
  Cmd.v
    (Cmd.info cli.cli_name ~doc:cli.cli_doc)
    Term.(
      const run $ seeds $ names $ campaign_names $ verify $ list_campaigns
      $ dump $ quiet $ jobs_arg $ sanitize_arg)

let run_cmd =
  campaign_cmd
    {
      cli_name = "run";
      cli_doc =
        "Run the invariant checkers over the clean scenario x policy matrix.";
      cli_label = "clean";
      cli_scenario_doc =
        "Scenario to check (repeatable); see $(b,altcheck run --list).";
      cli_list_doc = "List the scenarios and the policy matrix, then exit.";
      cli_family = Campaign.clean;
    }

let fuzz_cmd =
  campaign_cmd
    {
      cli_name = "fuzz";
      cli_doc =
        "Run the invariant checkers under deterministic fault-injection \
         campaigns (scenario x campaign x policy x seed matrix).";
      cli_label = "fuzzed";
      cli_scenario_doc =
        "Scenario to fuzz (repeatable); see $(b,altcheck fuzz --list).";
      cli_list_doc =
        "List the campaigns, fuzz policies and scenarios, then exit.";
      cli_family = Campaign.messages;
    }

let sites_cmd =
  campaign_cmd
    {
      cli_name = "sites";
      cli_doc =
        "Run supervised blocks (coordinator recovery) under deterministic \
         site-crash and network-partition campaigns.";
      cli_label = "site-faulted";
      cli_scenario_doc =
        "Scenario to run (repeatable); sourceless scenarios only — see \
         $(b,altcheck sites --list).";
      cli_list_doc =
        "List the site campaigns, policies and scenarios, then exit.";
      cli_family = Campaign.sites;
    }

(* ---------------- lint ---------------- *)

(* The built-in lint suite: the OR-parallel route-planning program from
   examples/prolog_or.ml. All three plan/1 strategies unify with the
   goal, two of them end in a top-level fail — a static proof that at
   most one branch can ever synchronise. *)
let builtin_program =
  {|
  burn(0).
  burn(N) :- N > 0, M is N - 1, burn(M).
  plan(rail(X)) :- burn(4000), member(X, []), fail.
  plan(ferry(X)) :- burn(6000), member(X, []), fail.
  plan(fly(direct)) :- burn(150).
|}

let builtin_goals = [ "plan(P)"; "burn(3000)" ]

let lint_db file =
  let db = Database.with_prelude () in
  (match file with
  | None -> ignore (Database.add_program db builtin_program)
  | Some f ->
    let ic =
      try open_in f
      with Sys_error m ->
        Printf.eprintf "cannot read %s: %s\n" f m;
        exit 1
    in
    let len = in_channel_length ic in
    let src = really_input_string ic len in
    close_in ic;
    (try ignore (Database.add_program db src) with
    | Parser.Parse_error m ->
      Printf.eprintf "%s: parse error: %s\n" f m;
      exit 1
    | Lexer.Lex_error { pos; message } ->
      Printf.eprintf "%s: lex error at %d: %s\n" f pos message;
      exit 1));
  db

let parse_goal g =
  try fst (Parser.query g) with
  | Parser.Parse_error m ->
    Printf.eprintf "bad goal %S: %s\n" g m;
    exit 1
  | Lexer.Lex_error { pos; message } ->
    Printf.eprintf "bad goal %S: lex error at %d: %s\n" g pos message;
    exit 1

let consensus_bench_policy =
  {
    Concurrent.default_policy with
    Concurrent.sync =
      Concurrent.Consensus
        { nodes = 3; crashed = []; vote_delay = 0.0002; reply_timeout = 0.05 };
  }

let solution_string = function
  | None -> "-"
  | Some bindings ->
    String.concat ","
      (List.map
         (fun (v, t) -> Printf.sprintf "%d=%s" v (Prolog_term.to_string t))
         bindings)

let lint_bench db goal out validate =
  let finding = Lint.check_goal db goal in
  let exclusive = match finding.Lint.verdict with
    | Lint.Independent _ -> true
    | Lint.Conflicting _ | Lint.Unknown _ -> false
  in
  if not exclusive then begin
    Printf.eprintf
      "refusing to bench consensus elision: goal %s is not proven exclusive \
       (%s)\n"
      finding.Lint.target
      (Lint.verdict_detail finding.Lint.verdict);
    exit (Lint.exit_code [ finding ])
  end;
  (* Same goal, same seed, same policy: the only difference is the voter
     group. The winner and its bindings must be byte-identical; the
     elided run must not be slower. *)
  let base = Or_parallel.solve_sim ~policy:consensus_bench_policy db goal in
  let fast =
    Or_parallel.solve_sim ~policy:consensus_bench_policy ~exclusive:true db goal
  in
  let winner b = match b with Some i -> string_of_int i | None -> "-" in
  let identical =
    base.Or_parallel.winner_branch = fast.Or_parallel.winner_branch
    && solution_string base.Or_parallel.first_solution
       = solution_string fast.Or_parallel.first_solution
  in
  let delta = base.Or_parallel.par_time -. fast.Or_parallel.par_time in
  let json =
    String.concat "\n"
      [
        "{";
        Printf.sprintf "  %S: %S," "benchmark" "lint-consensus-elision";
        Printf.sprintf "  %S: %S," "goal" finding.Lint.target;
        Printf.sprintf "  %S: %S," "verdict" (Lint.verdict_name finding.Lint.verdict);
        Printf.sprintf "  %S: %S," "proof" (Lint.verdict_detail finding.Lint.verdict);
        Printf.sprintf "  %S: %d," "branches" finding.Lint.branches;
        Printf.sprintf "  %S: %S," "winner_consensus" (winner base.Or_parallel.winner_branch);
        Printf.sprintf "  %S: %S," "winner_elided" (winner fast.Or_parallel.winner_branch);
        Printf.sprintf "  %S: %S," "solution_consensus"
          (solution_string base.Or_parallel.first_solution);
        Printf.sprintf "  %S: %S," "solution_elided"
          (solution_string fast.Or_parallel.first_solution);
        Printf.sprintf "  %S: %b," "winner_identical" identical;
        Printf.sprintf "  %S: %.9f," "par_time_consensus_s" base.Or_parallel.par_time;
        Printf.sprintf "  %S: %.9f," "par_time_elided_s" fast.Or_parallel.par_time;
        Printf.sprintf "  %S: %.9f," "sync_overhead_saved_s" delta;
        Printf.sprintf "  %S: %.6f" "overhead_saved_pct"
          (if base.Or_parallel.par_time > 0. then
             100. *. delta /. base.Or_parallel.par_time
           else 0.);
        "}";
        "";
      ]
  in
  let oc =
    try open_out out
    with Sys_error m ->
      Printf.eprintf "cannot write %s: %s\n" out m;
      exit 1
  in
  output_string oc json;
  close_out oc;
  Printf.printf
    "%s: winner %s (consensus) vs %s (elided), identical=%b; %.6fs -> %.6fs \
     (saved %.6fs)\n"
    out
    (winner base.Or_parallel.winner_branch)
    (winner fast.Or_parallel.winner_branch)
    identical base.Or_parallel.par_time fast.Or_parallel.par_time delta;
  if validate then begin
    if not identical then begin
      Printf.eprintf
        "validation FAILED: elided winner differs from the consensus winner\n";
      exit 2
    end;
    if delta < 0. then begin
      Printf.eprintf
        "validation FAILED: eliding consensus made the block slower \
         (%.9fs -> %.9fs)\n"
        base.Or_parallel.par_time fast.Or_parallel.par_time;
      exit 3
    end;
    Printf.printf "elision ok: winner identical, %.6fs overhead saved\n" delta
  end;
  exit 0

let lint_cmd =
  let doc =
    "Statically analyse alternative independence: OR-branch mutual \
     exclusivity over a Prolog database, and declared effect-footprint \
     conflicts. Exit 0 only when every finding is proven independent; \
     conflicts exit 21, undecided findings exit 22 ($(b,altcheck codes))."
  in
  let file =
    Arg.(
      value
      & opt (some string) None
      & info [ "f"; "file" ] ~docv:"FILE.pl"
          ~doc:
            "Prolog program to analyse (with the standard prelude loaded). \
             Default: the built-in OR-parallel route-planning suite.")
  in
  let goals =
    Arg.(
      value & opt_all string []
      & info [ "g"; "goal" ] ~docv:"GOAL"
          ~doc:
            "Goal whose OR branches to analyse (repeatable). Default: the \
             built-in suite's goals.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit findings as JSON Lines (one object per finding).")
  in
  let bench =
    Arg.(
      value & flag
      & info [ "bench" ]
          ~doc:
            "Measure the consensus-elision fast path on the (single) goal: \
             race the OR branches under 3-node consensus, then again with \
             the proven-exclusive verdict eliding the voters, and write a \
             JSON record comparing winners and overhead.")
  in
  let out =
    Arg.(
      value
      & opt string "BENCH_lint.json"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Where $(b,--bench) writes.")
  in
  let validate =
    Arg.(
      value & flag
      & info [ "validate" ]
          ~doc:
            "With $(b,--bench): fail unless the elided winner is identical \
             and no overhead was added (used by the $(b,@lint) alias).")
  in
  let run file goals json bench out validate =
    let db = lint_db file in
    let goals =
      match (goals, file) with
      | [], None -> if bench then [ List.hd builtin_goals ] else builtin_goals
      | [], Some f ->
        Printf.eprintf "no goal given for %s (use -g GOAL)\n" f;
        exit 1
      | gs, _ -> gs
    in
    if bench then begin
      match goals with
      | [ g ] -> lint_bench db (parse_goal g) out validate
      | _ ->
        Printf.eprintf "--bench takes exactly one goal\n";
        exit 1
    end;
    let findings =
      List.map (fun g -> Lint.check_goal db (parse_goal g)) goals
    in
    List.iter
      (fun f ->
        if json then print_endline (Lint.finding_to_json f)
        else Format.printf "%a@." Lint.pp_finding f)
      findings;
    exit (Lint.exit_code findings)
  in
  Cmd.v (Cmd.info "lint" ~doc)
    Term.(const run $ file $ goals $ json $ bench $ out $ validate)

(* ---------------- codes ---------------- *)

let codes_cmd =
  let doc = "Print the exit-code registry (the single source of truth)." in
  let run () = Format.printf "%a" Report.pp_code_table () in
  Cmd.v (Cmd.info "codes" ~doc) Term.(const run $ const ())

let () =
  let doc = "Check executions against the transparency paper's invariants" in
  let info = Cmd.info "altcheck" ~version:"1.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; fuzz_cmd; sites_cmd; lint_cmd; codes_cmd ]))
