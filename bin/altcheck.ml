(* altcheck: verify executions against the paper's invariants.

     altcheck list                      enumerate scenarios and policies
     altcheck run [--seeds N]           run the full scenario x policy matrix
     altcheck run --jobs 8              fan the matrix out over 8 domains
     altcheck run -s counters           restrict to named scenarios
     altcheck run --dump-trace F.jsonl  dump a trace (first violating run,
                                        else the last run) as JSON Lines
     altcheck bench -o BENCH.json       time the sweep sequentially vs
                                        parallel and emit a JSON record
     altcheck fuzz [--seeds N]          re-run the invariant checkers under
                                        fault-injection campaigns
     altcheck fuzz --verify-determinism re-execute every cell and fail on
                                        any byte-level divergence
     altcheck sites [--seeds N]         run supervised (coordinator-recovery)
                                        blocks under site-crash and
                                        partition campaigns
     altcheck run/fuzz/sites --sanitize attach the online sanitizer to every
                                        run and cross-check it against the
                                        post-mortem checkers
     altcheck serve [--requests N]      run the request-driven serving layer
                                        over a seeded open-loop load and
                                        emit BENCH_serve.json
     altcheck lint [-f F.pl -g GOAL]    statically analyse OR-branch mutual
                                        exclusivity and alternative
                                        footprints (JSON findings via --json)
     altcheck lint --bench              measure the consensus-elision fast
                                        path and emit BENCH_lint.json
     altcheck codes                     print the exit-code registry

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

(* ---------------- list ---------------- *)

let list_cmd =
  let doc = "List the checkable scenarios and the policy matrix." in
  let run () =
    Printf.printf "scenarios:\n";
    List.iter
      (fun (s : Invariants.scenario) ->
        Printf.printf "  %-12s%s\n" s.Invariants.sc_name
          (if s.Invariants.uses_source then " (uses a source device)" else ""))
      Invariants.default_scenarios;
    Printf.printf "policies (%d):\n" (List.length Invariants.policy_matrix);
    List.iter
      (fun p -> Printf.printf "  %s\n" (Concurrent.describe p))
      Invariants.policy_matrix
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* ---------------- run ---------------- *)

let scenarios_of_names names =
  match names with
  | [] -> Invariants.default_scenarios
  | names ->
    List.map
      (fun n ->
        match
          List.find_opt
            (fun s -> s.Invariants.sc_name = n)
            Invariants.default_scenarios
        with
        | Some s -> s
        | None ->
          Printf.eprintf "unknown scenario %S; try 'altcheck list'\n" n;
          exit 1)
      names

let run_cmd =
  let doc = "Run the invariant checkers over the scenario x policy matrix." in
  let seeds =
    Arg.(
      value & opt int 5
      & info [ "seeds" ] ~docv:"N" ~doc:"Seeds per (scenario, policy) cell.")
  in
  let names =
    Arg.(
      value & opt_all string []
      & info [ "s"; "scenario" ] ~docv:"NAME"
          ~doc:"Scenario to check (repeatable); see $(b,altcheck list).")
  in
  let dump =
    Arg.(
      value & opt (some string) None
      & info [ "dump-trace" ] ~docv:"FILE"
          ~doc:
            "Write one run's event trace as JSON Lines: the first violating \
             run if any, otherwise the last run executed.")
  in
  let quiet =
    Arg.(
      value & flag
      & info [ "q"; "quiet" ] ~doc:"Print only violations and the summary.")
  in
  let run seeds names dump quiet jobs sanitize =
    let scenarios = scenarios_of_names names in
    let cells = Invariants.matrix_cells ~seeds ~scenarios () in
    let results = Invariants.run_cells ~jobs ~sanitize cells in
    (* Results are in cell order, so everything below — the per-policy
       progress lines, the violation listing, the dumped run and the
       exit code — is independent of [jobs]. *)
    let violations =
      List.concat_map (fun (_, vs) -> vs) (Array.to_list results)
    in
    if not quiet then
      List.iter
        (fun sc ->
          List.iter
            (fun policy ->
              let here =
                List.filter
                  (fun v ->
                    v.Report.scenario = sc.Invariants.sc_name
                    && v.Report.policy = Concurrent.describe policy)
                  violations
              in
              Printf.printf "%-10s %-44s %d seeds  %s\n%!" sc.Invariants.sc_name
                (Concurrent.describe policy) seeds
                (match here with
                | [] -> "ok"
                | vs -> Printf.sprintf "%d VIOLATIONS" (List.length vs)))
            Invariants.policy_matrix)
        scenarios;
    List.iter (fun v -> Format.printf "%a@." Report.pp_violation v) violations;
    Printf.printf "%d runs, %d violations\n" (Array.length results)
      (List.length violations);
    let dumped_run =
      let violating =
        Array.to_seq results
        |> Seq.filter_map (fun (rr, vs) -> if vs <> [] then Some rr else None)
        |> Seq.uncons
      in
      match (violating, Array.length results) with
      | Some (rr, _), _ -> Some (rr, true)
      | None, 0 -> None
      | None, n -> Some (fst results.(n - 1), false)
    in
    (match (dump, dumped_run) with
    | Some file, Some (rr, violating) ->
      let oc =
        try open_out file
        with Sys_error m ->
          Printf.eprintf "cannot write trace: %s\n" m;
          exit 1
      in
      output_string oc (Trace.to_jsonl (Engine.trace rr.Invariants.engine));
      close_out oc;
      Printf.printf "trace of %s run (%s, %s, seed %d) written to %s\n"
        (if violating then "first violating" else "last")
        rr.Invariants.scenario.Invariants.sc_name
        (Concurrent.describe rr.Invariants.policy)
        rr.Invariants.seed file
    | Some _, None | None, _ -> ());
    exit (Report.exit_code violations)
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ seeds $ names $ dump $ quiet $ jobs_arg $ sanitize_arg)

(* ---------------- fuzz ---------------- *)

let fuzz_cmd =
  let doc =
    "Run the invariant checkers under deterministic fault-injection \
     campaigns (scenario x campaign x policy x seed matrix)."
  in
  let seeds =
    Arg.(
      value & opt int 5
      & info [ "seeds" ] ~docv:"N"
          ~doc:"Seeds per (scenario, campaign, policy) cell.")
  in
  let names =
    Arg.(
      value & opt_all string []
      & info [ "s"; "scenario" ] ~docv:"NAME"
          ~doc:"Scenario to fuzz (repeatable); see $(b,altcheck list).")
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
    Arg.(
      value & flag
      & info [ "list" ] ~doc:"List the campaigns and fuzz policies, then exit.")
  in
  let quiet =
    Arg.(
      value & flag
      & info [ "q"; "quiet" ]
          ~doc:"Print only violations, mismatches and the summary.")
  in
  let run seeds names campaign_names verify list_campaigns quiet jobs sanitize =
    if list_campaigns then begin
      Printf.printf "campaigns:\n";
      List.iter
        (fun (c : Fuzz.campaign) ->
          Printf.printf "  %-18s%s\n" c.Fuzz.cg_name c.Fuzz.cg_doc)
        Fuzz.default_campaigns;
      Printf.printf "policies (%d):\n" (List.length Fuzz.default_policies);
      List.iter
        (fun p -> Printf.printf "  %s\n" (Concurrent.describe p))
        Fuzz.default_policies;
      exit 0
    end;
    let scenarios = scenarios_of_names names in
    let campaigns =
      match campaign_names with
      | [] -> Fuzz.default_campaigns
      | names ->
        List.map
          (fun n ->
            match
              List.find_opt
                (fun (c : Fuzz.campaign) -> c.Fuzz.cg_name = n)
                Fuzz.default_campaigns
            with
            | Some c -> c
            | None ->
              Printf.eprintf "unknown campaign %S; try 'altcheck fuzz --list'\n"
                n;
              exit 1)
          names
    in
    let result =
      Fuzz.run ~jobs ~seeds ~scenarios ~campaigns ~verify ~sanitize ()
    in
    if not quiet then List.iter print_endline result.Fuzz.lines;
    List.iter
      (fun v -> Format.printf "%a@." Report.pp_violation v)
      result.Fuzz.violations;
    (match result.Fuzz.first_failing with
    | Some c ->
      Printf.printf "minimal failing cell: %s\n" (Fuzz.describe_cell c)
    | None -> ());
    List.iter
      (fun m -> Printf.printf "DETERMINISM MISMATCH: %s\n" m)
      result.Fuzz.mismatches;
    Printf.printf "%d fuzzed runs%s, %d violations%s\n" result.Fuzz.cells_run
      (if verify then " (each executed twice)" else "")
      (List.length result.Fuzz.violations)
      (if verify then
         Printf.sprintf ", %d determinism mismatches"
           (List.length result.Fuzz.mismatches)
       else "");
    if result.Fuzz.mismatches <> [] then exit Report.code_determinism;
    exit (Report.exit_code result.Fuzz.violations)
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(
      const run $ seeds $ names $ campaign_names $ verify $ list_campaigns
      $ quiet $ jobs_arg $ sanitize_arg)

(* ---------------- sites ---------------- *)

let sites_cmd =
  let doc =
    "Run supervised blocks (coordinator recovery) under deterministic \
     site-crash and network-partition campaigns."
  in
  let seeds =
    Arg.(
      value & opt int 3
      & info [ "seeds" ] ~docv:"N"
          ~doc:"Seeds per (scenario, campaign, policy) cell.")
  in
  let names =
    Arg.(
      value & opt_all string []
      & info [ "s"; "scenario" ] ~docv:"NAME"
          ~doc:
            "Scenario to run (repeatable); sourceless scenarios only — see \
             $(b,altcheck sites --list).")
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
    Arg.(
      value & flag
      & info [ "list" ]
          ~doc:"List the site campaigns, policies and scenarios, then exit.")
  in
  let quiet =
    Arg.(
      value & flag
      & info [ "q"; "quiet" ]
          ~doc:"Print only violations, mismatches and the summary.")
  in
  let run seeds names campaign_names verify list_campaigns quiet jobs sanitize =
    if list_campaigns then begin
      Printf.printf "topology: %s\n" (String.concat " " Sitefuzz.site_names);
      Printf.printf "campaigns:\n";
      List.iter
        (fun (c : Sitefuzz.campaign) ->
          Printf.printf "  %-22s%s\n" c.Sitefuzz.sg_name c.Sitefuzz.sg_doc)
        Sitefuzz.default_campaigns;
      Printf.printf "policies (%d):\n" (List.length Sitefuzz.default_policies);
      List.iter
        (fun p -> Printf.printf "  %s\n" (Concurrent.describe p))
        Sitefuzz.default_policies;
      Printf.printf "scenarios:\n";
      List.iter
        (fun (s : Invariants.scenario) ->
          Printf.printf "  %s\n" s.Invariants.sc_name)
        Sitefuzz.default_scenarios;
      exit 0
    end;
    let scenarios =
      match names with
      | [] -> Sitefuzz.default_scenarios
      | names ->
        List.map
          (fun n ->
            match
              List.find_opt
                (fun s -> s.Invariants.sc_name = n)
                Sitefuzz.default_scenarios
            with
            | Some s -> s
            | None ->
              Printf.eprintf
                "unknown scenario %S; try 'altcheck sites --list'\n" n;
              exit 1)
          names
    in
    let campaigns =
      match campaign_names with
      | [] -> Sitefuzz.default_campaigns
      | names ->
        List.map
          (fun n ->
            match
              List.find_opt
                (fun (c : Sitefuzz.campaign) -> c.Sitefuzz.sg_name = n)
                Sitefuzz.default_campaigns
            with
            | Some c -> c
            | None ->
              Printf.eprintf
                "unknown campaign %S; try 'altcheck sites --list'\n" n;
              exit 1)
          names
    in
    let result =
      Sitefuzz.run ~jobs ~seeds ~scenarios ~campaigns ~verify ~sanitize ()
    in
    if not quiet then List.iter print_endline result.Sitefuzz.lines;
    List.iter
      (fun v -> Format.printf "%a@." Report.pp_violation v)
      result.Sitefuzz.violations;
    (match result.Sitefuzz.first_failing with
    | Some c ->
      Printf.printf "minimal failing cell: %s\n" (Sitefuzz.describe_cell c)
    | None -> ());
    List.iter
      (fun m -> Printf.printf "DETERMINISM MISMATCH: %s\n" m)
      result.Sitefuzz.mismatches;
    Printf.printf "%d site-faulted runs%s, %d violations%s\n"
      result.Sitefuzz.cells_run
      (if verify then " (each executed twice)" else "")
      (List.length result.Sitefuzz.violations)
      (if verify then
         Printf.sprintf ", %d determinism mismatches"
           (List.length result.Sitefuzz.mismatches)
       else "");
    if result.Sitefuzz.mismatches <> [] then exit Report.code_determinism;
    exit (Report.exit_code result.Sitefuzz.violations)
  in
  Cmd.v (Cmd.info "sites" ~doc)
    Term.(
      const run $ seeds $ names $ campaign_names $ verify $ list_campaigns
      $ quiet $ jobs_arg $ sanitize_arg)

(* ---------------- bench ---------------- *)

let bench_cmd =
  let doc =
    "Time the full invariant sweep sequentially and in parallel, and write \
     a JSON benchmark record (the repo's perf trajectory reads it)."
  in
  let seeds =
    Arg.(
      value & opt int 5
      & info [ "seeds" ] ~docv:"N" ~doc:"Seeds per (scenario, policy) cell.")
  in
  let out =
    Arg.(
      value
      & opt string "BENCH_altcheck.json"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Where to write the record.")
  in
  let validate =
    Arg.(
      value & flag
      & info [ "validate" ]
          ~doc:
            "After writing, re-read the file and fail unless every schema \
             field is present (used by the $(b,@bench-smoke) alias).")
  in
  let required_fields =
    [
      "benchmark"; "runs"; "seeds"; "jobs"; "cores"; "sequential_s";
      "parallel_s"; "speedup"; "runs_per_sec_sequential";
      "runs_per_sec_parallel"; "violations"; "identical_reports";
    ]
  in
  let run seeds out validate jobs =
    let cells = Invariants.matrix_cells ~seeds () in
    let n = Array.length cells in
    let time f =
      let t0 = Unix.gettimeofday () in
      let r = f () in
      (r, Unix.gettimeofday () -. t0)
    in
    Printf.printf "%d runs per sweep; timing sequential sweep...\n%!" n;
    let seq_results, seq_s = time (fun () -> Invariants.run_cells ~jobs:1 cells) in
    Printf.printf "sequential: %.3f s; timing parallel sweep (%d jobs)...\n%!"
      seq_s jobs;
    let par_results, par_s = time (fun () -> Invariants.run_cells ~jobs cells) in
    Printf.printf "parallel:   %.3f s\n%!" par_s;
    let report results =
      List.concat_map
        (fun (_, vs) ->
          List.map (fun v -> Format.asprintf "%a" Report.pp_violation v) vs)
        (Array.to_list results)
    in
    let seq_report = report seq_results and par_report = report par_results in
    let identical = seq_report = par_report in
    if not identical then
      Printf.eprintf
        "WARNING: parallel sweep reported different violations than the \
         sequential sweep\n";
    let violations = List.length seq_report in
    let json =
      String.concat "\n"
        [
          "{";
          Printf.sprintf "  %S: %S," "benchmark" "altcheck-sweep";
          Printf.sprintf "  %S: %d," "runs" n;
          Printf.sprintf "  %S: %d," "seeds" seeds;
          Printf.sprintf "  %S: %d," "jobs" jobs;
          Printf.sprintf "  %S: %d," "cores" (Parallel.default_jobs ());
          Printf.sprintf "  %S: %.6f," "sequential_s" seq_s;
          Printf.sprintf "  %S: %.6f," "parallel_s" par_s;
          Printf.sprintf "  %S: %.3f," "speedup" (seq_s /. par_s);
          Printf.sprintf "  %S: %.1f," "runs_per_sec_sequential"
            (float_of_int n /. seq_s);
          Printf.sprintf "  %S: %.1f," "runs_per_sec_parallel"
            (float_of_int n /. par_s);
          Printf.sprintf "  %S: %d," "violations" violations;
          Printf.sprintf "  %S: %b" "identical_reports" identical;
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
      "%s: %d runs, %.3f s sequential, %.3f s on %d jobs (%.2fx), %d \
       violations\n"
      out n seq_s par_s jobs (seq_s /. par_s) violations;
    if validate then begin
      let ic = open_in out in
      let len = in_channel_length ic in
      let contents = really_input_string ic len in
      close_in ic;
      let has_field f =
        (* Keys are unique in the emitted object, so a substring probe of
           the quoted key is a sufficient smoke check. *)
        let needle = Printf.sprintf "%S:" f in
        let nlen = String.length needle in
        let rec scan i =
          i + nlen <= String.length contents
          && (String.sub contents i nlen = needle || scan (i + 1))
        in
        scan 0
      in
      let missing = List.filter (fun f -> not (has_field f)) required_fields in
      if missing <> [] then begin
        Printf.eprintf "schema validation FAILED; missing: %s\n"
          (String.concat ", " missing);
        exit 2
      end;
      Printf.printf "schema ok (%d fields)\n" (List.length required_fields);
      (* A parallel sweep can only beat the sequential one when there is
         real parallelism to be had. On a single-core host (CI containers,
         commonly) a speedup below 1x is expected scheduling overhead, so
         it only warrants a note; with two or more cores it is a genuine
         performance regression. See EXPERIMENTS.md. *)
      let cores = Parallel.default_jobs () in
      let speedup = seq_s /. par_s in
      if speedup < 1.0 then
        if cores < 2 then
          Printf.printf
            "note: speedup %.2fx < 1 on a %d-core host; domain fan-out \
             cannot help without >= 2 cores (not a failure)\n"
            speedup cores
        else begin
          Printf.eprintf
            "speedup validation FAILED: %.2fx < 1 with %d cores available\n"
            speedup cores;
          exit 4
        end
    end;
    if not identical then exit 3;
    exit (if violations = 0 then 0 else 1)
  in
  Cmd.v (Cmd.info "bench" ~doc)
    Term.(const run $ seeds $ out $ validate $ jobs_arg)

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

(* ---------------- serve ---------------- *)

let serve_cmd =
  let doc =
    "Run the request-driven serving layer over a seeded open-loop load, \
     verify the determinism contract, and write BENCH_serve.json."
  in
  let seed =
    Arg.(
      value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Workload seed.")
  in
  let requests =
    Arg.(
      value & opt int 600
      & info [ "requests" ] ~docv:"N"
          ~doc:"Arrivals to generate (smoke-sized default).")
  in
  let out =
    Arg.(
      value
      & opt string "BENCH_serve.json"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Where to write the record.")
  in
  let validate =
    Arg.(
      value & flag
      & info [ "validate" ]
          ~doc:
            "After writing, re-check the record for every schema field \
             (used by the $(b,@serve-smoke) alias).")
  in
  let verify =
    Arg.(
      value & flag
      & info [ "verify-determinism" ]
          ~doc:
            "Fail unless the replay digest and the jobs-1 digest both \
             match the run.")
  in
  let run seed requests out validate verify sanitize jobs =
    let wl =
      { Workload.default with Workload.wl_seed = seed; wl_requests = requests }
    in
    let sv =
      {
        Server.default with
        Server.sv_sanitize = sanitize;
        sv_jobs = jobs;
      }
    in
    let result, m, v = Servebench.run_verified wl sv in
    Printf.printf
      "%d requests: %d served, %d failed, %d shed in %d batches; p99 %.4f s\n"
      m.Servebench.m_requests m.Servebench.m_served m.Servebench.m_failed
      m.Servebench.m_shed m.Servebench.m_batches m.Servebench.m_p99;
    List.iter
      (fun viol -> Format.eprintf "%a@." Report.pp_violation viol)
      result.Server.violations;
    let json = Servebench.to_json wl sv m v in
    let oc =
      try open_out out
      with Sys_error msg ->
        Printf.eprintf "cannot write %s: %s\n" out msg;
        exit 1
    in
    output_string oc json;
    close_out oc;
    Printf.printf "%s: digest %016Lx\n" out v.Servebench.v_digest;
    if validate then begin
      match Servebench.validate json with
      | Ok n -> Printf.printf "schema ok (%d fields)\n" n
      | Error missing ->
          Printf.eprintf "schema validation FAILED; missing: %s\n"
            (String.concat ", " missing);
          exit 2
    end;
    if verify then begin
      if not v.Servebench.v_replay_identical then begin
        Printf.eprintf
          "determinism FAILED: replay with the same configs diverged\n";
        exit 3
      end;
      if not v.Servebench.v_jobs_identical then begin
        Printf.eprintf "determinism FAILED: jobs-1 and jobs-%d diverged\n"
          jobs;
        exit 3
      end;
      Printf.printf "determinism ok: replay identical, jobs-1 = jobs-%d\n"
        jobs
    end;
    exit (if result.Server.violations = [] then 0 else 1)
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ seed $ requests $ out $ validate $ verify $ sanitize_arg
      $ jobs_arg)

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
          [
            list_cmd; run_cmd; fuzz_cmd; sites_cmd; bench_cmd; serve_cmd;
            lint_cmd; codes_cmd;
          ]))
