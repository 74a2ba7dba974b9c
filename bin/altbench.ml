(* altbench: command-line access to the evaluation harness and the engines.

     altbench list                       enumerate experiments
     altbench run [-e ID]...            run all or selected experiments
     altbench race -c 10,20,30 ...      race fixed-cost alternatives
     altbench prolog -g GOAL [-f FILE]  query the Prolog engine
*)

module Prolog_term = Term

open Cmdliner

(* ---------------- list ---------------- *)

let list_cmd =
  let doc = "List the available experiments." in
  let run () =
    List.iter
      (fun (e : Experiments.experiment) ->
        Printf.printf "%-20s %s\n%-20s   [%s]\n" e.Experiments.id
          e.Experiments.title "" e.Experiments.paper_ref)
      Experiments.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* ---------------- run ---------------- *)

let run_cmd =
  let doc = "Run experiments (all by default)." in
  let ids =
    Arg.(
      value & opt_all string []
      & info [ "e"; "experiment" ] ~docv:"ID"
          ~doc:"Experiment id (repeatable); see $(b,altbench list).")
  in
  let jobs =
    Arg.(
      value
      & opt int (Parallel.default_jobs ())
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for per-trial fan-out (default: one per core). \
             Never changes the printed tables.")
  in
  let run ids jobs =
    (match ids with
    | [] -> Experiments.run_all ~jobs Format.std_formatter
    | ids ->
      List.iter
        (fun id ->
          if Experiments.find id = None then (
            Printf.eprintf "unknown experiment %S; try 'altbench list'\n" id;
            exit 1))
        ids;
      Experiments.run_all ~ids ~jobs Format.std_formatter);
    Format.printf "@."
  in
  Cmd.v (Cmd.info "run" ~doc) Term.(const run $ ids $ jobs)

(* ---------------- race ---------------- *)

let race_cmd =
  let doc =
    "Race fixed-cost alternatives in the simulator and report PI."
  in
  let costs =
    Arg.(
      required
      & opt (some (list float)) None
      & info [ "c"; "costs" ] ~docv:"T1,T2,..."
          ~doc:"Execution times of the alternatives (seconds).")
  in
  let cores =
    Arg.(
      value & opt int 0
      & info [ "cores" ] ~docv:"N"
          ~doc:"Processors to share (0 = one per alternative).")
  in
  let overhead =
    Arg.(
      value & opt float 0.
      & info [ "overhead" ] ~docv:"S" ~doc:"Analytic overhead to apply to PI.")
  in
  let machine =
    Arg.(
      value
      & opt (enum [ ("uniform", `U); ("3b2", `A); ("hp", `H); ("modern", `M) ]) `U
      & info [ "machine" ] ~docv:"NAME"
          ~doc:"Cost model: uniform, 3b2, hp, or modern.")
  in
  let run costs cores overhead machine =
    let model =
      match machine with
      | `U -> Cost_model.uniform ()
      | `A -> Cost_model.att_3b2
      | `H -> Cost_model.hp_9000_350
      | `M -> Cost_model.modern
    in
    let cores = if cores <= 0 then Engine.Infinite else Engine.Cores cores in
    let eng = Engine.create ~cores ~model ~trace:false () in
    let space =
      Address_space.create ~size_hint:(320 * 1024) (Engine.frame_store eng) model
    in
    let alts = List.mapi (fun i c -> Alternative.fixed ~cost:c i) costs in
    let r = Concurrent.run_toplevel eng ~space alts in
    let times = Array.of_list costs in
    (match r.Concurrent.outcome with
    | Alt_block.Selected { index; _ } ->
      Printf.printf "winner:     alternative %d (tau = %g)\n" index
        (List.nth costs index)
    | Alt_block.Block_failed m -> Printf.printf "failed: %s\n" m);
    Printf.printf "elapsed:    %.6f s (setup %.6f, selection %.6f)\n"
      r.Concurrent.elapsed r.Concurrent.setup_cost r.Concurrent.selection_cost;
    Printf.printf "wasted cpu: %.6f s\n" r.Concurrent.wasted_cpu;
    Printf.printf "PI:         %.3f (sequential mean %.3f / [elapsed + overhead %.3f])\n"
      (Stats.mean times /. (r.Concurrent.elapsed +. overhead))
      (Stats.mean times) overhead
  in
  Cmd.v (Cmd.info "race" ~doc) Term.(const run $ costs $ cores $ overhead $ machine)

(* ---------------- prolog ---------------- *)

let prolog_cmd =
  let doc = "Solve a Prolog goal, sequentially or OR-parallel." in
  let goal =
    Arg.(
      required
      & opt (some string) None
      & info [ "g"; "goal" ] ~docv:"GOAL" ~doc:"The query, e.g. 'append(X,Y,[1,2])'.")
  in
  let file =
    Arg.(
      value
      & opt (some file) None
      & info [ "f"; "file" ] ~docv:"FILE" ~doc:"Prolog program to consult.")
  in
  let or_parallel =
    Arg.(
      value & flag
      & info [ "p"; "or-parallel" ]
          ~doc:"Race the goal's clause branches in the simulator.")
  in
  let max_solutions =
    Arg.(
      value & opt int 10
      & info [ "n" ] ~docv:"N" ~doc:"Maximum solutions to print (sequential mode).")
  in
  let run goal_src file or_parallel max_solutions =
    let db = Database.with_prelude () in
    (match file with
    | Some path ->
      let ic = open_in path in
      let len = in_channel_length ic in
      let src = really_input_string ic len in
      close_in ic;
      ignore (Database.add_program db src)
    | None -> ());
    match Parser.query goal_src with
    | exception Parser.Parse_error m ->
      Printf.eprintf "parse error: %s\n" m;
      exit 1
    | goal, names ->
      let name_of v =
        match List.assoc_opt v names with
        | Some n -> n
        | None -> "_" ^ string_of_int v
      in
      if or_parallel then begin
        let r = Or_parallel.solve_sim db goal in
        Printf.printf "branches: %d, inferences per branch: [%s]\n"
          (Array.length r.Or_parallel.branch_inferences)
          (String.concat "; "
             (Array.to_list (Array.map string_of_int r.Or_parallel.branch_inferences)));
        Printf.printf "sequential: %.4f s   or-parallel: %.4f s   speedup %.2fx\n"
          r.Or_parallel.seq_time r.Or_parallel.par_time r.Or_parallel.speedup;
        match r.Or_parallel.first_solution with
        | Some bindings ->
          List.iter
            (fun (v, t) ->
              Printf.printf "%s = %s\n" (name_of v) (Prolog_term.to_string t))
            bindings;
          if bindings = [] then print_endline "yes."
        | None -> print_endline "no."
      end
      else begin
        match
          Solve.run ~max_solutions db goal
        with
        | exception Solve.Prolog_error m ->
          Printf.eprintf "error: %s\n" m;
          exit 1
        | r ->
          if r.Solve.solutions = [] then print_endline "no."
          else
            List.iter
              (fun bindings ->
                if bindings = [] then print_endline "yes."
                else
                  print_endline
                    (String.concat ", "
                       (List.map
                          (fun (v, t) ->
                            Printf.sprintf "%s = %s" (name_of v) (Prolog_term.to_string t))
                          bindings)))
              r.Solve.solutions
      end
  in
  Cmd.v (Cmd.info "prolog" ~doc)
    Term.(const run $ goal $ file $ or_parallel $ max_solutions)

(* ---------------- repl ---------------- *)

let repl_cmd =
  let doc = "An interactive Prolog top level." in
  let file =
    Arg.(
      value
      & opt (some file) None
      & info [ "f"; "file" ] ~docv:"FILE" ~doc:"Program to consult at startup.")
  in
  let run file =
    let db = Database.with_prelude () in
    (match file with
    | Some path ->
      let ic = open_in path in
      let len = in_channel_length ic in
      let src = really_input_string ic len in
      close_in ic;
      ignore (Database.add_program db src);
      Printf.printf "consulted %s\n" path
    | None -> ());
    print_endline
      "altexec prolog. Queries end with '.'; ':assert <clause>.' adds a \
clause,\n':load <file>' consults, ':quit' leaves.";
    let rec loop () =
      print_string "?- ";
      match read_line () with
      | exception End_of_file -> print_newline ()
      | ":quit" | ":q" -> ()
      | line when String.trim line = "" -> loop ()
      | line when String.length line >= 6 && String.sub line 0 6 = ":load " ->
        let path = String.trim (String.sub line 6 (String.length line - 6)) in
        (try
           let ic = open_in path in
           let len = in_channel_length ic in
           let src = really_input_string ic len in
           close_in ic;
           ignore (Database.add_program db src);
           Printf.printf "consulted %s\n" path
         with
        | Sys_error m -> Printf.printf "error: %s\n" m
        | Parser.Parse_error m | Failure m -> Printf.printf "parse error: %s\n" m);
        loop ()
      | line when String.length line >= 8 && String.sub line 0 8 = ":assert " ->
        let src = String.sub line 8 (String.length line - 8) in
        (try
           ignore (Database.add_program db src);
           print_endline "asserted."
         with
        | Parser.Parse_error m -> Printf.printf "parse error: %s\n" m
        | Lexer.Lex_error { message; _ } -> Printf.printf "lex error: %s\n" message
        | Invalid_argument m -> Printf.printf "error: %s\n" m);
        loop ()
      | line ->
        (match Solve.query db line with
        | Ok [] -> print_endline "no."
        | Ok sols ->
          List.iteri
            (fun i bindings ->
              if i < 10 then
                if bindings = [] then print_endline "yes."
                else
                  print_endline
                    (String.concat ", "
                       (List.map
                          (fun (n, t) ->
                            Printf.sprintf "%s = %s" n (Prolog_term.to_string t))
                          bindings)))
            sols;
          if List.length sols > 10 then
            Printf.printf "... (%d solutions total)\n" (List.length sols)
        | Error m -> Printf.printf "error: %s\n" m);
        loop ()
    in
    loop ()
  in
  Cmd.v (Cmd.info "repl" ~doc) Term.(const run $ file)

let () =
  let doc =
    "Transparent concurrent execution of mutually exclusive alternatives"
  in
  let info = Cmd.info "altbench" ~version:"1.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; run_cmd; race_cmd; prolog_cmd; repl_cmd ]))
