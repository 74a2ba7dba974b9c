(* altprof: host-time and allocation profile of the altserve pipeline.

     altprof run   [--workload NAME|all] [--seed S] [-o FILE]
     altprof trace [--workload NAME|all] [--seed S] [--spans FILE] [-o FILE]
     altprof compare BASE.json NEW.json
     altprof bench --workload NAME --seed S --seconds T --trace 0|1

   run and trace execute each workload in a fresh child process, one
   after another, so the heap peak and set-up time are per workload.
   bench is the fixed-time form the repository's BENCHMARK.json names:
   it prints one JSON result line. Exit codes: 0 clean; 1 a correctness
   check failed (violations, a digest mismatch) or compare found a
   regression; 2 bad arguments or unreadable input. *)

open Cmdliner

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("altprof: " ^ msg);
      exit 2)
    fmt

let log msg = prerr_endline msg

let workload_of name =
  match Workloads.find name with
  | Some w -> w
  | None ->
      die "unknown workload %S (one of: %s)" name
        (String.concat ", " Workloads.names)

let selected = function
  | "all" -> Workloads.all
  | name -> [ workload_of name ]

let commit_of = function
  | Some c -> c
  | None -> (
      try
        let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
        let line = try String.trim (input_line ic) with End_of_file -> "" in
        match Unix.close_process_in ic with
        | Unix.WEXITED 0 when line <> "" -> line
        | _ -> "unknown"
      with Unix.Unix_error _ -> "unknown")

let write_out out text =
  match out with
  | None -> print_string text
  | Some path -> (
      try Out_channel.with_open_bin path (fun oc -> output_string oc text)
      with Sys_error msg -> die "cannot write %s: %s" path msg)

let read_json path =
  try Json.read_file path with
  | Sys_error msg -> die "cannot read %s: %s" path msg
  | Json.Parse_error msg -> die "%s: %s" path msg

(* Run [altprof ARGS] as a child process and return its standard output;
   its standard error passes through. *)
let child args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> out
  | Unix.WEXITED n -> die "child %s exited with %d" (String.concat " " args) n
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
      die "child %s stopped by signal %d" (String.concat " " args) n

let opt_args flag = function
  | None -> []
  | Some v -> [ flag; string_of_int v ]

(* ------------------------------------------------------------------ *)
(* run / trace: one child per workload, then a table and the JSON. *)

let fmt_num v =
  if Float.is_integer v && Float.abs v < 1e12 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let print_run_table w =
  let str k o = Option.value (Json.to_str (Json.member k o)) ~default:"?" in
  let num k o = Option.value (Json.to_float (Json.member k o)) ~default:nan in
  let cfg = Json.member "config" w in
  Printf.printf "%s (jobs %s, %s reps of %s requests, seed %s)\n" (str "name" w)
    (fmt_num (num "jobs" cfg)) (fmt_num (num "reps" cfg))
    (fmt_num (num "requests" cfg)) (fmt_num (num "seed" w));
  List.iter
    (fun (name, m) ->
      Printf.printf "  %-22s %12s %-5s [q1 %s, q3 %s]\n" name
        (fmt_num (num "median" m)) (str "unit" m)
        (fmt_num (num "q1" m)) (fmt_num (num "q3" m)))
    (Json.to_assoc (Json.member "host" w));
  let line title o =
    Printf.printf "  %s: %s\n" title
      (String.concat ", "
         (List.map
            (fun (k, v) ->
              k ^ " "
              ^ match v with
                | Json.Num f -> fmt_num f
                | Json.Str s -> s
                | v -> Json.to_string v)
            (Json.to_assoc o)))
  in
  line "counts" (Json.member "counts" w);
  line "simulated" (Json.member "simulated" w);
  line "checks" (Json.member "checks" w)

let print_trace_table w =
  let str k o = Option.value (Json.to_str (Json.member k o)) ~default:"?" in
  Printf.printf "%s (%s spans in the last traced rep)\n" (str "name" w)
    (Json.to_string (Json.member "spans" w));
  List.iter
    (fun (name, m) ->
      Printf.printf "  %-34s %14s %s\n" name
        (fmt_num (Option.value (Json.to_float (Json.member "value" m)) ~default:nan))
        (str "unit" m))
    (Json.to_assoc (Json.member "layers" w))

let orchestrate ~mode ~workload ~seed ~requests ~reps ~commit ~out ~extra =
  let results =
    List.map
      (fun (w : Workloads.t) ->
        let args =
          [ mode ^ "-one"; "--workload"; w.Workloads.name; "--seed"; string_of_int seed ]
          @ opt_args "--requests" requests
          @ opt_args "--reps" reps @ extra
        in
        let out = child args in
        try Json.parse (String.trim out)
        with Json.Parse_error msg -> die "child %s: %s" w.Workloads.name msg)
      (selected workload)
  in
  List.iter (if mode = "run" then print_run_table else print_trace_table) results;
  let doc =
    Json.Obj
      [
        ("benchmark", Json.Str "altprof");
        ("mode", Json.Str mode);
        ("env", Profile.env ~commit:(commit_of commit) ~seed);
        ("workloads", Json.Arr results);
      ]
  in
  write_out out (Json.to_string ~indent:true doc ^ "\n");
  let failures =
    List.concat_map (fun w -> Json.to_list (Json.member "failures" w)) results
  in
  List.iter (fun f -> log ("FAILED: " ^ Json.to_string f)) failures;
  exit (if failures = [] then 0 else 1)

let run_one workload seed requests reps =
  let s = Profile.setting ?requests ~seed (workload_of workload) in
  let reps = Profile.Fixed (Option.value reps ~default:s.Profile.w.Workloads.reps) in
  let m = Profile.measure ~log s reps in
  print_endline (Json.to_string (Profile.measured_json m))

let default_trace_reps = 3

let trace_one workload seed requests reps spans =
  let s = Profile.setting ?requests ~seed (workload_of workload) in
  let t =
    Profile.trace ~log s
      (Profile.Fixed (Option.value reps ~default:default_trace_reps))
  in
  (match spans with
  | None -> ()
  | Some path -> (
      let buf = Buffer.create (1 lsl 20) in
      Span.to_jsonl buf
        ~prefix:
          (Printf.sprintf "\"workload\":\"%s\",\"seed\":%d," s.Profile.w.Workloads.name
             t.Profile.last_seed)
        ~base_ns:t.Profile.last_base_ns t.Profile.last_spans;
      try
        Out_channel.with_open_gen [ Open_append; Open_creat; Open_binary ] 0o644
          path (fun oc -> Buffer.output_buffer oc buf)
      with Sys_error msg -> die "cannot write %s: %s" path msg));
  print_endline (Json.to_string (Profile.traced_json t))

(* ------------------------------------------------------------------ *)
(* bench: the fixed-time run BENCHMARK.json's command performs. *)

let benchmark_names path key =
  List.filter_map
    (fun m -> Json.to_str (Json.member "name" m))
    (Json.to_list (Json.member key (read_json path)))

(* Keep exactly the metrics BENCHMARK.json names under [key], in its
   order; a named metric the profile does not produce is an error. *)
let select ~benchmark key metrics =
  List.map
    (fun name ->
      match List.find_opt (fun (n, _, _) -> String.equal n name) metrics with
      | Some m -> m
      | None -> die "%s names %s metric %S, which altprof does not produce" benchmark key name)
    (benchmark_names benchmark key)

(* Set-up time on a shared machine has outliers (a busy neighbour core
   doubles a jobs-2 warm-up); the median of five samples absorbs two. *)
let setup_samples = 5

let bench workload seed seconds trace benchmark =
  let s = Profile.setting ~seed (workload_of workload) in
  let failures, attempted, failed, metrics =
    if trace then begin
      let t = Profile.trace ~log s (Profile.Seconds seconds) in
      let attempted = s.Profile.requests * Array.length t.Profile.pairs in
      let failed =
        Array.fold_left
          (fun n (p : Profile.traced_rep) ->
            n + p.Profile.real_violations
            + if p.Profile.shadow_digest = p.Profile.real_digest then 0 else 1)
          0 t.Profile.pairs
      in
      (t.Profile.trace_failures, attempted, failed,
       select ~benchmark "per_layer" t.Profile.layer_medians)
    end
    else begin
      let m = Profile.measure ~log s (Profile.Seconds seconds) in
      (* More set-up samples (time, heap peak), each from a fresh process. *)
      let setups =
        Array.append
          [| (m.Profile.setup_s, m.Profile.heap_peak_mb) |]
          (Array.init (setup_samples - 1) (fun _ ->
               let out =
                 child [ "setup"; "--workload"; workload; "--seed"; string_of_int seed ]
               in
               match Scanf.sscanf_opt (String.trim out) "%f %f" (fun t h -> (t, h)) with
               | Some sample -> sample
               | None -> die "setup child printed %S" out))
      in
      let e2e =
        List.map
          (fun (name, unit, xs) ->
            let xs =
              match name with
              | "setup_s" -> Array.map fst setups
              | "heap_peak_mb" -> Array.map snd setups
              | _ -> xs
            in
            (name, unit, Stats.median xs))
          (Profile.end_to_end m)
      in
      let count k = List.assoc k (Profile.counts m) in
      (m.Profile.failures, count "ops", min (count "ops") (count "violations"),
       select ~benchmark "end_to_end" e2e)
    end
  in
  List.iter (fun f -> log ("FAILED: " ^ f)) failures;
  print_endline
    (Profile.result_line ~correct:(failures = []) ~attempted
       ~failed:(if failures = [] then failed else max 1 failed)
       metrics);
  exit (if failures = [] then 0 else 1)

let setup workload seed =
  let s = Profile.setting ~seed (workload_of workload) in
  let secs, heap_mb = Profile.warm_up s (Profile.Seconds 0.) in
  Printf.printf "%.9f %.9f\n" secs heap_mb

(* ------------------------------------------------------------------ *)
(* compare *)

let compare_files base_path new_path benchmark =
  let base = read_json base_path and next = read_json new_path in
  let bounds =
    List.filter_map
      (fun m ->
        match
          ( Json.to_str (Json.member "name" m),
            Json.to_float (Json.member "bound" m),
            Json.to_str (Json.member "better" m) )
        with
        | Some n, Some b, Some better -> Some (n, (b, better = "higher"))
        | _ -> None)
      (Json.to_list (Json.member "end_to_end" (read_json benchmark)))
  in
  let workloads doc =
    List.filter_map
      (fun w -> Option.map (fun n -> (n, w)) (Json.to_str (Json.member "name" w)))
      (Json.to_list (Json.member "workloads" doc))
  in
  let summary m =
    let f k = Option.value (Json.to_float (Json.member k m)) ~default:nan in
    let samples =
      Option.fold ~none:0 ~some:int_of_float (Json.to_float (Json.member "samples" m))
    in
    (f "median", f "q1", f "q3", samples)
  in
  let worse = ref 0 in
  Printf.printf "%-15s %-20s %28s %28s  %s\n" "workload" "metric"
    "base median [q1, q3]" "new median [q1, q3]" "verdict";
  List.iter
    (fun (name, bw) ->
      match List.assoc_opt name (workloads next) with
      | None -> Printf.printf "%-15s missing from %s\n" name new_path
      | Some nw ->
          List.iter
            (fun (metric, (bound, higher)) ->
              let b = summary (Json.member metric (Json.member "host" bw))
              and n = summary (Json.member metric (Json.member "host" nw)) in
              let v = Profile.verdict ~higher ~bound b n in
              if v = Profile.Worse then incr worse;
              let show (m, q1, q3, _) =
                Printf.sprintf "%s [%s, %s]" (fmt_num m) (fmt_num q1) (fmt_num q3)
              in
              Printf.printf "%-15s %-20s %28s %28s  %s (bound %g%%)\n" name metric
                (show b) (show n) (Profile.verdict_name v) (100. *. bound))
            bounds;
          let digest w =
            Json.to_str (Json.member "digest_fold" (Json.member "checks" w))
          in
          Printf.printf "%-15s digest %s\n" name
            (if digest bw = digest nw then "same" else "DIFFERS"))
    (workloads base);
  exit (if !worse = 0 then 0 else 1)

(* ------------------------------------------------------------------ *)
(* Command line. *)

let workload_arg ~default =
  let doc =
    Printf.sprintf "Workload: %s%s." (String.concat ", " Workloads.names)
      (if default = None then "" else ", or all")
  in
  match default with
  | Some d -> Arg.(value & opt string d & info [ "workload" ] ~docv:"NAME" ~doc)
  | None -> Arg.(required & opt (some string) None & info [ "workload" ] ~docv:"NAME" ~doc)

let seed_arg =
  Arg.(
    value & opt int 1
    & info [ "seed" ] ~docv:"S" ~doc:"Timed rep $(i,i) serves workload seed S+$(i,i).")

let requests_arg =
  Arg.(
    value & opt (some int) None
    & info [ "requests" ] ~docv:"N"
        ~doc:"Requests per rep instead of the workload's own (smoke runs; pins are then skipped).")

let reps_arg ~doc = Arg.(value & opt (some int) None & info [ "reps" ] ~docv:"N" ~doc)

let out_arg =
  Arg.(
    value & opt (some string) None
    & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write the JSON here instead of standard output.")

let commit_arg =
  Arg.(
    value & opt (some string) None
    & info [ "commit" ] ~docv:"REV"
        ~doc:"Commit to record (default: git rev-parse HEAD, when available).")

let benchmark_arg =
  Arg.(
    value & opt string "BENCHMARK.json"
    & info [ "benchmark" ] ~docv:"FILE" ~doc:"The benchmark definition (metric names and bounds).")

let run_cmd =
  let main workload seed requests reps out commit =
    orchestrate ~mode:"run" ~workload ~seed ~requests ~reps ~commit ~out ~extra:[]
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Time Server.run with tracing off and report the end-to-end metrics.")
    Term.(
      const main $ workload_arg ~default:(Some "all") $ seed_arg $ requests_arg
      $ reps_arg ~doc:"Timed reps instead of the workload's own (pins are then skipped)."
      $ out_arg $ commit_arg)

let spans_arg =
  Arg.(
    value & opt string "altprof-spans.jsonl"
    & info [ "spans" ] ~docv:"FILE" ~doc:"Where to write the spans of each workload's last traced rep (JSONL).")

let trace_cmd =
  let main workload seed requests reps spans out commit =
    (try Out_channel.with_open_bin spans ignore
     with Sys_error msg -> die "cannot write %s: %s" spans msg);
    orchestrate ~mode:"trace" ~workload ~seed ~requests ~reps ~commit ~out
      ~extra:[ "--spans"; spans ]
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Run the span-recording shadow pipeline and report the per-layer metrics.")
    Term.(
      const main $ workload_arg ~default:(Some "all") $ seed_arg $ requests_arg
      $ reps_arg ~doc:(Printf.sprintf "Traced reps (default %d), each paired with an untraced one." default_trace_reps)
      $ spans_arg $ out_arg $ commit_arg)

let run_one_cmd =
  Cmd.v
    (Cmd.info "run-one" ~doc:"(internal) One workload of $(b,run), in this process.")
    Term.(const run_one $ workload_arg ~default:None $ seed_arg $ requests_arg $ reps_arg ~doc:"Timed reps.")

let trace_one_cmd =
  let spans = Arg.(value & opt (some string) None & info [ "spans" ] ~docv:"FILE" ~doc:"Append the spans here.") in
  Cmd.v
    (Cmd.info "trace-one" ~doc:"(internal) One workload of $(b,trace), in this process.")
    Term.(const trace_one $ workload_arg ~default:None $ seed_arg $ requests_arg $ reps_arg ~doc:"Traced reps." $ spans)

let compare_cmd =
  let file n docv = Arg.(required & pos n (some file) None & info [] ~docv) in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Compare two $(b,run) results metric by metric against BENCHMARK.json's bounds.")
    Term.(const compare_files $ file 0 "BASE" $ file 1 "NEW" $ benchmark_arg)

let bench_cmd =
  let seconds =
    Arg.(value & opt float 10. & info [ "seconds" ] ~docv:"T" ~doc:"Measure for T seconds.")
  in
  let trace =
    Arg.(
      value & opt int 0
      & info [ "trace" ] ~docv:"0|1" ~doc:"1: report the per-layer metrics from traced reps.")
  in
  let main workload seed seconds trace benchmark =
    if trace <> 0 && trace <> 1 then die "--trace takes 0 or 1";
    bench workload seed seconds (trace = 1) benchmark
  in
  Cmd.v
    (Cmd.info "bench" ~doc:"Fixed-time run printing one JSON result line (BENCHMARK.json's command).")
    Term.(const main $ workload_arg ~default:None $ seed_arg $ seconds $ trace $ benchmark_arg)

let setup_cmd =
  Cmd.v
    (Cmd.info "setup"
       ~doc:"(internal) Print this process's set-up sample: seconds from start to the end of the warm-up rep, and the heap peak (MB) by then.")
    Term.(const setup $ workload_arg ~default:None $ seed_arg)

let () =
  let info =
    Cmd.info "altprof" ~doc:"Host-time and allocation profile of the altserve pipeline"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; trace_cmd; compare_cmd; bench_cmd; run_one_cmd; trace_one_cmd; setup_cmd ]))
