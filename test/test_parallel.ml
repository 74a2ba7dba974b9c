(* The domain pool is only worth having if it is invisible: same
   results, same order, same failures as the sequential loop, for every
   worker count. Every test goes through the one entry point,
   [map_indexed_shared], so they also exercise the persistent pool being
   reused (and resized) across calls. *)

let check = Alcotest.check

exception Boom of int

let test_map_indexed_matches_sequential () =
  List.iter
    (fun jobs ->
      List.iter
        (fun n ->
          let expected = Array.init n (fun i -> (i * 7) - 3) in
          let got =
            Parallel.map_indexed_shared ~jobs (fun i -> (i * 7) - 3) n
          in
          check
            Alcotest.(array int)
            (Printf.sprintf "jobs=%d n=%d" jobs n)
            expected got)
        [ 0; 1; 5; 64 ])
    [ 1; 2; 4; 7 ]

let test_run_preserves_list_order () =
  (* Early jobs do the most work, so later ones finish first on any
     worker count above one; results must still come back in list
     order. *)
  let thunks =
    Array.of_list
      (List.init 9 (fun i () ->
           let acc = ref 0 in
           for k = 1 to (9 - i) * 20_000 do
             acc := !acc + (k land 1)
           done;
           ignore (Sys.opaque_identity !acc);
           string_of_int (i * i)))
  in
  check
    Alcotest.(array string)
    "thunk results in list order"
    (Array.init 9 (fun i -> string_of_int (i * i)))
    (Parallel.map_indexed_shared ~jobs:3 (fun i -> thunks.(i) ()) 9)

let test_pool_is_reusable_across_batches () =
  for batch = 1 to 3 do
    let got = Parallel.map_indexed_shared ~jobs:4 (fun i -> batch * i) 32 in
    check
      Alcotest.(array int)
      (Printf.sprintf "batch %d" batch)
      (Array.init 32 (fun i -> batch * i))
      got
  done

let test_pool_survives_raising_job () =
  let others_ran = Array.make 16 false in
  (match
     Parallel.map_indexed_shared ~jobs:4
       (fun i ->
         others_ran.(i) <- true;
         if i = 11 then raise (Boom i);
         i)
       16
   with
  | _ -> Alcotest.fail "raising job did not propagate"
  | exception Boom 11 -> ()
  | exception e ->
    Alcotest.failf "unexpected exception %s" (Printexc.to_string e));
  (* Every job still ran, raising one included. *)
  Array.iteri
    (fun i ran -> if not ran then Alcotest.failf "job %d skipped" i)
    others_ran;
  (* The failure did not wedge or poison the workers. *)
  check
    Alcotest.(array int)
    "pool usable after a failing batch"
    (Array.init 8 succ)
    (Parallel.map_indexed_shared ~jobs:4 succ 8)

let test_lowest_indexed_failure_wins () =
  (* Several jobs raise; whatever domain finishes first, the caller must
     see the lowest-indexed job's exception, deterministically. *)
  for _attempt = 1 to 5 do
    match
      Parallel.map_indexed_shared ~jobs:4
        (fun i -> if i >= 3 && i mod 2 = 1 then raise (Boom i) else i)
        12
    with
    | _ -> Alcotest.fail "no exception propagated"
    | exception Boom 3 -> ()
    | exception Boom i -> Alcotest.failf "saw Boom %d, wanted Boom 3" i
  done

let test_create_validates_jobs () =
  Alcotest.check_raises "jobs >= 1"
    (Invalid_argument "Parallel.map_indexed_shared: jobs must be >= 1")
    (fun () -> ignore (Parallel.map_indexed_shared ~jobs:0 Fun.id 4));
  Alcotest.check_raises "n >= 0"
    (Invalid_argument "Parallel.map_indexed_shared: negative length")
    (fun () -> ignore (Parallel.map_indexed_shared ~jobs:2 Fun.id (-1)))

(* ---------------- the pipeline ---------------- *)

(* Item [i] spins for an uneven, index-dependent time, so items finish
   out of emission order on any worker count above one. *)
let uneven i =
  let acc = ref 0 in
  for k = 1 to ((i * 7919) mod 13) * 3_000 do
    acc := !acc + (k land 1)
  done;
  ignore (Sys.opaque_identity !acc);
  (i * i) - 5

let window jobs = 4 * jobs

(* [consume] sees emission order and the results of a sequential run;
   [produce] and [consume] run on the calling domain. Inside [work] and
   [consume] the emitted-but-unconsumed items never exceed the window:
   item [i] is emitted only while fewer than [window] items are
   outstanding, so it runs with [i - consumed < window], and when an item
   is consumed at most [window] are emitted and unconsumed. *)
let run_pipeline ~jobs n =
  let caller = Domain.self () in
  let emitted = ref 0 and consumed = Atomic.make 0 in
  let worst = Atomic.make 0 in
  let note outstanding =
    if outstanding > Atomic.get worst then Atomic.set worst outstanding
  in
  let seen = ref [] in
  Parallel.pipeline_shared ~jobs
    ~produce:(fun ~emit ->
      for i = 0 to n - 1 do
        emit i;
        incr emitted
      done)
    ~work:(fun i ->
      note (i + 1 - Atomic.get consumed);
      uneven i)
    ~consume:(fun i v ->
      if Domain.self () <> caller then Alcotest.fail "consume off the caller";
      note (!emitted - Atomic.get consumed);
      seen := (i, v) :: !seen;
      Atomic.incr consumed);
  (List.rev !seen, Atomic.get worst)

let test_pipeline_order_and_results () =
  List.iter
    (fun jobs ->
      List.iter
        (fun n ->
          let seen, _ = run_pipeline ~jobs n in
          check
            Alcotest.(list (pair int int))
            (Printf.sprintf "jobs=%d n=%d" jobs n)
            (List.init n (fun i -> (i, uneven i)))
            seen)
        [ 0; 1; 7; 100 ])
    [ 1; 2; 4 ]

let test_pipeline_window_bound () =
  List.iter
    (fun jobs ->
      let _, worst = run_pipeline ~jobs 200 in
      if worst > window jobs then
        Alcotest.failf "jobs=%d: %d items emitted and unconsumed, window %d"
          jobs worst (window jobs))
    [ 1; 2; 4 ]

let test_pipeline_raising_item () =
  List.iter
    (fun jobs ->
      let ran = Array.make 40 false and consumed = ref [] in
      (match
         Parallel.pipeline_shared ~jobs
           ~produce:(fun ~emit ->
             for i = 0 to 39 do
               emit i
             done)
           ~work:(fun i ->
             ran.(i) <- true;
             if i >= 17 && i mod 4 = 1 then raise (Boom i);
             uneven i)
           ~consume:(fun i _ -> consumed := i :: !consumed)
       with
      | () -> Alcotest.fail "raising item did not propagate"
      | exception Boom 17 -> ()
      | exception e ->
        Alcotest.failf "unexpected exception %s" (Printexc.to_string e));
      check
        Alcotest.(list int)
        (Printf.sprintf "jobs=%d: consumed up to the failure" jobs)
        (List.init 17 Fun.id) (List.rev !consumed);
      if jobs > 1 then
        Array.iteri
          (fun i r -> if not r then Alcotest.failf "jobs=%d: item %d skipped" jobs i)
          ran;
      let seen, _ = run_pipeline ~jobs 12 in
      check
        Alcotest.(list (pair int int))
        (Printf.sprintf "jobs=%d: pool usable after a raising item" jobs)
        (List.init 12 (fun i -> (i, uneven i)))
        seen)
    [ 1; 2; 4 ]

let test_pipeline_raising_produce () =
  List.iter
    (fun jobs ->
      let consumed = ref [] in
      (match
         Parallel.pipeline_shared ~jobs
           ~produce:(fun ~emit ->
             for i = 0 to 29 do
               emit i
             done;
             raise (Boom (-1)))
           ~work:uneven
           ~consume:(fun i _ -> consumed := i :: !consumed)
       with
      | () -> Alcotest.fail "raising produce did not propagate"
      | exception Boom -1 -> ()
      | exception e ->
        Alcotest.failf "unexpected exception %s" (Printexc.to_string e));
      check
        Alcotest.(list int)
        (Printf.sprintf "jobs=%d: emitted items drained first" jobs)
        (List.init 30 Fun.id) (List.rev !consumed);
      check
        Alcotest.(array int)
        (Printf.sprintf "jobs=%d: pool usable after a raising produce" jobs)
        (Array.init 16 succ)
        (Parallel.map_indexed_shared ~jobs succ 16))
    [ 1; 2; 4 ]

let render_sweep (r : Campaign.result) =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Format.fprintf ppf "runs=%d@." r.Campaign.cells_run;
  List.iter (Format.fprintf ppf "%s@.") r.Campaign.lines;
  List.iter (Format.fprintf ppf "%a@." Report.pp_violation) r.Campaign.violations;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let test_run_matrix_independent_of_jobs () =
  (* The headline determinism contract: the clean sweep's report is
     byte-for-byte identical whether it ran on one domain or several. *)
  let cells = Campaign.cells { Campaign.clean with Campaign.fm_seeds = 1 } in
  let sequential = render_sweep (Campaign.run ~jobs:1 cells) in
  let parallel = render_sweep (Campaign.run ~jobs:4 cells) in
  if not (String.equal sequential parallel) then
    Alcotest.failf "parallel sweep diverged from sequential:@.%s@.vs@.%s"
      sequential parallel;
  check Alcotest.bool "sweep executed" true
    (String.length sequential >= String.length "runs=96\n")

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map_indexed matches Array.init" `Quick
            test_map_indexed_matches_sequential;
          Alcotest.test_case "run preserves list order" `Quick
            test_run_preserves_list_order;
          Alcotest.test_case "pool reusable across batches" `Quick
            test_pool_is_reusable_across_batches;
          Alcotest.test_case "pool survives a raising job" `Quick
            test_pool_survives_raising_job;
          Alcotest.test_case "lowest-indexed failure wins" `Quick
            test_lowest_indexed_failure_wins;
          Alcotest.test_case "create validates jobs" `Quick
            test_create_validates_jobs;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "emission order, sequential results" `Quick
            test_pipeline_order_and_results;
          Alcotest.test_case "unconsumed items never exceed the window" `Quick
            test_pipeline_window_bound;
          Alcotest.test_case "a raising item drains and re-raises" `Quick
            test_pipeline_raising_item;
          Alcotest.test_case "a raising produce drains and re-raises" `Quick
            test_pipeline_raising_produce;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "run_matrix independent of jobs" `Slow
            test_run_matrix_independent_of_jobs;
        ] );
    ]
