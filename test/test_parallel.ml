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
      ( "sweep",
        [
          Alcotest.test_case "run_matrix independent of jobs" `Slow
            test_run_matrix_independent_of_jobs;
        ] );
    ]
