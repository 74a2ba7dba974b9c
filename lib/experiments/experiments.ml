type experiment = {
  id : string;
  title : string;
  paper_ref : string;
  run : jobs:int -> Format.formatter -> unit;
}

let fp = Format.fprintf

let hr ppf = fp ppf "  %s@." (String.make 72 '-')

(* Run [f] inside a root simulated process. *)
let in_process ?space eng f =
  let result = ref None in
  let pid =
    Engine.spawn eng ?space ~cloneable:false ~name:"exp-root" (fun ctx ->
        result := Some (f ctx))
  in
  if Option.is_some space then Engine.preserve_space eng pid;
  Engine.run eng;
  match !result with
  | Some r -> r
  | None -> failwith "experiment process did not complete"

(* ------------------------------------------------------------------ *)
(* E1: the PI table of section 4.3.                                    *)

let e1_pi_table =
  {
    id = "table-4.3-pi";
    title = "Performance improvement of concurrent execution (PI)";
    paper_ref = "section 4.3 table (N=3, overhead=5)";
    run =
      (fun ~jobs:_ ppf ->
        fp ppf "  %-5s %-18s %9s %9s %9s %9s@." "row" "tau(C1,C2,C3)" "PI paper"
          "PI exact" "PI sim" "wasted";
        hr ppf;
        List.iter
          (fun (row : Analytic.row) ->
            (* Race the same costs in the simulator and recompute PI from the
               observed elapsed time plus the stipulated overhead of 5. *)
            let eng = Engine.create ~model:(Cost_model.uniform ()) ~trace:false () in
            let alts =
              Array.to_list
                (Array.mapi (fun i c -> Alternative.fixed ~cost:c i) row.Analytic.times)
            in
            let r = Concurrent.run_toplevel eng alts in
            let pi_sim =
              Stats.mean row.Analytic.times
              /. (r.Concurrent.elapsed +. row.Analytic.overhead)
            in
            fp ppf "  %-5s %-18s %9.2f %9.2f %9.2f %9.1f@." row.Analytic.label
              (String.concat ","
                 (Array.to_list
                    (Array.map (fun x -> Format.asprintf "%g" x) row.Analytic.times)))
              row.Analytic.pi_paper row.Analytic.pi_value pi_sim
              r.Concurrent.wasted_cpu)
          (Analytic.table_4_3 ());
        fp ppf
          "  (PI sim races the alternatives in the DES and re-applies the@.";
        fp ppf "   stipulated overhead of 5; it must equal PI exact.)@.")
  }

(* ------------------------------------------------------------------ *)
(* E2: fork latency under the calibrated models.                       *)

let simulate_fork_latency model =
  let eng = Engine.create ~model ~trace:false () in
  let space =
    Address_space.create ~size_hint:(320 * 1024) (Engine.frame_store eng) model
  in
  in_process ~space eng (fun ctx ->
      let t0 = Engine.now_v ctx in
      let child = Address_space.fork (Option.get (Engine.space ctx)) in
      let setup = Address_space.drain_cost child in
      Engine.delay ctx setup;
      Address_space.release child;
      Engine.now_v ctx -. t0)

let e2_fork_latency =
  {
    id = "sec-4.4-fork";
    title = "Copy-on-write fork() latency, 320K address space";
    paper_ref = "section 4.4 (measured in Smith 1988)";
    run =
      (fun ~jobs:_ ppf ->
        fp ppf "  %-16s %10s %12s %12s@." "machine" "pages" "paper" "simulated";
        hr ppf;
        List.iter
          (fun (model, paper_ms) ->
            let sim = simulate_fork_latency model in
            fp ppf "  %-16s %10d %9.0f ms %9.1f ms@." model.Cost_model.name
              (Cost_model.pages_for model ~bytes:(320 * 1024))
              paper_ms (sim *. 1e3))
          [ (Cost_model.att_3b2, 31.); (Cost_model.hp_9000_350, 12.) ])
  }

(* ------------------------------------------------------------------ *)
(* E3: page-copy service rate.                                         *)

let simulate_copy_rate model ~pages =
  let eng = Engine.create ~model ~trace:false () in
  let bytes = pages * model.Cost_model.page_size in
  let space = Address_space.create ~size_hint:bytes (Engine.frame_store eng) model in
  let child_space = Address_space.fork space in
  ignore (Address_space.drain_cost child_space);
  let elapsed =
    in_process eng (fun ctx -> ignore ctx;
        (* Touch every page of the COW child and charge the fault costs. *)
        let t0 = Engine.now_v ctx in
        Address_space.touch child_space ~addr:0 ~len:bytes;
        Engine.delay ctx (Address_space.drain_cost child_space);
        Engine.now_v ctx -. t0)
  in
  float_of_int pages /. elapsed

let e3_page_copy_rate =
  {
    id = "sec-4.4-copyrate";
    title = "Copy-on-write page-copy service rate";
    paper_ref = "section 4.4";
    run =
      (fun ~jobs:_ ppf ->
        fp ppf "  %-16s %12s %16s %16s@." "machine" "page size" "paper"
          "simulated";
        hr ppf;
        List.iter
          (fun (model, paper_rate) ->
            let rate = simulate_copy_rate model ~pages:256 in
            fp ppf "  %-16s %10dB %11.0f p/s %11.0f p/s@." model.Cost_model.name
              model.Cost_model.page_size paper_rate rate)
          [ (Cost_model.att_3b2, 326.); (Cost_model.hp_9000_350, 1034.) ])
  }

(* ------------------------------------------------------------------ *)
(* E4: response time vs fraction of pages written.                     *)

let cow_response model ~fraction =
  let eng = Engine.create ~model ~trace:false () in
  let bytes = 320 * 1024 in
  let space = Address_space.create ~size_hint:bytes (Engine.frame_store eng) model in
  in_process ~space eng (fun ctx ->
      let t0 = Engine.now_v ctx in
      let child = Address_space.fork (Option.get (Engine.space ctx)) in
      Engine.delay ctx (Address_space.drain_cost child);
      let touch_bytes = int_of_float (fraction *. float_of_int bytes) in
      if touch_bytes > 0 then begin
        Address_space.touch child ~addr:0 ~len:touch_bytes;
        Engine.delay ctx (Address_space.drain_cost child)
      end;
      Address_space.release child;
      Engine.now_v ctx -. t0)

let e4_cow_fraction_sweep =
  {
    id = "fig-cow-fraction";
    title = "COW fork response time vs fraction of pages written (320K)";
    paper_ref = "Smith 1988, cited in section 4.4";
    run =
      (fun ~jobs:_ ppf ->
        fp ppf "  %-10s %18s %18s@." "fraction" "3B2 response" "HP response";
        hr ppf;
        List.iter
          (fun fr ->
            fp ppf "  %-10.1f %15.1f ms %15.1f ms@." fr
              (cow_response Cost_model.att_3b2 ~fraction:fr *. 1e3)
              (cow_response Cost_model.hp_9000_350 ~fraction:fr *. 1e3))
          [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 ];
        fp ppf
          "  (shape: affine in the fraction written; slope = pages x copy cost,@.";
        fp ppf "   intercept = the fork latency of E2.)@.")
  }

(* ------------------------------------------------------------------ *)
(* E5: remote fork.                                                    *)

let e5_remote_fork =
  {
    id = "sec-4.4-rfork";
    title = "Remote fork of a 70K process";
    paper_ref = "section 4.4 (Smith and Ioannidis 1989)";
    run =
      (fun ~jobs:_ ppf ->
        let model = Cost_model.distributed_lan in
        let pages = Cost_model.pages_for model ~bytes:(70 * 1024) in
        let mechanism = Cost_model.remote_spawn_cost model ~mapped_pages:pages in
        (* The special-purpose remote-execution protocol exchanges six
           messages (request, checkpoint-ready, fetch, ack, start, done). *)
        let observed = mechanism +. (6. *. model.Cost_model.msg_latency) in
        fp ppf "  %-34s %10s %12s@." "quantity" "paper" "model";
        hr ppf;
        fp ppf "  %-34s %9s %10.3f s@." "rfork mechanism (checkpoint+ship)"
          "<1.0 s" mechanism;
        fp ppf "  %-34s %9s %10.3f s@." "observed mean (with network delays)"
          "~1.3 s" observed)
  }

(* ------------------------------------------------------------------ *)
(* E6: schemes A / B / C.                                              *)

let e6_schemes =
  {
    id = "schemes-ABC";
    title = "Execution schemes: static (A), random (B), concurrent (C)";
    paper_ref = "section 4.2";
    run =
      (fun ~jobs:_ ppf ->
        let rng = Rng.create ~seed:2026 in
        let workloads =
          [
            Schemes.generate ~rng ~inputs:400 ~alternatives:3
              ~dist:(`Uniform (1., 3.)) ~description:"uniform(1,3): low dispersion";
            Schemes.generate ~rng ~inputs:400 ~alternatives:3
              ~dist:(`Exponential 10.) ~description:"exponential(10): high dispersion";
            Schemes.generate ~rng ~inputs:400 ~alternatives:3
              ~dist:(`Bimodal (1., 100., 0.3))
              ~description:"bimodal(1|100, p=0.3): database queries";
          ]
        in
        fp ppf "  %-42s %8s %8s %8s %8s %8s@." "workload (overhead 0.5)" "A"
          "B" "C" "oracle" "PI(C/B)";
        hr ppf;
        List.iter
          (fun w ->
            let e = Schemes.evaluate w ~overhead:0.5 in
            fp ppf "  %-42s %8.2f %8.2f %8.2f %8.2f %8.2f@."
              w.Schemes.description e.Schemes.scheme_a e.Schemes.scheme_b
              e.Schemes.scheme_c e.Schemes.oracle e.Schemes.pi_c_over_b)
          workloads;
        fp ppf "@.  Overhead sweep on the bimodal workload:@.";
        fp ppf "  %-10s %8s %8s %10s@." "overhead" "B" "C" "C wins?";
        hr ppf;
        let w = List.nth workloads 2 in
        List.iter
          (fun ov ->
            let e = Schemes.evaluate w ~overhead:ov in
            fp ppf "  %-10.1f %8.2f %8.2f %10s@." ov e.Schemes.scheme_b
              e.Schemes.scheme_c
              (if e.Schemes.pi_c_over_b > 1. then "yes" else "no"))
          [ 0.; 1.; 5.; 10.; 20.; 40. ])
  }

(* ------------------------------------------------------------------ *)
(* E7: recovery blocks.                                                *)

let e7_recovery_blocks =
  {
    id = "rb-speedup";
    title = "Recovery blocks: sequential vs concurrent under faults";
    paper_ref = "section 5.1 (cf. Kim 1984, Welch 1983)";
    run =
      (fun ~jobs ppf ->
        let trials = 60 in
        let run_config ~p_fault =
          (* Each trial builds both of its engines from scratch, so the
             trials fan out across the domain pool; per-trial results come
             back in trial order and the aggregation below is independent
             of [jobs]. *)
          let per_trial =
            Parallel.map_indexed_shared ~jobs
              (fun i ->
                let trial = i + 1 in
                let wl = Rng.create ~seed:(1000 + trial) in
                let t_primary = Rng.uniform_in wl ~lo:1. ~hi:3. in
                let t_secondary = Rng.uniform_in wl ~lo:2. ~hi:6. in
                let make_rb fault_seed =
                  let f = Fault.create ~seed:fault_seed in
                  (* A Wrong fault: the primary runs to completion and only
                     then fails its acceptance test, as a latent logic error
                     would. *)
                  let primary =
                    Fault.wrap f ~p:p_fault ~mode:Fault.Wrong
                      ~corrupt:(fun v -> -v)
                      (Recovery_block.alternate ~name:"primary" (fun ctx ->
                           Engine.delay ctx t_primary;
                           1))
                  in
                  let secondary =
                    Recovery_block.alternate ~name:"secondary" (fun ctx ->
                        Engine.delay ctx t_secondary;
                        2)
                  in
                  Recovery_block.make ~acceptance:(fun _ v -> v > 0)
                    [ primary; secondary ]
                in
                let eng = Engine.create ~trace:false () in
                let seq =
                  in_process eng (fun ctx ->
                      Recovery_block.run_sequential ctx (make_rb trial))
                in
                let eng = Engine.create ~trace:false () in
                let conc =
                  in_process eng (fun ctx ->
                      Recovery_block.run_concurrent ctx (make_rb trial))
                in
                let ok v =
                  match v with `Accepted _ -> true | `Failed -> false
                in
                ( seq.Recovery_block.elapsed,
                  conc.Recovery_block.elapsed,
                  ok seq.Recovery_block.verdict
                  = ok conc.Recovery_block.verdict ))
              trials
          in
          let seq =
            Stats.mean (Array.map (fun (s, _, _) -> s) per_trial)
          in
          let conc =
            Stats.mean (Array.map (fun (_, c, _) -> c) per_trial)
          in
          let agree =
            Array.fold_left
              (fun acc (_, _, a) -> if a then acc + 1 else acc)
              0 per_trial
          in
          (seq, conc, agree)
        in
        fp ppf "  %-14s %12s %12s %9s %9s@." "p(primary" "sequential"
          "concurrent" "speedup" "verdicts";
        fp ppf "  %-14s %12s %12s %9s %9s@." "  fault)" "mean (s)" "mean (s)" ""
          "agree";
        hr ppf;
        List.iter
          (fun p ->
            let seq, conc, agree = run_config ~p_fault:p in
            fp ppf "  %-14.1f %12.2f %12.2f %8.2fx %6d/%d@." p seq conc
              (seq /. conc) agree trials)
          [ 0.0; 0.2; 0.4; 0.6; 0.8 ];
        fp ppf
          "  (concurrent execution finds \"a rapid failure-free path\": its cost@.";
        fp ppf
          "   is the fastest accepted version, independent of the fault rate.)@.")
  }

(* ------------------------------------------------------------------ *)
(* E8: OR-parallel Prolog.                                             *)

let or_program ~branches ~burn_fail ~burn_ok ~ok_position =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    "burn(0).\nburn(N) :- N > 0, M is N - 1, burn(M).\n";
  for i = 0 to branches - 1 do
    if i = ok_position then
      Buffer.add_string buf
        (Printf.sprintf "route(r%d) :- burn(%d).\n" i burn_ok)
    else
      Buffer.add_string buf
        (Printf.sprintf "route(r%d) :- burn(%d), fail.\n" i burn_fail)
  done;
  Buffer.contents buf

let e8_prolog_or =
  {
    id = "prolog-or";
    title = "OR-parallel Prolog: racing clause branches";
    paper_ref = "section 5.2";
    run =
      (fun ~jobs:_ ppf ->
        fp ppf "  %-22s %10s %10s %9s %7s %9s@." "succeeding clause"
          "seq (inf)" "par (s)" "speedup" "COW" "wasted";
        hr ppf;
        List.iter
          (fun (label, pos) ->
            let db = Database.create () in
            ignore
              (Database.add_program db
                 (or_program ~branches:4 ~burn_fail:1500 ~burn_ok:50
                    ~ok_position:pos));
            let goal, _ = Parser.query "route(R)" in
            let r = Or_parallel.solve_sim ~seed:7 db goal in
            fp ppf "  %-22s %10d %10.4f %8.2fx %7d %9.3f@." label
              r.Or_parallel.seq_inferences r.Or_parallel.par_time
              r.Or_parallel.speedup r.Or_parallel.cow_copies
              r.Or_parallel.wasted_cpu)
          [ ("first of 4", 0); ("second of 4", 1); ("third of 4", 2);
            ("last of 4", 3) ];
        fp ppf
          "@.  (sequential cost grows with the failing prefix; OR-parallel cost@.";
        fp ppf
          "   is the succeeding branch plus overhead, wherever it sits.)@.";
        (* A real fork race on the same program. *)
        let db = Database.create () in
        ignore
          (Database.add_program db
             (or_program ~branches:4 ~burn_fail:60000 ~burn_ok:500 ~ok_position:3));
        let goal, _ = Parser.query "route(R)" in
        let rr = Or_parallel.solve_real ~timeout:60. db goal in
        fp ppf
          "@.  Real processes (this host): sequential %.4f s, racing %.4f s (winner %s)@."
          rr.Or_parallel.elapsed_sequential rr.Or_parallel.elapsed_parallel
          (match rr.Or_parallel.winner with
          | Some i -> Printf.sprintf "clause %d" i
          | None -> "none"))
  }

(* ------------------------------------------------------------------ *)
(* E9: elimination policy ablation.                                    *)

let e9_elimination =
  {
    id = "ablate-elim";
    title = "Sibling elimination: synchronous vs asynchronous";
    paper_ref =
      "section 3.2.1 (asynchronous elimination gives better execution time \
at the expense of throughput)";
    run =
      (fun ~jobs:_ ppf ->
        fp ppf "  %-14s %-8s %12s %12s %12s@." "kill latency" "policy"
          "elapsed (s)" "wasted (s)" "selection";
        hr ppf;
        List.iter
          (fun lat ->
            List.iter
              (fun (label, elim) ->
                let model =
                  { (Cost_model.uniform ()) with
                    kill_per_sibling = 0.05;
                    msg_latency = lat }
                in
                let eng = Engine.create ~model ~trace:false () in
                let r =
                  Concurrent.run_toplevel eng
                    ~policy:{ Concurrent.default_policy with elimination = elim }
                    (List.init 4 (fun i ->
                         Alternative.fixed ~cost:(1. +. float_of_int i) i))
                in
                fp ppf "  %-14.2f %-8s %12.3f %12.3f %12.3f@." lat label
                  r.Concurrent.elapsed r.Concurrent.wasted_cpu
                  r.Concurrent.selection_cost)
              [
                ("sync", Concurrent.Sync_elim); ("async", Concurrent.Async_elim);
                ("lost", Concurrent.No_elim);
              ])
          [ 0.05; 0.2; 0.5 ];
        fp ppf
          "  ('lost' = every elimination message lost: the too-late backup@.";
        fp ppf
          "   alone preserves at-most-once while the zombies run to the end.)@.")
  }

(* ------------------------------------------------------------------ *)
(* E10: synchronisation ablation.                                      *)

let e10_consensus =
  {
    id = "ablate-consensus";
    title = "Synchronisation: local latch vs majority consensus";
    paper_ref = "section 3.2.1 (performance vs reliability trade-off)";
    run =
      (fun ~jobs:_ ppf ->
        let model = Cost_model.hp_9000_350 in
        let race policy =
          let eng = Engine.create ~model ~trace:false () in
          Concurrent.run_toplevel eng ~policy
            [ Alternative.fixed ~cost:0.5 "fast"; Alternative.fixed ~cost:1.0 "slow" ]
        in
        fp ppf "  %-26s %12s %14s %10s %12s@." "synchronisation" "elapsed (s)"
          "sync overhead" "messages" "tolerates";
        hr ppf;
        let local = race Concurrent.default_policy in
        fp ppf "  %-26s %12.4f %14.4f %10d %12s@." "local latch (1 node)"
          local.Concurrent.elapsed
          (local.Concurrent.elapsed -. 0.5 -. local.Concurrent.setup_cost)
          0 "0 faults";
        List.iter
          (fun nodes ->
            let r =
              race
                {
                  Concurrent.default_policy with
                  sync =
                    Concurrent.Consensus
                      { nodes; crashed = []; vote_delay = 0.002;
                        reply_timeout = 1.0 };
                }
            in
            fp ppf "  %-26s %12.4f %14.4f %10d %9d flt@."
              (Printf.sprintf "majority consensus (%d)" nodes)
              r.Concurrent.elapsed
              (r.Concurrent.elapsed -. 0.5 -. r.Concurrent.setup_cost)
              r.Concurrent.sync_messages
              ((nodes - 1) / 2))
          [ 3; 5; 7 ];
        (* Fault-tolerance demonstration. *)
        let r =
          race
            {
              Concurrent.default_policy with
              sync =
                Concurrent.Consensus
                  { nodes = 5; crashed = [ 0; 3 ]; vote_delay = 0.002;
                    reply_timeout = 0.3 };
            }
        in
        fp ppf "@.  With 2 of 5 consensus nodes crashed the block still commits: %s@."
          (match r.Concurrent.outcome with
          | Alt_block.Selected { value; _ } ->
            Printf.sprintf "winner %S, elapsed %.4f s" value r.Concurrent.elapsed
          | Alt_block.Block_failed m -> "FAILED: " ^ m))
  }

(* ------------------------------------------------------------------ *)
(* E11: real vs virtual concurrency.                                   *)

let e11_cores =
  {
    id = "ablate-cores";
    title = "PI vs available processors (processor sharing)";
    paper_ref = "section 4.2 (real vs virtual concurrency)";
    run =
      (fun ~jobs:_ ppf ->
        let times = [| 2.; 4.; 6.; 8. |] in
        fp ppf "  four alternatives, tau = (2, 4, 6, 8), zero overhead@.";
        fp ppf "  %-12s %12s %10s %10s@." "cores" "elapsed (s)" "PI" "wins?";
        hr ppf;
        List.iter
          (fun (label, cores) ->
            let eng = Engine.create ~cores ~trace:false () in
            let r =
              Concurrent.run_toplevel eng
                (Array.to_list (Array.mapi (fun i c -> Alternative.fixed ~cost:c i) times))
            in
            let pi = Stats.mean times /. r.Concurrent.elapsed in
            fp ppf "  %-12s %12.2f %10.2f %10s@." label r.Concurrent.elapsed pi
              (if pi > 1. then "yes" else "no"))
          [
            ("1", Engine.Cores 1); ("2", Engine.Cores 2); ("3", Engine.Cores 3);
            ("4", Engine.Cores 4); ("infinite", Engine.Infinite);
          ];
        fp ppf
          "  (with one processor the racing alternatives only steal cycles from@.";
        fp ppf
          "   the eventual winner: speculation needs real concurrency to win.)@.")
  }

(* ------------------------------------------------------------------ *)
(* E12/E13: the host machine.                                          *)

let e12_real_machine =
  {
    id = "real-fork";
    title = "This host: fork latency and COW costs (cf. section 4.4)";
    paper_ref = "section 4.4, measured on 2026 hardware";
    run =
      (fun ~jobs:_ ppf ->
        let fork = Measure.fork_latency ~iters:30 () in
        fp ppf "  %-38s %14s@." "quantity" "this host";
        hr ppf;
        fp ppf "  %-38s %11.0f us   (paper: 31 ms 3B2, 12 ms HP)@."
          "fork+wait latency, 320K image (median)" (fork.Stats.median *. 1e6);
        let rate = Measure.page_copy_rate ~pages:2048 ~iters:7 () in
        fp ppf "  %-38s %11.0f p/s  (paper: 326 3B2, 1034 HP)@."
          "COW page-copy service rate" rate;
        fp ppf "@.  response time vs fraction written (2048 pages, medians):@.";
        List.iter
          (fun fr ->
            let s = Measure.cow_touch_time ~pages:2048 ~fraction:fr ~iters:7 () in
            fp ppf "    fraction %.2f: %8.0f us@." fr (s.Stats.median *. 1e6))
          [ 0.0; 0.25; 0.5; 0.75; 1.0 ])
  }

let e13_real_race =
  {
    id = "real-race";
    title = "This host: fastest-first racing of real processes";
    paper_ref = "the design itself, on the host OS";
    run =
      (fun ~jobs:_ ppf ->
        let sleeps = [ 0.12; 0.06; 0.03; 0.18 ] in
        let thunks =
          List.mapi
            (fun i s () ->
              Unix.sleepf s;
              i)
            sleeps
        in
        let t0 = Unix.gettimeofday () in
        List.iter (fun f -> ignore (f ())) thunks;
        let seq = Unix.gettimeofday () -. t0 in
        (match Fork_race.run ~timeout:30. thunks with
        | Fork_race.Winner { index; elapsed; _ } ->
          fp ppf "  four alternatives sleeping %s s@."
            (String.concat ", " (List.map (fun s -> Format.asprintf "%g" s) sleeps));
          fp ppf "  sequential (all in order): %8.3f s@." seq;
          fp ppf "  mean alternative:          %8.3f s@."
            (Stats.mean (Array.of_list sleeps));
          fp ppf "  fastest-first race:        %8.3f s (winner %d)@." elapsed index
        | _ -> fp ppf "  race failed unexpectedly@.");
        (* Algorithmic diversity: two list-sorting strategies, the paper's
           own running example (section 4.2). *)
        let n = 200_000 in
        let sorted_input = Array.init n Fun.id in
        let qsort a = let a = Array.copy a in Array.sort compare a; a.(0) in
        let scan_if_sorted a =
          (* An "insertion-sort-like" method that is O(n) on sorted input
             and refuses (fails) otherwise. *)
          let ok = ref true in
          for i = 0 to Array.length a - 2 do
            if a.(i) > a.(i + 1) then ok := false
          done;
          if !ok then a.(0) else failwith "not sorted"
        in
        match
          Fork_race.run ~timeout:30.
            [ (fun () -> qsort sorted_input); (fun () -> scan_if_sorted sorted_input) ]
        with
        | Fork_race.Winner { index; elapsed; _ } ->
          fp ppf
            "  sort race on sorted input (n=%d): winner = %s in %.4f s@." n
            (if index = 0 then "quicksort" else "linear scan")
            elapsed
        | _ -> fp ppf "  sort race failed unexpectedly@.")
  }

(* ------------------------------------------------------------------ *)
(* E17: AND- vs OR-parallelism.                                        *)

let inference_counts counts =
  String.concat " / " (Array.to_list (Array.map string_of_int counts))

let e17_prolog_and =
  {
    id = "prolog-and";
    title = "AND-parallelism vs OR-parallelism";
    paper_ref =
      "section 5.2 (rule-level parallelism is centered on two types; OR \
maps closely to mutually exclusive alternatives)";
    run =
      (fun ~jobs:_ ppf ->
        let db = Database.with_prelude () in
        ignore
          (Database.add_program db
             ("burn(0). burn(N) :- N > 0, M is N - 1, burn(M).\n"
             ^ "taskA(done) :- burn(500).\n"
             ^ "taskB(done) :- burn(1500).\n"
             ^ "taskC(done) :- burn(3000).\n"
             ^ "any(a) :- burn(3000).\n"
             ^ "any(b) :- burn(1500).\n"
             ^ "any(c) :- burn(500).\n"));
        (* AND: all three independent tasks must complete. *)
        let and_goal, _ = Parser.query "taskA(X), taskB(Y), taskC(Z)" in
        let a = And_parallel.solve_sim db and_goal in
        (* OR: any one of three equivalent clauses suffices. *)
        let or_goal, _ = Parser.query "any(W)" in
        let o = Or_parallel.solve_sim db or_goal in
        fp ppf "  conjunct work: %s inferences; branch work: %s@.@."
          (inference_counts a.And_parallel.group_inferences)
          (inference_counts o.Or_parallel.branch_inferences);
        fp ppf "  %-22s %12s %12s %10s %16s@." "parallelism" "seq (s)"
          "par (s)" "speedup" "bounded by";
        hr ppf;
        fp ppf "  %-22s %12.4f %12.4f %9.2fx %16s@." "AND (all must finish)"
          a.And_parallel.seq_time a.And_parallel.par_time
          a.And_parallel.speedup "sum/max";
        fp ppf "  %-22s %12.4f %12.4f %9.2fx %16s@."
          "OR (fastest wins)" o.Or_parallel.seq_time o.Or_parallel.par_time
          o.Or_parallel.speedup "first/min";
        fp ppf
          "@.  (AND-parallel time is the slowest conjunct: no elimination, and@.";
        fp ppf
          "   dependent conjuncts would need binding merges. OR-parallel time@.";
        fp ppf
          "   is the fastest branch: mutual exclusion means no merging — the@.";
        fp ppf "   reason the paper finds OR \"more interesting\".)@.")
  }

(* ------------------------------------------------------------------ *)
(* E14: guard placement ablation.                                      *)

let e14_guard_placement =
  {
    id = "ablate-guard";
    title = "Guard evaluation placement";
    paper_ref =
      "section 3.2 (guard before spawning, in the child, at sync, or \
redundantly)";
    run =
      (fun ~jobs:_ ppf ->
        (* Eight alternatives; six have closed guards. Selective guards
           make pre-spawn evaluation attractive; in-child keeps the parent
           path short; at-sync wastes the closed bodies' work. *)
        let alts guard_cost =
          List.init 8 (fun i ->
              let open_ = i >= 6 in
              Alternative.make ~name:(Printf.sprintf "a%d" i)
                ~guard:(fun ctx ->
                  Engine.delay ctx guard_cost;
                  open_)
                (fun ctx ->
                  Engine.delay ctx (1.0 +. (0.5 *. float_of_int i));
                  i))
        in
        fp ppf "  8 alternatives, 6 closed; guard evaluation costs 0.02 s@.";
        fp ppf "  %-16s %10s %12s %12s %12s@." "placement" "spawned"
          "elapsed (s)" "setup (s)" "wasted (s)";
        hr ppf;
        List.iter
          (fun (label, guards) ->
            let model =
              { (Cost_model.uniform ()) with fork_base = 0.05 }
            in
            let eng = Engine.create ~model ~trace:false () in
            let r =
              Concurrent.run_toplevel eng
                ~policy:{ Concurrent.default_policy with guards }
                (alts 0.02)
            in
            fp ppf "  %-16s %10d %12.3f %12.3f %12.3f@." label
              r.Concurrent.spawned r.Concurrent.elapsed r.Concurrent.setup_cost
              r.Concurrent.wasted_cpu)
          [
            ("before spawn", Concurrent.Guard_before_spawn);
            ("in child", Concurrent.Guard_in_child);
            ("at sync", Concurrent.Guard_at_sync);
            ("redundant", Concurrent.Guard_redundant);
          ];
        fp ppf
          "  (pre-spawn guards save six forks but serialise the evaluations in@.";
        fp ppf
          "   the parent; at-sync guards run closed bodies to completion.)@.")
  }

(* ------------------------------------------------------------------ *)
(* E15: local vs remote placement.                                     *)

let e15_distributed_block =
  {
    id = "distributed-block";
    title = "Local COW children vs remote checkpoint/restart children";
    paper_ref = "section 5.1.2 (distributed execution of recovery blocks)";
    run =
      (fun ~jobs:_ ppf ->
        let model = Cost_model.distributed_lan in
        let run ~placement ~work =
          let eng = Engine.create ~model ~trace:false () in
          let space =
            Address_space.create ~size_hint:(70 * 1024)
              (Engine.frame_store eng) model
          in
          Concurrent.run_toplevel eng
            ~policy:{ Concurrent.default_policy with placement }
            ~space
            [
              Alternative.fixed ~cost:work 0;
              Alternative.fixed ~cost:(1.5 *. work) 1;
              Alternative.fixed ~cost:(2.0 *. work) 2;
            ]
        in
        fp ppf "  70K process image, 3 alternatives, tau = (w, 1.5w, 2w)@.";
        fp ppf "  %-12s %12s %14s %14s@." "work w (s)" "local (s)"
          "rfork eager" "on-demand";
        hr ppf;
        List.iter
          (fun work ->
            let local = (run ~placement:Concurrent.Local_spawn ~work).Concurrent.elapsed in
            let remote = (run ~placement:Concurrent.Remote_spawn ~work).Concurrent.elapsed in
            let od = (run ~placement:Concurrent.Remote_on_demand ~work).Concurrent.elapsed in
            fp ppf "  %-12g %12.3f %14.3f %14.3f@." work local remote od)
          [ 0.1; 1.0; 10.0; 100.0 ];
        fp ppf
          "  (in this single-machine model, local COW wins at every size: the@.";
        fp ppf
          "   rfork tax buys nothing unless remote nodes add real processors.@.";
        fp ppf "   With one local core but a processor per remote node:)@.";
        let run2 ~cores ~placement ~work =
          let eng = Engine.create ~cores ~model ~trace:false () in
          let space =
            Address_space.create ~size_hint:(70 * 1024)
              (Engine.frame_store eng) model
          in
          (Concurrent.run_toplevel eng
             ~policy:{ Concurrent.default_policy with placement }
             ~space
             [
               Alternative.fixed ~cost:work 0;
               Alternative.fixed ~cost:(1.5 *. work) 1;
               Alternative.fixed ~cost:(2.0 *. work) 2;
             ])
            .Concurrent.elapsed
        in
        fp ppf "  %-12s %12s %14s %14s@." "work w (s)" "local, 1 cpu"
          "eager, 3 cpu" "on-dem, 3 cpu";
        hr ppf;
        List.iter
          (fun work ->
            let local =
              run2 ~cores:(Engine.Cores 1) ~placement:Concurrent.Local_spawn ~work
            in
            let remote =
              run2 ~cores:Engine.Infinite ~placement:Concurrent.Remote_spawn ~work
            in
            let od =
              run2 ~cores:Engine.Infinite ~placement:Concurrent.Remote_on_demand
                ~work
            in
            fp ppf "  %-12g %12.3f %14.3f %14.3f@." work local remote od)
          [ 0.1; 1.0; 10.0; 100.0 ];
        fp ppf
          "  (on-demand migration — the Theimer et al. scheme the paper points@.";
        fp ppf
          "   to — removes almost the whole rfork tax for these read-mostly@.";
        fp ppf "   alternatives, moving the crossover an order of magnitude left.)@.")
  }

(* ------------------------------------------------------------------ *)
(* E16: replication combined with alternatives.                        *)

let e16_replication =
  {
    id = "replication";
    title = "Replicated alternatives: reliability vs execution time";
    paper_ref = "section 6 (replication combined with alternatives)";
    run =
      (fun ~jobs ppf ->
        let trials = 200 in
        let run_config ~replicas ~p_wrong =
          (* Per-trial fan-out: every trial owns its engine and RNG. *)
          let per_trial =
            Parallel.map_indexed_shared ~jobs
              (fun i ->
                let trial = i + 1 in
                let rng = Rng.create ~seed:(trial * 7919) in
                let version =
                  Alternative.make ~name:"v" (fun rctx ->
                      Engine.delay rctx 0.1;
                      if Rng.bernoulli rng ~p:p_wrong then
                        (* Each wrong answer is distinct garbage, as a memory
                           corruption would be. *)
                        1000 + Rng.int rng 1000000
                      else 42)
                in
                let alts =
                  if replicas = 1 then [ version ]
                  else [ Replicate.alternative ~replicas version ]
                in
                let eng = Engine.create ~trace:false () in
                let r = Concurrent.run_toplevel eng alts in
                let outcome =
                  match r.Concurrent.outcome with
                  | Alt_block.Selected { value = 42; _ } -> `Correct
                  | Alt_block.Selected _ -> `Wrong
                  | Alt_block.Block_failed _ -> `Failed
                in
                (outcome, r.Concurrent.elapsed))
              trials
          in
          let count o =
            Array.fold_left
              (fun acc (o', _) -> if o' = o then acc + 1 else acc)
              0 per_trial
          in
          ( float_of_int (count `Correct) /. float_of_int trials,
            float_of_int (count `Wrong) /. float_of_int trials,
            float_of_int (count `Failed) /. float_of_int trials,
            Stats.mean (Array.map snd per_trial) )
        in
        fp ppf "  one 0.1 s version; each execution yields garbage with prob p@.";
        fp ppf "  %-8s %-10s %10s %10s %10s %12s@." "p" "replicas" "correct"
          "wrong" "failed" "mean time";
        hr ppf;
        List.iter
          (fun p_wrong ->
            List.iter
              (fun replicas ->
                let ok, wrong, failed, t = run_config ~replicas ~p_wrong in
                fp ppf "  %-8.2f %-10d %9.0f%% %9.0f%% %9.0f%% %11.3f s@."
                  p_wrong replicas (100. *. ok) (100. *. wrong) (100. *. failed) t)
              [ 1; 3; 5 ])
          [ 0.1; 0.3 ];
        fp ppf
          "  (replication converts silently-wrong commits into either correct@.";
        fp ppf
          "   commits or detected failures, for one quorum's worth of time.)@.")
  }

let all =
  [
    e1_pi_table; e2_fork_latency; e3_page_copy_rate; e4_cow_fraction_sweep;
    e5_remote_fork; e6_schemes; e7_recovery_blocks; e8_prolog_or;
    e9_elimination; e10_consensus; e11_cores; e14_guard_placement;
    e15_distributed_block; e16_replication; e17_prolog_and; e12_real_machine;
    e13_real_race;
  ]

let find id = List.find_opt (fun e -> String.equal e.id id) all

(* The experiments that call [Unix.fork]. OCaml 5 refuses a fork once any
   domain has been spawned, and E7 and E16 start the domain pool when
   [jobs > 1], so [run_all] runs these first. *)
let forking = [ e8_prolog_or; e12_real_machine; e13_real_race ]

let run_all ?ids ?jobs ppf =
  let jobs = match jobs with Some j -> j | None -> Parallel.default_jobs () in
  let selected =
    match ids with
    | None -> all
    | Some ids -> List.filter_map find ids
  in
  let run e ppf =
    fp ppf "@.== %s: %s@.   [%s]@.@." e.id e.title e.paper_ref;
    e.run ~jobs ppf
  in
  (* Each forking experiment prints into a string, emitted at its place. *)
  let forked =
    List.filter_map
      (fun e ->
        if List.memq e forking then Some (e, Format.asprintf "%t" (run e)) else None)
      selected
  in
  List.iter
    (fun e ->
      match List.assq_opt e forked with
      | Some out -> fp ppf "%s@?" out
      | None -> run e ppf)
    selected
