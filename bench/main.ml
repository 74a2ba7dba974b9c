(* The benchmark harness.

   Part 1 regenerates every table and figure of the paper's evaluation
   (experiments E1-E17; see EXPERIMENTS.md), printing paper-vs-measured
   rows. Part 2 runs Bechamel microbenchmarks of the core primitives, so
   that regressions in the substrate itself are visible. *)

let run_experiments () =
  Format.printf "=============================================================@.";
  Format.printf " Transparent Concurrent Execution of Mutually Exclusive@.";
  Format.printf " Alternatives - evaluation harness (Smith & Maguire, ICDCS 89)@.";
  Format.printf "=============================================================@.";
  Experiments.run_all Format.std_formatter;
  Format.printf "@."

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks.                                           *)

open Bechamel
open Toolkit

let bench_page_map_fork =
  Test.make ~name:"page_map.fork (64 pages)"
    (Staged.stage (fun () ->
         let store = Frame_store.create ~page_size:4096 in
         let m = Page_map.create store in
         let copied = ref false in
         for vp = 0 to 63 do
           Page_map.write m ~vpage:vp ~off:0 ~src:(Bytes.make 8 'x') ~copied
         done;
         let c = Page_map.fork m in
         Page_map.release c;
         Page_map.release m))

let bench_cow_write =
  let store = Frame_store.create ~page_size:4096 in
  let parent = Page_map.create store in
  let copied = ref false in
  let () =
    for vp = 0 to 15 do
      Page_map.write parent ~vpage:vp ~off:0 ~src:(Bytes.make 8 'p') ~copied
    done
  in
  Test.make ~name:"page_map COW fault (16-page fork + 1 write)"
    (Staged.stage (fun () ->
         let child = Page_map.fork parent in
         let copied = ref false in
         Page_map.write child ~vpage:7 ~off:0 ~src:(Bytes.make 8 'c') ~copied;
         Page_map.release child))

let bench_scalar_fast_path =
  let store = Frame_store.create ~page_size:4096 in
  let space = Address_space.create ~size_hint:4096 store Cost_model.modern in
  let () =
    Address_space.set_int space ~addr:0 1;
    ignore (Address_space.drain_cost space)
  in
  Test.make ~name:"address_space scalar get_int+set_int (in place)"
    (Staged.stage (fun () ->
         Address_space.set_int space ~addr:8
           (Address_space.get_int space ~addr:0 + 1)))

let bench_scalar_byte_path =
  let store = Frame_store.create ~page_size:4096 in
  let space = Address_space.create ~size_hint:4096 store Cost_model.modern in
  let () =
    Address_space.set_int space ~addr:0 1;
    ignore (Address_space.drain_cost space)
  in
  Test.make ~name:"address_space scalar via read/write_bytes"
    (Staged.stage (fun () ->
         let b = Address_space.read_bytes space ~addr:0 ~len:8 in
         let v = Int64.to_int (Bytes.get_int64_le b 0) in
         let out = Bytes.create 8 in
         Bytes.set_int64_le out 0 (Int64.of_int (v + 1));
         Address_space.write_bytes space ~addr:8 out))

let bench_absorb_dirty =
  let store = Frame_store.create ~page_size:4096 in
  let parent = Page_map.create store in
  let () =
    for vp = 0 to 255 do
      ignore (Page_map.set_u8 parent ~vpage:vp ~off:0 1)
    done
  in
  Test.make ~name:"page_map fork + 4 dirty + absorb (256 mapped)"
    (Staged.stage (fun () ->
         let child = Page_map.fork parent in
         for vp = 0 to 3 do
           ignore (Page_map.set_u8 child ~vpage:vp ~off:1 2)
         done;
         Page_map.absorb ~parent ~child))

let bench_predicate_ops =
  let a =
    Predicate.make
      ~must_complete:(List.init 4 Pid.of_int)
      ~must_fail:(List.init 4 (fun i -> Pid.of_int (10 + i)))
  in
  let b =
    Predicate.make
      ~must_complete:(List.init 2 Pid.of_int)
      ~must_fail:(List.init 2 (fun i -> Pid.of_int (10 + i)))
  in
  Test.make ~name:"predicate implies+conflicts+conjoin"
    (Staged.stage (fun () ->
         ignore (Predicate.implies a b);
         ignore (Predicate.conflicts a b);
         ignore (Predicate.conjoin a b)))

let bench_unify =
  let t1, _ = Parser.query "f(X, g(Y, [1,2,3]), h(Z))" in
  let t2, _ = Parser.query "f(a, g(b, [1,2,3]), h(c(d)))" in
  let t2 = Term.rename ~offset:10 t2 in
  Test.make ~name:"unify f/3 against f/3"
    (Staged.stage (fun () -> ignore (Unify.unify Subst.empty t1 t2)))

let bench_event_queue =
  Test.make ~name:"event queue: 64 push + 64 pop"
    (Staged.stage (fun () ->
         let q = Event_queue.create () in
         for i = 0 to 63 do
           Event_queue.push q ~time:(float_of_int ((i * 7919) mod 64)) i
         done;
         let rec drain () = match Event_queue.pop q with Some _ -> drain () | None -> () in
         drain ()))

let bench_engine_race =
  Test.make ~name:"alt block: race 3 fixed alternatives (DES)"
    (Staged.stage (fun () ->
         let eng = Engine.create ~trace:false () in
         ignore
           (Concurrent.run_toplevel eng
              [
                Alternative.fixed ~cost:3. 0; Alternative.fixed ~cost:1. 1;
                Alternative.fixed ~cost:2. 2;
              ])))

let bench_prolog_solve =
  let db = Database.with_prelude () in
  let goal, _ = Parser.query "append(X, Y, [1,2,3,4,5,6,7,8])" in
  Test.make ~name:"prolog: all splits of an 8-list"
    (Staged.stage (fun () -> ignore (Solve.run db goal)))

let bench_message_round =
  Test.make ~name:"DES: message round trip"
    (Staged.stage (fun () ->
         let eng = Engine.create ~trace:false () in
         let echo =
           Engine.spawn eng ~oblivious:true (fun ctx ->
               let m = Engine.receive ctx () in
               Engine.send ctx m.Message.sender m.Message.payload)
         in
         ignore
           (Engine.spawn eng (fun ctx ->
                Engine.send ctx echo (Payload.int 1);
                ignore (Engine.receive ctx ())));
         Engine.run eng))

let bench_checkpoint =
  let model = Cost_model.uniform ~page_size:4096 () in
  let store = Frame_store.create ~page_size:4096 in
  let sp = Address_space.create ~size_hint:(64 * 4096) store model in
  Test.make ~name:"checkpoint capture+serialise (64 pages)"
    (Staged.stage (fun () ->
         let image = Checkpoint.capture sp in
         ignore (Checkpoint.to_bytes image);
         Checkpoint.release image))

let bench_txn_commit =
  Test.make ~name:"txn: begin+write+commit (DES)"
    (Staged.stage (fun () ->
         let eng = Engine.create ~trace:false () in
         let st = Txn.create_store eng ~records:16 in
         ignore
           (Engine.spawn eng ~cloneable:false (fun ctx ->
                let t = Txn.begin_ ctx st in
                Txn.write ctx t ~key:3 7;
                ignore (Txn.commit ctx t)));
         Engine.run eng))

let bench_consensus_round =
  Test.make ~name:"consensus: acquire among 3 voters (DES)"
    (Staged.stage (fun () ->
         let eng = Engine.create ~trace:false () in
         let m = Majority.create eng ~nodes:3 () in
         ignore
           (Engine.spawn eng (fun ctx ->
                ignore (Majority.acquire ctx m ~reply_timeout:1.);
                Majority.shutdown m));
         Engine.run eng))

let bench_replica_quorum =
  Test.make ~name:"replicate: 3-replica quorum (DES)"
    (Staged.stage (fun () ->
         let eng = Engine.create ~trace:false () in
         ignore
           (Engine.spawn eng ~cloneable:false (fun ctx ->
                ignore (Replicate.run_quorum ctx ~replicas:3 (fun _ -> 42))));
         Engine.run eng))

let bench_quota_admit =
  (* The serving layer's admission hot path: one GCRA decision per
     arriving request, shed or admit, no allocation. *)
  let q = Quota.create ~rate:1000. ~burst:8 in
  let now = ref 0. in
  Test.make ~name:"serve: quota admit/shed decision (GCRA)"
    (Staged.stage (fun () ->
         now := !now +. 0.0005;
         ignore (Quota.admit q ~now:!now)))

let bench_serve_plan =
  (* Admission + batch formation over a 200-request open-loop stream —
     the pure planning scan, no engines. *)
  let wl = { Workload.default with Workload.wl_requests = 200 } in
  Test.make ~name:"serve: plan 200-request open-loop stream"
    (Staged.stage (fun () -> ignore (Workload.generate wl)))

let microbenchmarks () =
  Format.printf "@.== Microbenchmarks (Bechamel, OLS ns/run) ==@.@.";
  let tests =
    [
      bench_page_map_fork; bench_cow_write; bench_scalar_fast_path;
      bench_scalar_byte_path; bench_absorb_dirty; bench_predicate_ops; bench_unify;
      bench_event_queue; bench_engine_race; bench_prolog_solve;
      bench_message_round; bench_checkpoint; bench_txn_commit;
      bench_consensus_round; bench_replica_quorum; bench_quota_admit;
      bench_serve_plan;
    ]
  in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 500) ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let analysed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name est ->
          match Analyze.OLS.estimates est with
          | Some [ ns ] -> Format.printf "  %-46s %12.0f ns/run@." name ns
          | _ -> Format.printf "  %-46s %12s@." name "n/a")
        analysed)
    tests

let () =
  let args = Array.to_list Sys.argv in
  let skip_micro = List.mem "--no-micro" args in
  let skip_tables = List.mem "--micro-only" args in
  if not skip_tables then run_experiments ();
  if not skip_micro then microbenchmarks ()
