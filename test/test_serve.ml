(* Tests for the request-driven serving layer (lib/serve): workload
   determinism, GCRA quota exactness at virtual-time boundaries, the
   zero-timeout pure polls a shed path issues, batch formation, and the
   end-to-end determinism contract (replay-identical, jobs-1 = jobs-N). *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Workload generation.                                                *)

let test_workload_deterministic () =
  let wl = { Workload.default with Workload.wl_requests = 500 } in
  let a = Workload.generate wl and b = Workload.generate wl in
  check Alcotest.bool "same seed, same stream" true (a = b);
  Array.iteri
    (fun i (rq : Workload.request) ->
      check Alcotest.int "dense ids" i rq.Workload.rq_id;
      if i > 0 then
        check Alcotest.bool "arrivals nondecreasing" true
          (rq.Workload.rq_arrival >= a.(i - 1).Workload.rq_arrival);
      check Alcotest.bool "tenant in range" true
        (rq.Workload.rq_tenant >= 0
        && rq.Workload.rq_tenant < wl.Workload.wl_tenants);
      check Alcotest.bool "work in [1, cap]" true
        (rq.Workload.rq_work >= 1.
        && rq.Workload.rq_work <= wl.Workload.wl_tail_cap))
    a;
  let c = Workload.generate { wl with Workload.wl_seed = 2 } in
  check Alcotest.bool "different seed, different stream" false (a = c)

(* ------------------------------------------------------------------ *)
(* Quota exactness.

   The GCRA stores an integer admission counter, never a float
   accumulator, so at binary-exact virtual-time boundaries the
   admit/shed pattern is bit-exact arbitrarily far into the stream.
   rate = 1024 makes every k/1024 and k/2048 arrival time exact in
   binary floating point: any drift at all changes the admission
   count. *)

let test_quota_no_drift_over_1e6 () =
  let n = 1_000_000 in
  (* Arrivals exactly at the refill boundary: one token refills per
     step, so every single request must be admitted — the millionth
     decision compares k >= k with no accumulated error. *)
  let q = Quota.create ~rate:1024. ~burst:1 in
  for k = 0 to n - 1 do
    ignore (Quota.admit q ~now:(float_of_int k /. 1024.))
  done;
  check Alcotest.int "boundary arrivals all admitted" n (Quota.admitted q);
  (* Arrivals at half the refill period: after the initial burst token
     the pattern must alternate admit/shed forever, exactly. *)
  let q = Quota.create ~rate:1024. ~burst:1 in
  let last_sheds = ref [] in
  for k = 0 to n - 1 do
    let ok = Quota.admit q ~now:(float_of_int k /. 2048.) in
    if k >= n - 4 then last_sheds := ok :: !last_sheds
  done;
  check Alcotest.int "half-period arrivals alternate exactly" (n / 2)
    (Quota.admitted q);
  check
    Alcotest.(list bool)
    "tail of the stream still alternates" [ true; false; true; false ]
    (List.rev !last_sheds)

let test_quota_burst_and_refusal () =
  let q = Quota.create ~rate:10. ~burst:3 in
  let okays = List.init 5 (fun _ -> Quota.admit q ~now:0.) in
  check
    Alcotest.(list bool)
    "burst then refusal" [ true; true; true; false; false ] okays;
  check Alcotest.bool "shed leaves no tokens" true (Quota.tokens q ~now:0. < 1.);
  (* Sheds must not consume anything: a full refill period later one
     token is back, regardless of how many refusals happened. *)
  check Alcotest.bool "refill after shed burst" true (Quota.admit q ~now:0.1)

(* Composed quota classes (tenant x scenario x global): a request is
   admitted only when every class conforms, and a composite shed
   charges none of them — the all-or-nothing contract admission relies
   on so one starved class cannot silently drain the others. *)

let test_quota_classes_all_or_nothing () =
  let tenant = Quota.create ~rate:10. ~burst:2 in
  let global = Quota.create ~rate:10. ~burst:1 in
  check Alcotest.bool "both conform: admitted" true
    (Quota.admit_all [ tenant; global ] ~now:0.);
  (* The global bucket is now empty; the tenant still holds a token. *)
  check Alcotest.bool "one class starved: shed" false
    (Quota.admit_all [ tenant; global ] ~now:0.);
  check Alcotest.int "composite shed charged the tenant nothing" 1
    (Quota.admitted tenant);
  check Alcotest.bool "tenant token survived the composite shed" true
    (Quota.tokens tenant ~now:0. >= 1.);
  (* After a global refill period both conform again — the shed left no
     debt anywhere. *)
  check Alcotest.bool "refill readmits" true
    (Quota.admit_all [ tenant; global ] ~now:0.1)

let test_quota_classes_no_drift_over_1e6 () =
  (* The PR 8 drift test, lifted to the composed form: three classes at
     the same binary-exact rate, arrivals exactly on the refill
     boundary. Every arrival must pass all three, a million times, with
     the admit counts in lockstep — any float drift in any class breaks
     the equality. *)
  let n = 1_000_000 in
  let mk () = Quota.create ~rate:1024. ~burst:1 in
  let a = mk () and b = mk () and c = mk () in
  for k = 0 to n - 1 do
    ignore (Quota.admit_all [ a; b; c ] ~now:(float_of_int k /. 1024.))
  done;
  List.iter
    (fun q -> check Alcotest.int "boundary arrivals all admitted" n
        (Quota.admitted q))
    [ a; b; c ];
  (* Half-period arrivals with one tight class: the tight bucket
     alternates admit/shed exactly, and the loose buckets must show
     exactly the same count — composite sheds never charge them. *)
  let tight = mk () in
  let loose = Quota.create ~rate:4096. ~burst:8 in
  for k = 0 to n - 1 do
    ignore (Quota.admit_all [ loose; tight ] ~now:(float_of_int k /. 2048.))
  done;
  check Alcotest.int "tight class alternates exactly" (n / 2)
    (Quota.admitted tight);
  check Alcotest.int "loose class charged only on admits" (n / 2)
    (Quota.admitted loose)

(* ------------------------------------------------------------------ *)
(* Zero-timeout pure polls inside an admission-shed path.

   A frontend that sheds a request typically drains without blocking:
   poll for a cancel message, poll the response ivar it will never
   fill. Both [~timeout:0.] forms must return immediately — no parking,
   no virtual-time advance — whether or not something is queued. *)

let test_timeout_zero_polls_in_shed_path () =
  let eng = Engine.create ~trace:false () in
  let quota = Quota.create ~rate:10. ~burst:1 in
  let polled = ref [] in
  let frontend_ready = Engine.Ivar.create () in
  let frontend =
    Engine.spawn eng (fun ctx ->
        ignore (Engine.Ivar.try_fill frontend_ready ());
        (* Two requests arrive at the same virtual instant; the bucket
           holds one token, so the second is shed. *)
        for _ = 1 to 2 do
          let m = Engine.receive ctx ~tag:"req" () in
          let now = Engine.now_v ctx in
          if Quota.admit quota ~now then
            polled := `Admitted (Payload.get_int m.Message.payload) :: !polled
          else begin
            (* The shed path: pure polls only, never a park. *)
            let t0 = Engine.now_v ctx in
            let cancel = Engine.receive_timeout ctx ~tag:"cancel" ~timeout:0. () in
            let iv = Engine.Ivar.create () in
            let unfilled = Engine.Ivar.read_timeout ctx iv ~timeout:0. in
            ignore (Engine.Ivar.try_fill iv 7);
            let filled = Engine.Ivar.read_timeout ctx iv ~timeout:0. in
            let stray = Engine.receive_timeout ctx ~tag:"req" ~timeout:0. () in
            check (Alcotest.float 0.) "polls do not advance virtual time" t0
              (Engine.now_v ctx);
            polled :=
              `Shed
                ( Option.is_some cancel,
                  unfilled,
                  filled,
                  Option.map (fun m -> Payload.get_int m.Message.payload) stray )
              :: !polled
          end
        done)
  in
  ignore
    (Engine.spawn eng (fun ctx ->
        ignore (Engine.Ivar.read ctx frontend_ready);
        Engine.send ctx ~tag:"req" frontend (Payload.int 1);
        Engine.send ctx ~tag:"req" frontend (Payload.int 2)));
  Engine.run eng;
  match List.rev !polled with
  | [ `Admitted 1; `Shed (cancel, unfilled, filled, stray) ] ->
      check Alcotest.bool "no cancel queued" false cancel;
      check (Alcotest.option Alcotest.int) "unfilled ivar polls None" None
        unfilled;
      check (Alcotest.option Alcotest.int) "filled ivar polls Some" (Some 7)
        filled;
      check (Alcotest.option Alcotest.int) "no third request queued" None stray
  | _ -> Alcotest.fail "expected one admitted then one shed request"

(* ------------------------------------------------------------------ *)
(* Batch formation and honest shedding.                                *)

let small_wl = { Workload.default with Workload.wl_requests = 300 }

let answered (r : Server.result) =
  r.Server.served + r.Server.degraded + r.Server.recovered + r.Server.failed
  + r.Server.shed

let test_batch_invariants () =
  let r = Server.run small_wl Server.default in
  check Alcotest.int "every request answered" small_wl.Workload.wl_requests
    (answered r);
  check Alcotest.int "default config never degrades" 0
    (r.Server.degraded + r.Server.recovered + r.Server.shed_overload);
  let requests = Workload.generate small_wl in
  Array.iter
    (fun (bs : Server.batch_stat) ->
      check Alcotest.bool "batch occupancy within bound" true
        (bs.Server.bs_size >= 1
        && bs.Server.bs_size <= Server.default.Server.sv_max_batch);
      check Alcotest.bool "dispatch after close" true
        (bs.Server.bs_start >= bs.Server.bs_close);
      check Alcotest.bool "service takes time" true
        (bs.Server.bs_done > bs.Server.bs_start))
    r.Server.batches;
  Array.iter
    (fun (rs : Server.response) ->
      let rq = requests.(rs.Server.rs_id) in
      match rs.Server.rs_verdict with
      | Server.Rejected (Server.Quota_exhausted { tokens }) ->
          check Alcotest.int "rejections carry no batch" (-1) rs.Server.rs_batch;
          check Alcotest.bool "honest refusal: bucket really was empty" true
            (tokens < 1.)
      | Server.Rejected (Server.Overload _) ->
          Alcotest.fail "ladder disabled: no overload sheds possible"
      | _ ->
          check Alcotest.bool "completion after arrival" true
            (rs.Server.rs_completion > rq.Workload.rq_arrival);
          check Alcotest.bool "latency consistent" true
            (Float.abs
               (rs.Server.rs_latency
               -. (rs.Server.rs_completion -. rq.Workload.rq_arrival))
            < 1e-9))
    r.Server.responses;
  check Alcotest.bool "healthy run has no violations" true
    (r.Server.violations = [])

let test_starved_quota_sheds_honestly () =
  let sv =
    { Server.default with Server.sv_quota_rate = 0.01; sv_quota_burst = 1 }
  in
  let r = Server.run small_wl sv in
  check Alcotest.bool "starved quota sheds most of the stream" true
    (r.Server.shed > small_wl.Workload.wl_requests / 2);
  check Alcotest.int "every request still answered"
    small_wl.Workload.wl_requests (answered r)

let test_starved_quota_classes_shed_honestly () =
  (* A tight global class behind generous tenant buckets: the composite
     must shed most of the stream, name the binding constraint in the
     verdict, and the response census must still balance. *)
  let sv =
    { Server.default with Server.sv_global_rate = 1.; sv_global_burst = 1 }
  in
  let r = Server.run small_wl sv in
  check Alcotest.bool "starved global class sheds most of the stream" true
    (r.Server.shed > small_wl.Workload.wl_requests / 2);
  check Alcotest.int "every request still answered"
    small_wl.Workload.wl_requests (answered r);
  Array.iter
    (fun (rs : Server.response) ->
      match rs.Server.rs_verdict with
      | Server.Rejected (Server.Quota_exhausted { tokens }) ->
          check Alcotest.bool "refusal names the binding (empty) class" true
            (tokens < 1.)
      | _ -> ())
    r.Server.responses

(* ------------------------------------------------------------------ *)
(* The determinism contract, end to end.                               *)

let test_replay_and_jobs_identical () =
  let sv = { Server.default with Server.sv_jobs = 3 } in
  let d3 = Server.digest (Server.run small_wl sv) in
  let d3' = Server.digest (Server.run small_wl sv) in
  let d1 = Server.digest (Server.run small_wl { sv with Server.sv_jobs = 1 }) in
  check Alcotest.bool "replay is byte-identical" true (d3 = d3');
  check Alcotest.bool "jobs-1 = jobs-3" true (d1 = d3);
  let other =
    Server.digest (Server.run { small_wl with Workload.wl_seed = 99 } sv)
  in
  check Alcotest.bool "different seed, different digest" false (d3 = other)

let test_sanitized_run_stays_clean () =
  let sv = { Server.default with Server.sv_sanitize = true } in
  let r = Server.run { small_wl with Workload.wl_requests = 120 } sv in
  check Alcotest.bool "sanitized serving run flags nothing" true
    (r.Server.violations = [])

let test_bench_record_schema () =
  let sv = Server.default in
  let wl = { small_wl with Workload.wl_requests = 150 } in
  let r, m, v = Servebench.run_verified wl sv in
  check Alcotest.bool "verification passes" true
    (v.Servebench.v_replay_identical && v.Servebench.v_jobs_identical);
  check Alcotest.int "occupancy histogram covers every batch"
    m.Servebench.m_batches
    (Array.fold_left ( + ) 0 m.Servebench.m_occupancy);
  check Alcotest.int "metrics count what the server counted"
    (r.Server.served + r.Server.failed)
    (m.Servebench.m_served + m.Servebench.m_failed);
  check Alcotest.int "degraded/recovered counters flow through" 0
    (m.Servebench.m_degraded + m.Servebench.m_recovered);
  match Servebench.validate (Servebench.to_json wl sv m v) with
  | Ok n ->
      check Alcotest.int "all schema fields present"
        (List.length Servebench.required_fields)
        n
  | Error missing ->
      Alcotest.fail ("missing fields: " ^ String.concat ", " missing)

let () =
  Alcotest.run "serve"
    [
      ( "workload",
        [
          Alcotest.test_case "seeded generation is deterministic" `Quick
            test_workload_deterministic;
        ] );
      ( "quota",
        [
          Alcotest.test_case "no drift across 10^6 boundary arrivals" `Quick
            test_quota_no_drift_over_1e6;
          Alcotest.test_case "burst then refusal then refill" `Quick
            test_quota_burst_and_refusal;
          Alcotest.test_case "composed classes are all-or-nothing" `Quick
            test_quota_classes_all_or_nothing;
          Alcotest.test_case "composed classes: no drift across 10^6" `Quick
            test_quota_classes_no_drift_over_1e6;
        ] );
      ( "shed path",
        [
          Alcotest.test_case "zero-timeout polls never park" `Quick
            test_timeout_zero_polls_in_shed_path;
        ] );
      ( "server",
        [
          Alcotest.test_case "batch and response invariants" `Quick
            test_batch_invariants;
          Alcotest.test_case "starved quota sheds honestly" `Quick
            test_starved_quota_sheds_honestly;
          Alcotest.test_case "starved quota classes shed honestly" `Quick
            test_starved_quota_classes_shed_honestly;
          Alcotest.test_case "replay identical, jobs-1 = jobs-N" `Quick
            test_replay_and_jobs_identical;
          Alcotest.test_case "sanitized run stays clean" `Quick
            test_sanitized_run_stays_clean;
          Alcotest.test_case "bench record satisfies its schema" `Quick
            test_bench_record_schema;
        ] );
    ]
