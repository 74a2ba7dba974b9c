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

(* The stream the server consumes is the array [generate] returns,
   element for element, and both are pinned: an FNV-1a hash over all
   seven fields of every request (floats by their exact hex form) at the
   default config and at one that moves every knob. *)
let wl_digest (a : Workload.request array) =
  let h = ref 0xcbf29ce484222325L in
  Array.iter
    (fun (rq : Workload.request) ->
      String.iter
        (fun c ->
          h :=
            Int64.mul
              (Int64.logxor !h (Int64.of_int (Char.code c)))
              0x100000001b3L)
        (Printf.sprintf "%d|%d|%h|%s|%d|%d|%h;" rq.Workload.rq_id
           rq.Workload.rq_tenant rq.Workload.rq_arrival rq.Workload.rq_scenario
           rq.Workload.rq_policy rq.Workload.rq_seed rq.Workload.rq_work))
    a;
  !h

let skewed_wl =
  {
    Workload.wl_seed = 77;
    wl_requests = 5000;
    wl_rate = 800.;
    wl_tenants = 7;
    wl_zipf = 0.;
    wl_tail = 0.7;
    wl_tail_cap = 100.;
    wl_scenarios = [ "counters"; "guarded"; "teletype" ];
    wl_policies = 24;
  }

let test_workload_stream_pinned () =
  List.iter
    (fun (name, wl, pin) ->
      let a = Workload.generate wl in
      let streamed = ref [] in
      Workload.iter wl (fun rq -> streamed := rq :: !streamed);
      check Alcotest.bool (name ^ ": iter yields generate's array") true
        (Array.of_list (List.rev !streamed) = a);
      check Alcotest.int64 (name ^ ": pinned stream") pin (wl_digest a))
    [
      ("default", Workload.default, 0xc596d8f599b58f69L);
      ("skewed", skewed_wl, 0x9bf6eb57d54529b0L);
    ]

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
    ignore (Quota.admit_all [ q ] ~now:(float_of_int k /. 1024.))
  done;
  check Alcotest.int "boundary arrivals all admitted" n (Quota.admitted q);
  (* Arrivals at half the refill period: after the initial burst token
     the pattern must alternate admit/shed forever, exactly. *)
  let q = Quota.create ~rate:1024. ~burst:1 in
  let last_sheds = ref [] in
  for k = 0 to n - 1 do
    let ok = Quota.admit_all [ q ] ~now:(float_of_int k /. 2048.) in
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
  let okays = List.init 5 (fun _ -> Quota.admit_all [ q ] ~now:0.) in
  check
    Alcotest.(list bool)
    "burst then refusal" [ true; true; true; false; false ] okays;
  check Alcotest.bool "shed leaves no tokens" true (Quota.tokens q ~now:0. < 1.);
  (* Sheds must not consume anything: a full refill period later one
     token is back, regardless of how many refusals happened. *)
  check Alcotest.bool "refill after shed burst" true (Quota.admit_all [ q ] ~now:0.1)

(* The guided Zipf pick is the binary search, answer for answer. The
   reference is the library's unguided path: the same CDF, summed in the
   same order so its entries agree to the bit, and a binary search over
   it. *)
module Ref_zipf = struct
  let cdf ~tenants ~s =
    let w = Array.init tenants (fun k -> float_of_int (k + 1) ** -.s) in
    let total = Array.fold_left ( +. ) 0. w in
    let acc = ref 0. in
    let cdf =
      Array.map
        (fun wk ->
          acc := !acc +. (wk /. total);
          !acc)
        w
    in
    cdf.(tenants - 1) <- 1.;
    cdf

  let search cdf u =
    let lo = ref 0 and hi = ref (Array.length cdf - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if u <= cdf.(mid) then hi := mid else lo := mid + 1
    done;
    !lo

  (* Entries in [Zipf.pick]'s guide table. *)
  let buckets = 256
end

let zipf_shapes =
  List.concat_map
    (fun tenants -> List.map (fun s -> (tenants, s)) [ 0.; 1.1; 3. ])
    [ 1; 2; 100; 1000 ]

let test_zipf_pick_boundaries () =
  let below_one u = u >= 0. && u < 1. in
  List.iter
    (fun (tenants, s) ->
      let cdf = Ref_zipf.cdf ~tenants ~s and t = Zipf.table ~tenants ~s in
      let probe u =
        if below_one u then
          check Alcotest.int
            (Printf.sprintf "tenants %d, s %g, u %h" tenants s u)
            (Ref_zipf.search cdf u) (Zipf.pick t u)
      in
      let around u = List.iter probe [ Float.pred u; u; Float.succ u ] in
      for b = 0 to Ref_zipf.buckets do
        around (float_of_int b /. float_of_int Ref_zipf.buckets)
      done;
      Array.iter around cdf;
      probe (Float.pred 1.);
      probe 0.)
    ((100, -1000.) :: zipf_shapes)

let prop_zipf_pick_matches_search =
  QCheck.Test.make ~name:"guided Zipf pick matches the binary search"
    ~count:2000
    QCheck.(pair (int_range 0 (List.length zipf_shapes - 1)) (float_bound_exclusive 1.))
    (fun (shape, u) ->
      let tenants, s = List.nth zipf_shapes shape in
      Zipf.pick (Zipf.table ~tenants ~s) u = Ref_zipf.search (Ref_zipf.cdf ~tenants ~s) u)

(* [Quota.admit_all] against the parent's GCRA with its [List.for_all]
   check and [List.iter] charge, on random streams over random subsets
   (repeats included) of a few buckets. *)
module Ref_quota = struct
  type t = {
    rate : float;
    burst : int;
    mutable base : float;
    mutable steps : int;
    mutable admits : int;
  }

  let create ~rate ~burst = { rate; burst; base = 0.; steps = 0; admits = 0 }

  let conforming t ~now =
    (now -. t.base) *. t.rate >= float_of_int (t.steps - t.burst + 1)

  let charge t ~now =
    let tat = t.base +. (float_of_int t.steps /. t.rate) in
    if now > tat then begin
      t.base <- now;
      t.steps <- 1
    end
    else t.steps <- t.steps + 1;
    t.admits <- t.admits + 1

  let admit_all buckets ~now =
    if List.for_all (fun t -> conforming t ~now) buckets then begin
      List.iter (fun t -> charge t ~now) buckets;
      true
    end
    else false

  let tokens t ~now =
    let avail =
      ((now -. t.base) *. t.rate) -. float_of_int t.steps +. float_of_int t.burst
    in
    Float.max 0. (Float.min (float_of_int t.burst) avail)
end

let prop_admit_all_matches_reference =
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 1 4) (pair (float_range 0.5 50.) (int_range 1 4)))
        (list_size (int_range 0 300)
           (pair (float_bound_inclusive 0.2) (list_size (int_range 0 4) (int_range 0 3)))))
  in
  QCheck.Test.make ~name:"admit_all matches a for_all/iter reference" ~count:300
    (QCheck.make gen) (fun (specs, steps) ->
      let qs = List.map (fun (rate, burst) -> Quota.create ~rate ~burst) specs in
      let rs = List.map (fun (rate, burst) -> Ref_quota.create ~rate ~burst) specs in
      let qa = Array.of_list qs and ra = Array.of_list rs in
      let n = Array.length qa in
      let now = ref 0. in
      let bits = Int64.bits_of_float in
      List.for_all
        (fun (dt, picks) ->
          now := !now +. dt;
          let now = !now in
          let picks = List.map (fun i -> i mod n) picks in
          Quota.admit_all (List.map (fun i -> qa.(i)) picks) ~now
          = Ref_quota.admit_all (List.map (fun i -> ra.(i)) picks) ~now
          && List.for_all2
               (fun q r ->
                 Quota.admitted q = r.Ref_quota.admits
                 && Int64.equal (bits (Quota.tokens q ~now)) (bits (Ref_quota.tokens r ~now)))
               qs rs)
        steps)

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
          if Quota.admit_all [ quota ] ~now then
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

(* Configurations that stress the planner: windows that close at once
   or never, one-job batches, the degradation ladder (degrading and
   shed-only) on a stream it cannot keep up with, the scenario and
   global quota classes, and a finite deadline. The digests are those
   of closing, at each arrival, every due batch in (deadline, open
   order); any other closing order or time moves them. At this arrival
   rate no two requests share a window of zero length, so [window 0]
   and [max_batch 1] both run one-job batches and share a digest. The
   deadline fails two requests. Every row must also answer each request
   exactly once, in its own slot. *)
let planner_rows =
  let wl = { Workload.default with Workload.wl_requests = 300 } in
  let hot = { wl with Workload.wl_requests = 400; wl_rate = 800. } in
  let ladder =
    { (Controller.default ~lanes:4) with Controller.dc_enabled = true }
  in
  [
    ("window 0", wl, { Server.default with Server.sv_window = 0. },
     0x49177a7b3e13aaecL);
    ("window infinity", wl, { Server.default with Server.sv_window = infinity },
     0x883f9c29d35e2434L);
    ("max_batch 1", wl, { Server.default with Server.sv_max_batch = 1 },
     0x49177a7b3e13aaecL);
    ("ladder", hot,
     { Server.default with Server.sv_ladder = ladder; sv_lanes = 4 },
     0xab2879d5ed87b25bL);
    ("shed only", hot,
     {
       Server.default with
       Server.sv_ladder = { ladder with Controller.dc_shed_only = true };
       sv_lanes = 4;
     },
     0xe0a4ea7f2d5679c1L);
    ("quota classes", wl,
     {
       Server.default with
       Server.sv_scenario_rate = 40.;
       sv_scenario_burst = 4;
       sv_global_rate = 120.;
       sv_global_burst = 6;
     },
     0x41ee1588207a65e7L);
    ("deadline", wl, { Server.default with Server.sv_deadline = 0.1 },
     0x93c2d2c7b2736349L);
  ]

let test_planner_rows () =
  List.iter
    (fun (name, (wl : Workload.config), sv, pin) ->
      let r = Server.run wl sv in
      check Alcotest.int64 (name ^ ": digest") pin (Server.digest r);
      check Alcotest.int (name ^ ": census") wl.Workload.wl_requests (answered r);
      check Alcotest.int (name ^ ": one response per request")
        wl.Workload.wl_requests
        (Array.length r.Server.responses);
      Array.iteri
        (fun i (rs : Server.response) ->
          check Alcotest.int (name ^ ": rs_id is the slot") i rs.Server.rs_id)
        r.Server.responses)
    planner_rows

(* A NaN anywhere a float is bounded used to slip past the check: a NaN
   window left requests unanswered, a NaN deadline failed deep in the
   event queue, NaN rates shed everything. Each must now be refused up
   front, like a negative value. *)
let test_nan_config_rejected () =
  let wl = { small_wl with Workload.wl_requests = 50 } in
  let raises name ~by wl sv =
    match Server.run wl sv with
    | _ -> Alcotest.failf "%s: accepted" name
    | exception Invalid_argument msg ->
        if not (String.starts_with ~prefix:(by ^ ": ") msg) then
          Alcotest.failf "%s: raised %S, not from %s" name msg by
  in
  let sv = Server.default in
  let server = "Server.run" and quota = "Quota.create" in
  let workload = "Workload.generate" in
  raises "window nan" ~by:server wl { sv with Server.sv_window = nan };
  raises "deadline nan" ~by:server wl { sv with Server.sv_deadline = nan };
  raises "overhead nan" ~by:server wl { sv with Server.sv_overhead = nan };
  raises "quota rate nan" ~by:quota wl { sv with Server.sv_quota_rate = nan };
  raises "scenario rate nan" ~by:quota wl
    { sv with Server.sv_scenario_rate = nan };
  raises "global rate nan" ~by:quota wl { sv with Server.sv_global_rate = nan };
  raises "rate nan" ~by:workload { wl with Workload.wl_rate = nan } sv;
  raises "tail nan" ~by:workload { wl with Workload.wl_tail = nan } sv;
  raises "tail cap nan" ~by:workload { wl with Workload.wl_tail_cap = nan } sv;
  raises "tail cap -1" ~by:workload { wl with Workload.wl_tail_cap = -1. } sv;
  raises "zipf nan" ~by:workload { wl with Workload.wl_zipf = nan } sv

(* The workload config is checked before the scenario names are
   resolved, as when the whole array was generated first. *)
let test_workload_checked_first () =
  Alcotest.check_raises "bad workload reported before unknown scenario"
    (Invalid_argument "Workload.generate: rate must be > 0") (fun () ->
      ignore
        (Server.run
           {
             small_wl with
             Workload.wl_rate = 0.;
             wl_scenarios = [ "no-such-scenario" ];
           }
           Server.default))

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

(* Every job hands its frames to its domain's free-frame pool, and the
   pool outlives [Server.run]. Run seed A, then B, then A again: the third
   run draws its frames from a pool the first two filled, and must still
   replay the first exactly, at jobs 1 and at jobs 2 alike. The faulted
   configuration also releases supervised restarts' restored spaces. *)
let test_warm_pool_replays () =
  let wl_a = small_wl and wl_b = { small_wl with Workload.wl_seed = 99 } in
  List.iter
    (fun (name, sv) ->
      let digest_at jobs =
        let sv = { sv with Server.sv_jobs = jobs } in
        let first = Server.run wl_a sv in
        ignore (Server.run wl_b sv);
        let third = Server.run wl_a sv in
        check Alcotest.bool
          (Printf.sprintf "%s, jobs %d: warm-pool responses replay" name jobs)
          true
          (first.Server.responses = third.Server.responses);
        check Alcotest.int64
          (Printf.sprintf "%s, jobs %d: warm-pool digest replays" name jobs)
          (Server.digest first) (Server.digest third);
        Server.digest first
      in
      let d1 = digest_at 1 in
      let d2 = digest_at 2 in
      check Alcotest.int64 (name ^ ": jobs-1 = jobs-2") d1 d2)
    [
      ("default", Server.default);
      ("faults", { Server.default with Server.sv_faults = Some 7 });
    ]

(* A domain keeps one engine and resets it for every batch it executes.
   The last batch of a faulted, sanitized run leaves that engine with
   its fault plan, site hooks and parked voters; the same domain (jobs
   1 runs on the caller's) must then serve the 600-request stream with
   the digest `altserve --requests 600` pins. *)
let test_dirty_domain_engine () =
  ignore
    (Server.run
       { Workload.default with Workload.wl_requests = 200 }
       { Server.default with Server.sv_faults = Some 7; sv_sanitize = true; sv_jobs = 1 });
  let r =
    Server.run
      { Workload.default with Workload.wl_requests = 600 }
      { Server.default with Server.sv_jobs = 1 }
  in
  check Alcotest.int64 "pinned digest after a dirty engine" 0xc6e0235e01117f45L
    (Server.digest r)

(* Words the heap keeps live, after a full collection. *)
let live_words () =
  Gc.compact ();
  (Gc.stat ()).Gc.live_words

(* A domain's engine outlives its batches, and must not keep the last
   one's processes, continuations, topology or fault hooks reachable.
   After a faulted run on the calling domain, a one-request clean run
   (whose single batch resets the same engine at its start) may free
   nothing: the faulted run's last batch was dropped when it ended. *)
let test_idle_domain_engine_holds_no_batch () =
  let faulted = { Server.default with Server.sv_faults = Some 7; sv_jobs = 1 } in
  ignore (Server.run { Workload.default with Workload.wl_requests = 2000 } faulted);
  let after_faulted = live_words () in
  ignore
    (Server.run
       { Workload.default with Workload.wl_requests = 1 }
       { Server.default with Server.sv_jobs = 1 });
  let after_clean = live_words () in
  if after_faulted - after_clean > 64 then
    Alcotest.failf "a faulted run's last batch kept %d words live"
      (after_faulted - after_clean)

let test_sanitized_run_stays_clean () =
  let sv = { Server.default with Server.sv_sanitize = true } in
  let r = Server.run { small_wl with Workload.wl_requests = 120 } sv in
  check Alcotest.bool "sanitized serving run flags nothing" true
    (r.Server.violations = [])

(* The sanitizer only observes: on the faulted path it must flag nothing
   and leave every response as the unsanitized run gives it. 500 requests
   reach a batch whose first coordinator wins, absorbs and dies before
   answering, so its recovered successor wins again behind the epoch
   fence — legal under [run_supervised]'s contract. *)
let test_sanitized_faulted_run () =
  let wl = { Workload.default with Workload.wl_requests = 500 } in
  let sv = { Server.default with Server.sv_faults = Some 7 } in
  let plain = Server.run wl sv in
  let sanitized = Server.run wl { sv with Server.sv_sanitize = true } in
  check Alcotest.bool "recoveries happened" true (sanitized.Server.recovered > 0);
  check
    Alcotest.(list string)
    "sanitized faulted run flags nothing" []
    (List.map
       (fun v -> Format.asprintf "%a" Report.pp_violation v)
       sanitized.Server.violations);
  check Alcotest.int64 "sanitizing leaves the digest alone"
    (Server.digest plain) (Server.digest sanitized)

let test_faulted_runs_audit_frames () =
  (* Every batch checks as it ends that no frame is still referenced: a
     coordinator killed between its forks and its children's spawn, or a
     sequential root killed mid-attempt, must have returned its pages. *)
  let wl = { Workload.default with Workload.wl_requests = 2000 } in
  let sv = { Server.default with Server.sv_faults = Some 7 } in
  let ladder =
    { (Controller.default ~lanes:sv.Server.sv_lanes) with Controller.dc_enabled = true }
  in
  List.iter
    (fun (label, sv) ->
      let r = Server.run wl sv in
      check Alcotest.bool (label ^ ": recoveries happened") true (r.Server.recovered > 0);
      check
        Alcotest.(list string)
        (label ^ ": no batch leaks a frame") []
        (List.map
           (fun v -> Format.asprintf "%a" Report.pp_violation v)
           r.Server.violations))
    [ ("faults", sv); ("faults + ladder", { sv with Server.sv_ladder = ladder }) ]

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
      check Alcotest.int "all 34 schema fields present" 34 n
  | Error missing ->
      Alcotest.fail ("missing fields: " ^ String.concat ", " missing)

(* ------------------------------------------------------------------ *)
(* The digest against its definition.                                 *)

(* The renderer [Server.digest] was first written as: one [Printf] line
   per response, folded byte by byte. Kept here as the reference the
   piecewise mix must equal. *)
let reference_digest (r : Server.result) =
  let render_verdict = function
    | Server.Served { alt; value } -> Printf.sprintf "served:%d:%d" alt value
    | Server.Served_degraded { alt; value; level } ->
      Printf.sprintf "degraded:L%d:%d:%d" level alt value
    | Server.Recovered { alt; value; epochs } ->
      Printf.sprintf "recovered:e%d:%d:%d" epochs alt value
    | Server.Failed reason -> Printf.sprintf "failed:%s" reason
    | Server.Rejected (Server.Quota_exhausted { tokens }) ->
      Printf.sprintf "rejected:%.17g" tokens
    | Server.Rejected (Server.Overload { backlog }) ->
      Printf.sprintf "rejected:overload:%.17g" backlog
  in
  let render (rs : Server.response) =
    Printf.sprintf "%d|%d|%d|%s|%.17g|%.17g|%.17g|%.17g" rs.Server.rs_id
      rs.Server.rs_tenant rs.Server.rs_batch
      (render_verdict rs.Server.rs_verdict)
      rs.Server.rs_completion rs.Server.rs_latency rs.Server.rs_elapsed
      rs.Server.rs_wasted
  in
  let h = ref 0xcbf29ce484222325L in
  Array.iter
    (fun rs ->
      String.iter
        (fun c ->
          h :=
            Int64.mul
              (Int64.logxor !h (Int64.of_int (Char.code c)))
              0x100000001b3L)
        (render rs))
    r.Server.responses;
  !h

let test_digest_matches_reference () =
  let odd_floats =
    [ nan; Float.neg nan; infinity; neg_infinity; -0.; 0.; 5e-324; max_float; 0.1; -2.5e-7;
      1e300; 123456789.125 ]
  in
  let verdicts =
    [
      Server.Served { alt = 0; value = 42 };
      Server.Served_degraded { alt = 2; value = -7; level = 1 };
      Server.Served_degraded { alt = 1; value = 0; level = 2 };
      Server.Recovered { alt = 3; value = max_int; epochs = 2 };
      Server.Failed "coordinator lost";
      Server.Failed "";
      Server.Rejected (Server.Quota_exhausted { tokens = 0.25 });
      Server.Rejected (Server.Overload { backlog = 17.5 });
    ]
    @ List.concat_map
        (fun x ->
          [
            Server.Rejected (Server.Quota_exhausted { tokens = x });
            Server.Rejected (Server.Overload { backlog = x });
          ])
        odd_floats
  in
  let nf = List.length odd_floats in
  let responses =
    Array.of_list
      (List.mapi
         (fun i v ->
           let f k = List.nth odd_floats ((i + k) mod nf) in
           {
             Server.rs_id = i;
             rs_tenant = i * 7;
             rs_batch = (if i mod 3 = 0 then -1 else i);
             rs_verdict = v;
             rs_completion = f 0;
             rs_latency = f 1;
             rs_elapsed = f 2;
             rs_wasted = f 3;
           })
         verdicts)
  in
  let result =
    {
      Server.responses;
      batches = [||];
      violations = [];
      served = 0;
      degraded = 0;
      recovered = 0;
      failed = 0;
      shed = 0;
      shed_overload = 0;
      breaker_opens = 0;
      ladder_transitions = 0;
      peak_pressure = 0.;
    }
  in
  check Alcotest.int64 "every verdict and odd float" (reference_digest result)
    (Server.digest result);
  check Alcotest.int64 "no responses" (reference_digest { result with Server.responses = [||] })
    (Server.digest { result with Server.responses = [||] });
  let served = Server.run small_wl Server.default in
  check Alcotest.int64 "a served run" (reference_digest served)
    (Server.digest served)

let () =
  Alcotest.run "serve"
    [
      ( "workload",
        [
          Alcotest.test_case "seeded generation is deterministic" `Quick
            test_workload_deterministic;
          Alcotest.test_case "iter yields the pinned stream" `Quick
            test_workload_stream_pinned;
          Alcotest.test_case "guided Zipf pick at every boundary" `Quick
            test_zipf_pick_boundaries;
          QCheck_alcotest.to_alcotest prop_zipf_pick_matches_search;
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
          QCheck_alcotest.to_alcotest prop_admit_all_matches_reference;
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
          Alcotest.test_case "sanitized faulted run stays clean" `Quick
            test_sanitized_faulted_run;
          Alcotest.test_case "bench record satisfies its schema" `Quick
            test_bench_record_schema;
          Alcotest.test_case "warm frame pool replays exactly" `Quick
            test_warm_pool_replays;
          Alcotest.test_case "a dirty domain engine serves the pinned digest" `Quick
            test_dirty_domain_engine;
          Alcotest.test_case "an idle domain engine holds no batch" `Quick
            test_idle_domain_engine_holds_no_batch;
          Alcotest.test_case "planner rows: pinned digests, one slot each"
            `Quick test_planner_rows;
          Alcotest.test_case "NaN config values are rejected" `Quick
            test_nan_config_rejected;
          Alcotest.test_case "workload config is checked first" `Quick
            test_workload_checked_first;
          Alcotest.test_case "digest matches its Printf definition" `Quick
            test_digest_matches_reference;
          Alcotest.test_case "faulted runs audit 0 leaked frames" `Quick
            test_faulted_runs_audit_frames;
        ] );
    ]
