(* Tests for the overload-robustness layer: the deterministic
   degradation ladder (lib/serve/controller.ml), the per-site circuit
   breakers (lib/serve/breaker.ml), supervised request recovery through
   the server, and the chaos/degrade campaigns (lib/serve/chaosserve.ml). *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Controller: the ladder walks one rung at a time, with hysteresis.   *)

let ladder_cfg =
  {
    (Controller.default ~lanes:1) with
    Controller.dc_enabled = true;
    dc_est_service = 1.0;
    dc_window = 1000.;
    (* A huge decay window so these unit walks are pure leaky-bucket
       arithmetic, unobscured by the shed-rate term. *)
  }

let test_controller_validations () =
  Alcotest.check_raises "thresholds must increase"
    (Invalid_argument "Controller.create: thresholds must increase up the ladder")
    (fun () ->
      ignore
        (Controller.create
           { ladder_cfg with Controller.dc_latch_at = 5.0 }));
  Alcotest.check_raises "hysteresis in [0, 1)"
    (Invalid_argument "Controller.create: hysteresis must be in [0, 1)")
    (fun () ->
      ignore
        (Controller.create { ladder_cfg with Controller.dc_hysteresis = 1.0 }))

let test_controller_disabled_is_noop () =
  let t = Controller.create (Controller.default ~lanes:1) in
  for k = 0 to 999 do
    match
      Controller.decide t ~cls:"c" ~now:(float_of_int k *. 0.001) ~work:100.
    with
    | Controller.Admit { level = 0 } -> ()
    | _ -> Alcotest.fail "disabled controller must admit at full service"
  done;
  check Alcotest.int "no transitions" 0 (Controller.transitions t);
  check (Alcotest.float 0.) "no pressure tracked" 0.
    (Controller.peak_pressure t)

(* Feed arrivals at one instant so nothing drains between decisions:
   each admit deposits [est * work] and pressure is exactly the running
   backlog. With est = 1, lanes = 1 and work = 0.2, pressure crosses
   0.4 / 1.2 / 3.0 at predictable arrival counts, and each crossing
   moves the class exactly one rung. *)
let test_controller_walks_down_one_rung_at_a_time () =
  let t = Controller.create ladder_cfg in
  let levels = ref [] in
  for _ = 1 to 20 do
    match Controller.decide t ~cls:"c" ~now:0. ~work:0.2 with
    | Controller.Admit { level } -> levels := level :: !levels
    | Controller.Shed _ -> levels := 3 :: !levels
  done;
  let levels = List.rev !levels in
  (* Never skips a rung in either direction. *)
  ignore
    (List.fold_left
       (fun prev l ->
         check Alcotest.bool "one rung per decision" true (abs (l - prev) <= 1);
         l)
       0 levels);
  check Alcotest.int "reaches the shed rung under sustained pressure" 3
    (List.nth levels 19);
  check Alcotest.bool "passes through every intermediate rung" true
    (List.mem 1 levels && List.mem 2 levels);
  check Alcotest.bool "transitions counted" true (Controller.transitions t >= 3);
  check Alcotest.bool "sheds counted" true (Controller.overload_sheds t >= 1)

let test_controller_hysteresis_recovers () =
  let t = Controller.create ladder_cfg in
  (* Push the class to rung 1. *)
  let rec push n =
    if n = 0 then ()
    else begin
      ignore (Controller.decide t ~cls:"c" ~now:0. ~work:0.2);
      push (n - 1)
    end
  in
  push 3;
  check Alcotest.int "pushed to rung 1" 1 (Controller.level t ~cls:"c");
  (* A little drain is not enough: pressure must fall below
     latch_at * (1 - hysteresis) = 0.3 before the class steps back up. *)
  (match Controller.decide t ~cls:"c" ~now:0.25 ~work:0.0001 with
  | Controller.Admit { level } ->
      check Alcotest.int "hysteresis holds the rung" 1 level
  | Controller.Shed _ -> Alcotest.fail "not overloaded enough to shed");
  (* After a long quiet spell the bucket is empty and the class climbs
     back — again one rung at a time. *)
  (match Controller.decide t ~cls:"c" ~now:10. ~work:0.0001 with
  | Controller.Admit { level } ->
      check Alcotest.int "recovered to full service" 0 level
  | Controller.Shed _ -> Alcotest.fail "idle stream must not shed")

let test_controller_sheds_deposit_nothing () =
  let t = Controller.create ladder_cfg in
  (* Saturate to the shed rung, then keep offering at one instant:
     refused work must never occupy a lane, so the backlog each refusal
     reports stays exactly where the admitted work left it instead of
     climbing with the offered load. *)
  let backlog_of = function
    | Controller.Shed { backlog } -> Some backlog
    | Controller.Admit _ -> None
  in
  let first_shed = ref None in
  for _ = 1 to 50 do
    match backlog_of (Controller.decide t ~cls:"c" ~now:0. ~work:0.2) with
    | Some b when !first_shed = None -> first_shed := Some b
    | _ -> ()
  done;
  let first = Option.get !first_shed in
  let last = ref first in
  for _ = 1 to 1000 do
    match backlog_of (Controller.decide t ~cls:"c" ~now:0. ~work:0.2) with
    | Some b -> last := b
    | None -> Alcotest.fail "saturated controller must keep shedding"
  done;
  check (Alcotest.float 0.) "a thousand refusals do not move the backlog"
    first !last

let test_controller_shed_only_is_all_or_nothing () =
  (* The shed-only baseline runs the same meter, thresholds and
     hysteresis, but every rung below full service sheds: it must never
     hand out a degraded admit, and on the same stream it can only shed
     more than the ladder (its refusals deposit nothing, so its meter
     reads lower — yet it still answers fewer requests). *)
  let a = Controller.create ladder_cfg in
  let b = Controller.create { ladder_cfg with Controller.dc_shed_only = true } in
  let degraded_admits = ref 0 in
  for k = 0 to 199 do
    let now = float_of_int k *. 0.01 in
    ignore (Controller.decide a ~cls:"c" ~now ~work:0.3);
    match Controller.decide b ~cls:"c" ~now ~work:0.3 with
    | Controller.Admit { level } -> if level > 0 then incr degraded_admits
    | Controller.Shed _ -> ()
  done;
  check Alcotest.int "baseline never hands out a degraded admit" 0
    !degraded_admits;
  check Alcotest.bool "ladder walked its rungs on this stream" true
    (Controller.transitions a > 0);
  check Alcotest.bool "baseline sheds at least as much" true
    (Controller.overload_sheds b >= Controller.overload_sheds a);
  check Alcotest.bool "baseline answers no more than the ladder" true
    (Controller.overload_sheds b > 0)

(* A NaN field used to pass [create]'s checks, each written as "reject
   when out of range", which NaN never is. A NaN window or estimate then
   left an overloaded controller shedding nothing: one lane, one arrival
   of work 5 per millisecond, 20,000 decisions, 0 sheds where the
   default config sheds 19,978. One case per field. *)
let controller_rejects_nan field cfg msg () =
  Alcotest.check_raises (field ^ " = nan")
    (Invalid_argument ("Controller.create: " ^ msg))
    (fun () -> ignore (Controller.create cfg))

let test_controller_nan_est_service =
  controller_rejects_nan "est_service"
    { ladder_cfg with Controller.dc_est_service = nan }
    "est_service must be > 0"

let test_controller_nan_hysteresis =
  controller_rejects_nan "hysteresis"
    { ladder_cfg with Controller.dc_hysteresis = nan }
    "hysteresis must be in [0, 1)"

let test_controller_nan_window =
  controller_rejects_nan "window"
    { ladder_cfg with Controller.dc_window = nan }
    "window must be > 0"

(* The parent's controller, kept here as the reference for the class
   table: a [Hashtbl] from class label to rung, the meter in mutable
   fields. Same arithmetic in the same order. *)
module Ref_controller = struct
  open Controller

  type t = {
    cfg : config;
    mutable outstanding : float;
    mutable last : float;
    mutable dec_arrivals : float;
    mutable dec_sheds : float;
    levels : (string, int) Hashtbl.t;
    mutable transitions : int;
    mutable overload_sheds : int;
    mutable peak_pressure : float;
  }

  let create cfg =
    {
      cfg;
      outstanding = 0.;
      last = 0.;
      dec_arrivals = 0.;
      dec_sheds = 0.;
      levels = Hashtbl.create 16;
      transitions = 0;
      overload_sheds = 0;
      peak_pressure = 0.;
    }

  let threshold cfg = function
    | 0 -> cfg.dc_latch_at
    | 1 -> cfg.dc_seq_at
    | _ -> cfg.dc_shed_at

  let advance t ~now =
    let dt = now -. t.last in
    if dt > 0. then begin
      t.outstanding <-
        Float.max 0. (t.outstanding -. (dt *. float_of_int t.cfg.dc_lanes));
      let decay = Float.exp (-.dt /. t.cfg.dc_window) in
      t.dec_arrivals <- t.dec_arrivals *. decay;
      t.dec_sheds <- t.dec_sheds *. decay;
      t.last <- now
    end

  let pressure t =
    let backlog = t.outstanding /. float_of_int t.cfg.dc_lanes in
    let shed_frac =
      if t.dec_arrivals <= 0. then 0. else t.dec_sheds /. t.dec_arrivals
    in
    backlog *. (1. +. shed_frac)

  let decide t ~cls ~now ~work =
    if not t.cfg.dc_enabled then Admit { level = 0 }
    else begin
      advance t ~now;
      let p = pressure t in
      if p > t.peak_pressure then t.peak_pressure <- p;
      let current =
        match Hashtbl.find_opt t.levels cls with Some l -> l | None -> 0
      in
      let next =
        if current < 3 && p >= threshold t.cfg current then current + 1
        else if
          current > 0
          && p <= threshold t.cfg (current - 1) *. (1. -. t.cfg.dc_hysteresis)
        then current - 1
        else current
      in
      if next <> current then begin
        Hashtbl.replace t.levels cls next;
        t.transitions <- t.transitions + 1
      end;
      let effective = if t.cfg.dc_shed_only && next > 0 then 3 else next in
      t.dec_arrivals <- t.dec_arrivals +. 1.;
      if effective >= 3 then begin
        t.dec_sheds <- t.dec_sheds +. 1.;
        t.overload_sheds <- t.overload_sheds + 1;
        Shed { backlog = t.outstanding /. float_of_int t.cfg.dc_lanes }
      end
      else begin
        t.outstanding <- t.outstanding +. (t.cfg.dc_est_service *. work);
        Admit { level = effective }
      end
    end

  let level t ~cls =
    match Hashtbl.find_opt t.levels cls with Some l -> l | None -> 0
end

let same_decision a b =
  match (a, b) with
  | Controller.Admit { level = x }, Controller.Admit { level = y } -> x = y
  | Controller.Shed { backlog = x }, Controller.Shed { backlog = y } ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> false

(* Class labels as a server builds them, once, and shared by physical
   identity; the stream also passes fresh strings equal to them, and
   labels of classes first seen late. *)
let shared_labels =
  Array.init 12 (fun c -> Printf.sprintf "sc%d/%d" (c / 4) (c mod 4))

let gen_decisions =
  QCheck.Gen.(
    list_size (int_range 0 400)
      (triple
         (pair (int_range 0 11) (int_range 0 3))
         (frequency [ (3, return 0.); (2, float_bound_inclusive 0.05);
                      (1, float_bound_inclusive 2.) ])
         (float_range 0.5 20.)))

let gen_ladder_cfg =
  QCheck.Gen.(
    map
      (fun (((lanes, est), (window, hyst)), shed_only) ->
        {
          (Controller.default ~lanes) with
          Controller.dc_enabled = true;
          dc_shed_only = shed_only;
          dc_est_service = est;
          dc_window = window;
          dc_hysteresis = hyst;
        })
      (pair
         (pair
            (pair (int_range 1 4) (float_range 0.01 1.))
            (pair (float_range 0.01 5.) (float_range 0. 0.9)))
         (frequency [ (4, return false); (1, return true) ])))

let prop_class_table_matches_hashtbl =
  QCheck.Test.make
    ~name:"class table matches the Hashtbl controller, shared or fresh labels"
    ~count:300
    (QCheck.make
       ~print:(fun (_, ds) -> Printf.sprintf "%d decisions" (List.length ds))
       QCheck.Gen.(pair gen_ladder_cfg gen_decisions))
    (fun (cfg, ds) ->
      let t = Controller.create cfg and r = Ref_controller.create cfg in
      let now = ref 0. in
      let agree =
        List.for_all
          (fun ((c, how), dt, work) ->
            now := !now +. dt;
            let shared = shared_labels.(c) in
            (* 0, 1: the shared string; 2: a fresh equal copy; 3: a fresh
               copy of a label no shared string has. *)
            let cls =
              match how with
              | 0 | 1 -> shared
              | 2 -> Bytes.to_string (Bytes.of_string shared)
              | _ -> Printf.sprintf "late/%d" c
            in
            same_decision
              (Controller.decide t ~cls ~now:!now ~work)
              (Ref_controller.decide r ~cls ~now:!now ~work))
          ds
      in
      let labels =
        Array.to_list shared_labels
        @ List.init 12 (fun c -> Printf.sprintf "late/%d" c)
        @ [ "never seen" ]
      in
      agree
      && List.for_all
           (fun cls ->
             Controller.level t ~cls = Ref_controller.level r ~cls)
           labels
      && Controller.transitions t = r.Ref_controller.transitions
      && Controller.overload_sheds t = r.Ref_controller.overload_sheds
      && Int64.equal
           (Int64.bits_of_float (Controller.peak_pressure t))
           (Int64.bits_of_float r.Ref_controller.peak_pressure))

(* ------------------------------------------------------------------ *)
(* Breaker: closed -> open -> half-open -> closed, in virtual time.    *)

let test_breaker_lifecycle () =
  let b = Breaker.create { Breaker.bk_threshold = 3; bk_cooldown = 0.5 } in
  check Alcotest.bool "starts closed" true (Breaker.state b = Breaker.Closed);
  Breaker.record_failure b ~now:0.;
  Breaker.record_failure b ~now:0.1;
  check Alcotest.bool "below threshold: still admitting" true
    (Breaker.allow b ~now:0.1);
  (* A success resets the consecutive count — two more failures are not
     enough to trip. *)
  Breaker.record_success b;
  Breaker.record_failure b ~now:0.2;
  Breaker.record_failure b ~now:0.3;
  check Alcotest.bool "success reset the streak" true (Breaker.allow b ~now:0.3);
  Breaker.record_failure b ~now:0.4;
  check Alcotest.bool "third consecutive failure trips" true
    (match Breaker.state b with Breaker.Open _ -> true | _ -> false);
  check Alcotest.int "one open so far" 1 (Breaker.opens b);
  check Alcotest.bool "open rejects during cooldown" false
    (Breaker.allow b ~now:0.5);
  (* Cooldown expiry: the next caller is the half-open probe. *)
  check Alcotest.bool "cooldown expiry admits the probe" true
    (Breaker.allow b ~now:0.91);
  check Alcotest.bool "half-open" true (Breaker.state b = Breaker.Half_open);
  Breaker.record_success b;
  check Alcotest.bool "probe success closes" true
    (Breaker.state b = Breaker.Closed)

(* A NaN cooldown used to pass [create]; an opened breaker then never
   half-opened ([allow] at t = 1e9 was still [false]). *)
let test_breaker_nan_cooldown () =
  Alcotest.check_raises "cooldown = nan"
    (Invalid_argument "Breaker.create: cooldown must be > 0") (fun () ->
      ignore (Breaker.create { Breaker.bk_threshold = 3; bk_cooldown = nan }))

let test_breaker_halfopen_failure_reopens () =
  let b = Breaker.create { Breaker.bk_threshold = 1; bk_cooldown = 0.5 } in
  Breaker.record_failure b ~now:0.;
  check Alcotest.bool "tripped at one" false (Breaker.allow b ~now:0.1);
  ignore (Breaker.allow b ~now:0.6);
  check Alcotest.bool "probing" true (Breaker.state b = Breaker.Half_open);
  Breaker.record_failure b ~now:0.6;
  check Alcotest.bool "probe failure reopens" true
    (match Breaker.state b with Breaker.Open _ -> true | _ -> false);
  check Alcotest.int "reopen counted" 2 (Breaker.opens b);
  (* The fresh cooldown starts at the probe failure, not the original
     trip. *)
  check Alcotest.bool "fresh cooldown holds" false (Breaker.allow b ~now:1.0);
  check Alcotest.bool "fresh cooldown expires" true (Breaker.allow b ~now:1.11)

(* ------------------------------------------------------------------ *)
(* The ladder end to end: overloaded serving degrades deterministically
   and honestly, and never stops being a pure function of its seeds.   *)

let overload_wl =
  {
    Workload.default with
    Workload.wl_requests = 250;
    wl_rate = 400.;
    wl_seed = 3;
  }

let ladder_sv ~shed_only =
  {
    Server.default with
    Server.sv_lanes = 8;
    sv_quota_rate = 1e6;
    sv_quota_burst = 1000;
    sv_ladder =
      {
        (Controller.default ~lanes:8) with
        Controller.dc_enabled = true;
        dc_shed_only = shed_only;
      };
  }

let good (r : Server.result) =
  r.Server.served + r.Server.degraded + r.Server.recovered

let test_ladder_degrades_honestly () =
  let r = Server.run overload_wl (ladder_sv ~shed_only:false) in
  check Alcotest.int "every request answered" overload_wl.Workload.wl_requests
    (good r + r.Server.failed + r.Server.shed);
  check Alcotest.bool "overload actually degrades" true (r.Server.degraded > 0);
  check Alcotest.bool "overload actually sheds" true
    (r.Server.shed_overload > 0);
  check Alcotest.bool "the ladder actually moved" true
    (r.Server.ladder_transitions > 0);
  check Alcotest.bool "no violations under the ladder" true
    (r.Server.violations = []);
  Array.iter
    (fun (rs : Server.response) ->
      match rs.Server.rs_verdict with
      | Server.Served_degraded { level; _ } ->
          check Alcotest.bool "degraded levels are the ladder's rungs" true
            (level = 1 || level = 2)
      | Server.Rejected (Server.Overload { backlog }) ->
          check Alcotest.bool "overload refusals name the backlog" true
            (backlog > 0.)
      | _ -> ())
    r.Server.responses

let test_ladder_beats_shed_only () =
  let ladder = Server.run overload_wl (ladder_sv ~shed_only:false) in
  let baseline = Server.run overload_wl (ladder_sv ~shed_only:true) in
  check Alcotest.bool "baseline never degrades, only sheds" true
    (baseline.Server.degraded = 0);
  check Alcotest.bool "ladder goodput >= shed-only goodput" true
    (good ladder >= good baseline);
  check Alcotest.bool "no violations on either side" true
    (ladder.Server.violations = [] && baseline.Server.violations = [])

let test_ladder_run_is_deterministic () =
  let sv = { (ladder_sv ~shed_only:false) with Server.sv_jobs = 3 } in
  let d3 = Server.digest (Server.run overload_wl sv) in
  let d3' = Server.digest (Server.run overload_wl sv) in
  let d1 =
    Server.digest (Server.run overload_wl { sv with Server.sv_jobs = 1 })
  in
  check Alcotest.bool "replay is byte-identical" true (d3 = d3');
  check Alcotest.bool "jobs-1 = jobs-3 under the ladder" true (d1 = d3)

(* ------------------------------------------------------------------ *)
(* Supervised serving under the fault campaign.                        *)

let test_deadline_bounds_the_block () =
  (* An unreachable consensus (2 of 3 voters down) with a generous
     policy timeout: the request deadline must resolve the block long
     before the policy would. *)
  let policy =
    {
      Concurrent.default_policy with
      Concurrent.sync =
        Concurrent.Consensus
          { nodes = 3; crashed = [ 0; 1 ]; vote_delay = 0.0002;
            reply_timeout = 0.3 };
      sync_retries = 10;
      sync_backoff = 0.1;
      timeout = 1000.;
    }
  in
  let eng = Engine.create ~model:Cost_model.att_3b2 () in
  let report =
    (Invariants.run_block eng
       (List.hd Invariants.default_scenarios)
       (Invariants.Racing { exclusive = false; budget = 1.0 })
       ~policy ~seed:1)
      .Invariants.bl_report
  in
  (match report.Concurrent.outcome with
  | Alt_block.Block_failed _ -> ()
  | Alt_block.Selected _ -> Alcotest.fail "no quorum: the block cannot decide");
  check Alcotest.bool "resolved at the deadline, not the policy timeout" true
    (report.Concurrent.elapsed <= 1.0 +. 0.3 +. 1e-6)

let test_chaos_campaign_recovers_and_stays_deterministic () =
  let r, v = Chaosserve.chaos ~requests:240 ~rate:400. ~jobs:2 ~seed:7 () in
  check Alcotest.int "every request answered" 240
    (r.Server.served + r.Server.degraded + r.Server.recovered + r.Server.failed
    + r.Server.shed);
  check Alcotest.bool "the campaign recovered at least one coordinator" true
    (r.Server.recovered >= 1);
  check Alcotest.bool "the breakers actually tripped" true
    (r.Server.breaker_opens >= 1);
  check Alcotest.bool
    "0 violations, replay identical, jobs-1 = jobs-2 under chaos" true
    (Chaosserve.chaos_ok r v)

(* The counters block at seed 1, supervised on [sites]. *)
let supervised_counters eng sites ~policy =
  let b =
    Invariants.run_block eng
      (List.hd Invariants.default_scenarios)
      (Invariants.Supervised
         { sites; max_restarts = 2; budget = infinity; avoid_sites = (fun () -> []) })
      ~policy ~seed:1
  in
  Option.get b.Invariants.bl_supervised

let test_supervised_audit_catches_stale_epoch () =
  (* A clean supervised run, then a tampered copy claiming its answer
     came from a later epoch than its incarnations justify: the audit
     must call that out (a stale epoch answering through the fence is
     the supervised analogue of a double win). *)
  let eng = Engine.create ~model:Cost_model.att_3b2 () in
  let sites = Sites.create eng ~names:[ "s0"; "s1"; "s2" ] in
  let policy =
    {
      Concurrent.default_policy with
      Concurrent.sync =
        Concurrent.Consensus
          { nodes = 3; crashed = []; vote_delay = 0.0002; reply_timeout = 0.5 };
    }
  in
  let sr = supervised_counters eng sites ~policy in
  check Alcotest.int "clean supervised run passes the audit" 0
    (List.length
       (Invariants.check_supervised_report ~scenario:"counters" ~policy
          ~seed:1 sr));
  let tampered = { sr with Concurrent.sr_epoch = sr.Concurrent.sr_epoch + 1 } in
  check Alcotest.bool "stale-epoch bookkeeping is flagged" true
    (Invariants.check_supervised_report ~scenario:"counters" ~policy ~seed:1
       tampered
    <> [])

(* The audit's violations come in the order its checks are written: the
   inner report's first, then the recovery bookkeeping's; and a clean
   report is audited without allocating. *)
let test_supervised_audit_order_and_clean_cost () =
  let eng = Engine.create ~model:Cost_model.att_3b2 () in
  let sites = Sites.create eng ~names:[ "s0"; "s1"; "s2" ] in
  let policy =
    {
      Concurrent.default_policy with
      Concurrent.sync =
        Concurrent.Consensus
          { nodes = 3; crashed = []; vote_delay = 0.0002; reply_timeout = 0.5 };
    }
  in
  let sr = supervised_counters eng sites ~policy in
  let audit sr = Invariants.check_supervised_report ~scenario:"counters" ~policy ~seed:1 sr in
  let inner = sr.Concurrent.sr_report in
  let words =
    Alloc_words.of_run (fun () ->
        for _ = 1 to 100 do
          ignore (Invariants.check_report ~scenario:"counters" ~policy ~seed:1 inner);
          ignore (audit sr)
        done)
  in
  check (Alcotest.float 0.) "a clean audit allocates nothing" 0. words;
  let p = Pid.of_int 0 in
  let tampered =
    {
      sr with
      Concurrent.sr_report =
        { inner with Concurrent.spawned = inner.Concurrent.spawned + 1; wasted_cpu = -1. };
      sr_incarnations = 0;
      sr_recoveries = [ (p, p, 2); (p, p, 5) ];
    }
  in
  check
    Alcotest.(list string)
    "inner report first, then recovery checks, each in order"
    [
      "elimination: report claims 4 spawned alternatives but lists 3";
      "accounting: negative wasted_cpu -1.000000000";
      "elimination: supervised block launched no incarnation";
      "elimination: 0 incarnations but 2 recoveries";
      "at-most-once: report epoch 1 is not the last incarnation's (0): a stale \
       incarnation answered through the fence";
      "at-most-once: recovery 1 fenced to epoch 5, expected 3";
    ]
    (List.map
       (fun v -> Report.class_name v.Report.check ^ ": " ^ v.Report.detail)
       (audit tampered))

(* ------------------------------------------------------------------ *)
(* The degrade benchmark record.                                       *)

let test_degrade_record_and_schema () =
  let d =
    Chaosserve.degrade ~requests_per_step:100 ~rates:[ 200.; 600. ] ~seed:3 ()
  in
  check Alcotest.int "zero violations across both sides" 0 d.Chaosserve.dg_violations;
  check Alcotest.bool "ladder >= shed-only at every step" false
    d.Chaosserve.dg_regressed;
  List.iter
    (fun (s : Chaosserve.degrade_step) ->
      check Alcotest.bool "goodput normalised by the same horizon" true
        (s.Chaosserve.ds_horizon > 0.);
      check Alcotest.bool "the ladder's completion rate is reported" true
        (s.Chaosserve.ds_ladder_good_per_makespan > 0.))
    d.Chaosserve.dg_steps;
  (* Under the hottest load the lanes finish long after the last arrival,
     so the per-horizon figure overstates the rate answers complete at. *)
  let hottest = List.nth d.Chaosserve.dg_steps 1 in
  check Alcotest.bool "per-horizon > per-makespan at 600/s" true
    (hottest.Chaosserve.ds_ladder_good_per_horizon
    > hottest.Chaosserve.ds_ladder_good_per_makespan);
  match Chaosserve.degrade_validate (Chaosserve.degrade_to_json d) with
  | Ok n ->
      check Alcotest.int "all 7 schema fields present" 7 n
  | Error missing ->
      Alcotest.fail ("missing fields: " ^ String.concat ", " missing)

let () =
  Alcotest.run "degrade"
    [
      ( "controller",
        [
          Alcotest.test_case "config validation" `Quick
            test_controller_validations;
          Alcotest.test_case "disabled controller is a no-op" `Quick
            test_controller_disabled_is_noop;
          Alcotest.test_case "walks down one rung at a time" `Quick
            test_controller_walks_down_one_rung_at_a_time;
          Alcotest.test_case "hysteresis, then recovery" `Quick
            test_controller_hysteresis_recovers;
          Alcotest.test_case "sheds deposit nothing" `Quick
            test_controller_sheds_deposit_nothing;
          Alcotest.test_case "shed-only baseline is all-or-nothing" `Quick
            test_controller_shed_only_is_all_or_nothing;
          Alcotest.test_case "NaN est_service is rejected" `Quick
            test_controller_nan_est_service;
          Alcotest.test_case "NaN hysteresis is rejected" `Quick
            test_controller_nan_hysteresis;
          Alcotest.test_case "NaN window is rejected" `Quick
            test_controller_nan_window;
          QCheck_alcotest.to_alcotest prop_class_table_matches_hashtbl;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "closed/open/half-open lifecycle" `Quick
            test_breaker_lifecycle;
          Alcotest.test_case "half-open failure reopens" `Quick
            test_breaker_halfopen_failure_reopens;
          Alcotest.test_case "NaN cooldown is rejected" `Quick
            test_breaker_nan_cooldown;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "degrades honestly under overload" `Quick
            test_ladder_degrades_honestly;
          Alcotest.test_case "beats the shed-only baseline" `Quick
            test_ladder_beats_shed_only;
          Alcotest.test_case "stays deterministic" `Quick
            test_ladder_run_is_deterministic;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "deadline bounds the block" `Quick
            test_deadline_bounds_the_block;
          Alcotest.test_case "chaos campaign recovers, deterministically"
            `Quick test_chaos_campaign_recovers_and_stays_deterministic;
          Alcotest.test_case "audit catches stale-epoch answers" `Quick
            test_supervised_audit_catches_stale_epoch;
          Alcotest.test_case "audit order and clean cost" `Quick
            test_supervised_audit_order_and_clean_cost;
        ] );
      ( "benchmark",
        [
          Alcotest.test_case "degrade record and schema" `Quick
            test_degrade_record_and_schema;
        ] );
    ]
