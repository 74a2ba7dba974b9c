(* Host-time and allocation measurement of Server.run, and the per-layer
   breakdown from the shadow pipeline. *)

(* The first thing this program does: set-up time counts from here. *)
let started = Span.now ()
let seconds_since t = float_of_int (Span.now () - t) /. 1e9
let hex = Printf.sprintf "%016Lx"
let cores () = Parallel.default_jobs ()

(* A rep count no run reaches: warm-up seed of a time-bounded run. *)
let max_reps = 1000

(* ------------------------------------------------------------------ *)
(* Order statistics. *)

let quartiles xs = (Stats.percentile xs ~p:25., Stats.percentile xs ~p:75.)

(* ------------------------------------------------------------------ *)
(* The reference kernel.

   On a shared host the machine's own speed drifts by tens of percent
   over tens of seconds (neighbours' load), which no number of reps in
   one run averages away. A fixed computation timed right after every
   timed rep drifts with it, so the rep's time divided by the kernel's
   is far steadier than either (on a 2-core shared VM, the run-to-run
   spread of serve-steady fell from ~10% to ~3%). The kernel is
   benchmark code — hashing, sorting, and allocation that the major GC
   must promote and collect, like the serving path; a kernel that only
   touched the minor heap tracked the jobs-2 workload far worse — so a
   change under test cannot move it. Its tens of MB would swamp the
   heap peak, which is therefore read before the first kernel runs. *)

let reference_kernel () =
  let t0 = Span.now () in
  let h = Hashtbl.create 1024 in
  for k = 0 to 200_000 do
    Hashtbl.replace h ((k * 7919) land 0xfffff) (string_of_int k)
  done;
  let a = Array.init 300_000 (fun k -> (k * 2654435761) land 0xffffff) in
  Array.sort compare a;
  let l = List.init 200_000 (fun k -> (k, float_of_int k)) in
  let sums = List.rev_map (fun (k, f) -> f +. float_of_int k) l in
  ignore (Sys.opaque_identity (Hashtbl.length h + a.(0) + List.length sums));
  seconds_since t0

(* ------------------------------------------------------------------ *)
(* One untraced rep. *)

type rep = {
  secs : float;
  alloc_words : float;  (** minor + major - promoted. *)
  major_words : float;
  digest : int64;
  requests : int;
  ops_failed : int;
  ops_rejected : int;
  violations : int;
}

let measure_run wl sv =
  Gc.minor ();
  let g0 = Gc.quick_stat () in
  let t0 = Span.now () in
  let r = Server.run wl sv in
  let secs = seconds_since t0 in
  Gc.minor ();
  let g1 = Gc.quick_stat () in
  let d f = f g1 -. f g0 in
  ( {
      secs;
      alloc_words =
        d (fun g -> g.Gc.minor_words)
        +. d (fun g -> g.Gc.major_words)
        -. d (fun g -> g.Gc.promoted_words);
      major_words = d (fun g -> g.Gc.major_words);
      digest = Server.digest r;
      requests = Array.length r.Server.responses;
      ops_failed = r.Server.failed;
      ops_rejected = r.Server.shed;
      violations = List.length r.Server.violations;
    },
    r )

(* ------------------------------------------------------------------ *)
(* Workload configuration for one run of the profile. *)

type setting = {
  w : Workloads.t;
  seed : int;
  requests : int;  (** Per rep. *)
  jobs : int;  (** The workload's job count, capped at the core count. *)
}

let setting ?requests ~seed (w : Workloads.t) =
  {
    w;
    seed;
    requests = Option.value requests ~default:w.Workloads.wl.Workload.wl_requests;
    jobs = min w.Workloads.sv.Server.sv_jobs (cores ());
  }

let full_size (s : setting) = s.requests = s.w.Workloads.wl.Workload.wl_requests

let configs ?jobs s ~seed =
  ( {
      s.w.Workloads.wl with
      Workload.wl_seed = seed;
      wl_requests = s.requests;
    },
    { s.w.Workloads.sv with Server.sv_jobs = Option.value jobs ~default:s.jobs } )

let run_at ?jobs s ~seed =
  let wl, sv = configs ?jobs s ~seed in
  measure_run wl sv

(* The other job count (1 <-> 2) for the determinism cross-check, if
   this machine has the cores for it. *)
let other_jobs s =
  let j = if s.jobs = 1 then 2 else 1 in
  if j > cores () then None else Some j

(* ------------------------------------------------------------------ *)
(* Untraced measurement: the end-to-end metrics. *)

type reps = Fixed of int | Seconds of float

type measured = {
  s : setting;
  warmup_seed : int;
  setup_s : float;
  reps : rep array;
  ref_secs : float array;  (** The reference kernel after each timed rep. *)
  heap_peak_mb : float;
  simulated : Servebench.metrics;  (** Rep 0's virtual-time figures. *)
  checks : (string * string) list;
  failures : string list;
}

let cross_check s ~seed ~digest =
  match other_jobs s with
  | None -> (Printf.sprintf "skipped (%d core)" (cores ()), [])
  | Some j ->
      let r, _ = run_at s ~jobs:j ~seed in
      if r.digest = digest then (Printf.sprintf "ok (jobs %d = jobs %d)" s.jobs j, [])
      else
        ( "mismatch",
          [
            Printf.sprintf "%s: rep 0 digest %s at jobs %d, %s at jobs %d"
              s.w.Workloads.name (hex digest) s.jobs (hex r.digest) j;
          ] )

let pin_check what ~expected ~got =
  if expected = got then ("ok " ^ hex got, [])
  else
    ( "mismatch",
      [
        Printf.sprintf
          "%s: expected %s, got %s (re-pin in bench/profile/workloads.ml \
           only if the change in behaviour is intended)"
          what (hex expected) (hex got);
      ] )

(* The untimed warm-up rep serves a seed no timed rep uses, so nothing
   kept across Server.run calls can replay a timed rep's stream. *)
let warmup_seed s reps =
  s.seed + match reps with Fixed n -> n | Seconds _ -> max_reps

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* The set-up sample: seconds from program start to the end of the
   warm-up rep, and the heap peak by then — the heap a fresh process
   needs to serve the workload once, before any reference kernel ran. *)
let warm_up s reps =
  ignore (run_at s ~seed:(warmup_seed s reps));
  (seconds_since started, heap_mb ())

(* Each kernel starts from, and leaves behind, a collected heap: its
   garbage never lands in a timed rep. *)
let reference_sample () =
  Gc.full_major ();
  let t = reference_kernel () in
  Gc.full_major ();
  t

let another_rep reps ~since i =
  match reps with
  | Fixed n -> i < n
  | Seconds t -> i < 3 || (i < max_reps && seconds_since since < t)

let measure ?(log = ignore) s reps =
  let setup_s, heap_peak_mb = warm_up s reps in
  log (Printf.sprintf "%s: set up in %.2f s" s.w.Workloads.name setup_s);
  let t0 = Span.now () in
  let simulated = ref None in
  let rec loop i acc =
    if not (another_rep reps ~since:t0 i) then List.rev acc
    else begin
      let rep, r = run_at s ~seed:(s.seed + i) in
      if i = 0 then
        simulated := Some (Servebench.metrics_of (snd (configs s ~seed:s.seed)) r);
      let ref_secs = reference_sample () in
      loop (i + 1) ((rep, ref_secs) :: acc)
    end
  in
  let timed = loop 0 [] in
  let reps_a = Array.of_list (List.map fst timed) in
  let rep0 = reps_a.(0) in
  let violations =
    Array.fold_left (fun n (r : rep) -> n + r.violations) 0 reps_a
  in
  let viol_check =
    if violations = 0 then []
    else [ Printf.sprintf "%s: %d violations" s.w.Workloads.name violations ]
  in
  let cross, cross_fail = cross_check s ~seed:s.seed ~digest:rep0.digest in
  let fold = Workloads.fold (Array.to_list (Array.map (fun r -> r.digest) reps_a)) in
  let pins =
    if not (full_size s) then [ ("pin", "skipped (not full size)", []) ]
    else begin
      let got1 =
        if s.seed = 1 then rep0.digest else (fst (run_at s ~seed:1)).digest
      in
      let p1, f1 =
        pin_check (s.w.Workloads.name ^ " seed-1 digest")
          ~expected:s.w.Workloads.pin_seed1 ~got:got1
      in
      let fold_check =
        match reps with
        | Fixed n when s.seed = 1 && n = s.w.Workloads.reps ->
            let p, f =
              pin_check (s.w.Workloads.name ^ " rep fold")
                ~expected:s.w.Workloads.pin_fold ~got:fold
            in
            [ ("pin_fold", p, f) ]
        | _ -> [ ("pin_fold", "skipped (not seed 1 with the default reps)", []) ]
      in
      ("pin_seed1", p1, f1) :: fold_check
    end
  in
  {
    s;
    warmup_seed = warmup_seed s reps;
    setup_s;
    reps = reps_a;
    ref_secs = Array.of_list (List.map snd timed);
    heap_peak_mb;
    simulated = Option.get !simulated;
    checks =
      [
        ("violations", string_of_int violations);
        ("digest_rep0", hex rep0.digest);
        ("digest_fold", hex fold);
        ("jobs_cross", cross);
      ]
      @ List.map (fun (k, v, _) -> (k, v)) pins;
    failures = viol_check @ cross_fail @ List.concat_map (fun (_, _, f) -> f) pins;
  }

(* The end-to-end metrics: every sample, one per rep for the timings and
   allocations, one per run for the heap peak and set-up time.
   host_req_per_ref is requests per reference-kernel time: the rep's
   throughput with the machine's drift divided out. *)
let end_to_end m =
  let per f = Array.map f m.reps in
  let req (r : rep) = float_of_int r.requests in
  [
    ("host_req_per_s", "1/s", per (fun r -> req r /. r.secs));
    ( "host_req_per_ref",
      "req/ref",
      Array.mapi (fun i r -> req r *. m.ref_secs.(i) /. r.secs) m.reps );
    ("alloc_words_per_req", "words", per (fun r -> r.alloc_words /. req r));
    ("major_words_per_req", "words", per (fun r -> r.major_words /. req r));
    ("heap_peak_mb", "MB", [| m.heap_peak_mb |]);
    ("setup_s", "s", [| m.setup_s |]);
  ]

let counts m =
  let sum f = Array.fold_left (fun n r -> n + f r) 0 m.reps in
  [
    ("ops", sum (fun r -> r.requests));
    ("ops_failed", sum (fun r -> r.ops_failed));
    ("ops_rejected", sum (fun r -> r.ops_rejected));
    ("violations", sum (fun r -> r.violations));
  ]

let simulated_fields (sm : Servebench.metrics) =
  [
    ("virt_latency_p50_s", sm.Servebench.m_p50);
    ("virt_latency_p99_s", sm.Servebench.m_p99);
    ("virt_latency_p999_s", sm.Servebench.m_p999);
    ("virt_goodput_per_s", sm.Servebench.m_goodput);
    ("shed_rate", sm.Servebench.m_shed_rate);
  ]

(* ------------------------------------------------------------------ *)
(* Traced measurement: the per-layer metrics. *)

type traced_rep = {
  layers : (string * string * float) list;  (** name, unit, value *)
  untraced_s : float;
  traced_s : float;
  real_digest : int64;
  shadow_digest : int64;
  real_violations : int;
}

let layer_metrics s ~(ad : Shadow.admission) ~(c : Shadow.counters)
    ~breaker_opens ~gc_minor ~gc_major spans =
  let tbl = Hashtbl.create 16 in
  let get l =
    Option.value (Hashtbl.find_opt tbl l) ~default:(0, 0, 0)
  in
  Array.iter
    (fun (sp : Span.span) ->
      let n, busy, self = get sp.Span.layer in
      Hashtbl.replace tbl sp.Span.layer
        (n + 1, busy + sp.Span.end_ns - sp.Span.start_ns, self + sp.Span.self_ns))
    spans;
  let calls l = let n, _, _ = get l in float_of_int n in
  let ms l = let _, b, _ = get l in float_of_int b /. 1e6 in
  let self_ms l = let _, _, x = get l in float_of_int x /. 1e6 in
  let ratio a b = if b = 0. then 0. else a /. b in
  let fi = float_of_int in
  let block_us =
    Array.of_list
      (Array.fold_right
         (fun (sp : Span.span) acc ->
           if sp.Span.layer = Span.Concurrent then
             (fi (sp.Span.end_ns - sp.Span.start_ns) /. 1e3) :: acc
           else acc)
         spans [])
  in
  let pct p = if block_us = [||] then 0. else Stats.percentile block_us ~p in
  let domain_busy = Hashtbl.create 4 in
  Array.iter
    (fun (sp : Span.span) ->
      if sp.Span.layer = Span.Batch then
        Hashtbl.replace domain_busy sp.Span.domain
          (Option.value (Hashtbl.find_opt domain_busy sp.Span.domain) ~default:0.
          +. fi (sp.Span.end_ns - sp.Span.start_ns)))
    spans;
  let parallel_busy = ms Span.Batch and parallel_wall = ms Span.Parallel in
  let max_busy = Hashtbl.fold (fun _ b acc -> Float.max b acc) domain_busy 0. in
  (* Mean over the domains the pool offered, so an idle one counts. *)
  let mean_busy = parallel_busy *. 1e6 /. fi s.jobs in
  [
    ("workload.busy_ms", "ms", ms Span.Workload);
    ("workload.ns_per_req", "ns", ratio (ms Span.Workload *. 1e6) (fi ad.Shadow.requests));
    ("quota.calls", "count", calls Span.Quota);
    ("quota.busy_ms", "ms", ms Span.Quota);
    ("quota.rejected", "count", fi ad.Shadow.quota_rejected);
    ("controller.calls", "count", calls Span.Controller);
    ("controller.busy_ms", "ms", ms Span.Controller);
    ("controller.shed", "count", fi ad.Shadow.controller_shed);
    ("controller.transitions", "count", fi ad.Shadow.transitions);
    ("server.plan.self_ms", "ms", self_ms Span.Plan);
    ("server.plan.batches", "count", fi ad.Shadow.batches);
    ("server.plan.mean_batch", "req", ratio (fi ad.Shadow.admitted) (fi ad.Shadow.batches));
    ("engine.create.calls", "count", calls Span.Engine_create);
    ("engine.create.busy_ms", "ms", ms Span.Engine_create);
    ("scenario.prepare.busy_ms", "ms", ms Span.Prepare);
    ("concurrent.calls", "count", calls Span.Concurrent);
    ("concurrent.busy_ms", "ms", ms Span.Concurrent);
    ("concurrent.us_p50", "us", pct 50.);
    ("concurrent.us_p99", "us", pct 99.);
    ("concurrent.us_p999", "us", pct 99.9);
    ("concurrent.events", "count", fi c.Shadow.events);
    ("concurrent.ns_per_event", "ns", ratio (ms Span.Concurrent *. 1e6) (fi c.Shadow.events));
    ("concurrent.mailbox_scanned", "count", fi c.Shadow.mailbox_scanned);
    ("concurrent.spawned", "count", fi c.Shadow.spawned);
    ("concurrent.sync_messages", "count", fi c.Shadow.sync_messages);
    ("concurrent.cow_copies", "count", fi c.Shadow.cow_copies);
    ("concurrent.frame_allocs", "count", fi c.Shadow.frame_allocs);
    ("concurrent.minor_words_per_block", "words", ratio c.Shadow.minor_words (fi c.Shadow.blocks));
    ("concurrent.win_ratio", "ratio", ratio (fi c.Shadow.selected) (fi c.Shadow.attempted));
    ("alt_block.seq.calls", "count", calls Span.Sequential);
    ("alt_block.seq.busy_ms", "ms", ms Span.Sequential);
    ("concurrent.supervised.calls", "count", calls Span.Supervised);
    ("concurrent.supervised.busy_ms", "ms", ms Span.Supervised);
    ("concurrent.supervised.restarts", "count", fi c.Shadow.restarts);
    ("sites.busy_ms", "ms", ms Span.Sites);
    ("breaker.calls", "count", fi c.Shadow.breaker_calls);
    ("breaker.opens", "count", fi breaker_opens);
    ("sanitizer.busy_ms", "ms", ms Span.Sanitizer);
    ("sanitizer.flags", "count", fi c.Shadow.sanitizer_flags);
    ("invariants.calls", "count", calls Span.Invariants);
    ("invariants.busy_ms", "ms", ms Span.Invariants);
    ("invariants.violations", "count", fi c.Shadow.audit_violations);
    ("parallel.busy_ms", "ms", parallel_busy);
    ("parallel.wall_ms", "ms", parallel_wall);
    ("parallel.utilisation", "ratio", ratio parallel_busy (parallel_wall *. fi s.jobs));
    ("parallel.imbalance", "ratio", ratio max_busy mean_busy);
    ("server.timeline.busy_ms", "ms", ms Span.Timeline);
    ("server.digest.busy_ms", "ms", ms Span.Digest);
    ("gc.minor_collections", "count", fi gc_minor);
    ("gc.major_collections", "count", fi gc_major);
  ]

let trace_rep s ~seed =
  let real, _ = run_at s ~seed in
  let wl, sv = configs s ~seed in
  Span.reset ();
  Gc.minor ();
  let g0 = Gc.quick_stat () in
  let t0 = Span.now () in
  let result, ad, c = Shadow.run wl sv in
  let traced_s = seconds_since t0 in
  let g1 = Gc.quick_stat () in
  let shadow_digest =
    Span.wrap Span.Digest ~rid:(-1) (fun () -> Server.digest result)
  in
  let spans = Span.spans () in
  let layers =
    layer_metrics s ~ad ~c ~breaker_opens:result.Server.breaker_opens
      ~gc_minor:(g1.Gc.minor_collections - g0.Gc.minor_collections)
      ~gc_major:(g1.Gc.major_collections - g0.Gc.major_collections)
      spans
  in
  ( {
      layers;
      untraced_s = real.secs;
      traced_s;
      real_digest = real.digest;
      shadow_digest;
      real_violations = real.violations;
    },
    spans,
    t0 )

type traced = {
  ts : setting;
  pairs : traced_rep array;
  layer_medians : (string * string * float) list;
      (** Median over the pairs, plus [trace.overhead_pct]. *)
  last_spans : Span.span array;
  last_base_ns : int;
  last_seed : int;
  trace_failures : string list;
}

(* The digest guard: a traced rep counts only if the shadow pipeline
   answered every request exactly as Server.run did. *)
let digest_guard ~what ~real ~shadow =
  if shadow = real then []
  else
    [
      Printf.sprintf
        "%s: shadow digest %s differs from Server.run's %s — \
         bench/profile/shadow.ml no longer mirrors lib/serve/server.ml"
        what (hex shadow) (hex real);
    ]

let guard s (p : traced_rep) ~seed =
  let what = Printf.sprintf "%s seed %d" s.w.Workloads.name seed in
  digest_guard ~what ~real:p.real_digest ~shadow:p.shadow_digest
  @
  if p.real_violations = 0 then []
  else [ Printf.sprintf "%s: %d violations" what p.real_violations ]

let trace ?(log = ignore) s reps =
  ignore (warm_up s reps : float * float);
  let t0 = Span.now () in
  let rec loop i acc =
    if not (another_rep reps ~since:t0 i) then List.rev acc
    else begin
      let seed = s.seed + i in
      let p, spans, base = trace_rep s ~seed in
      log
        (Printf.sprintf "%s seed %d: untraced %.3f s, traced %.3f s, %d spans"
           s.w.Workloads.name seed p.untraced_s p.traced_s (Array.length spans));
      loop (i + 1) ((p, spans, base, seed) :: acc)
    end
  in
  let runs = loop 0 [] in
  let pairs = Array.of_list (List.map (fun (p, _, _, _) -> p) runs) in
  let _, last_spans, last_base_ns, last_seed = List.nth runs (List.length runs - 1) in
  let medians =
    List.mapi
      (fun k (name, unit, _) ->
        let xs =
          Array.map
            (fun p ->
              let _, _, v = List.nth p.layers k in
              v)
            pairs
        in
        (name, unit, Stats.median xs))
      pairs.(0).layers
  in
  let overhead =
    100.
    *. (Stats.median (Array.map (fun p -> p.traced_s) pairs)
        /. Stats.median (Array.map (fun p -> p.untraced_s) pairs)
       -. 1.)
  in
  {
    ts = s;
    pairs;
    layer_medians = medians @ [ ("trace.overhead_pct", "%", overhead) ];
    last_spans;
    last_base_ns;
    last_seed;
    trace_failures =
      List.concat
        (List.mapi (fun i p -> guard s p ~seed:(s.seed + i)) (Array.to_list pairs));
  }

(* ------------------------------------------------------------------ *)
(* JSON renderings. *)

let env ~commit ~seed =
  Json.Obj
    [
      ("cores", Json.int (cores ()));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("commit", Json.Str commit);
      ("seed", Json.int seed);
    ]

let config_json s ~reps =
  let sv = s.w.Workloads.sv in
  Json.Obj
    [
      ("requests", Json.int s.requests);
      ("rate", Json.Num s.w.Workloads.wl.Workload.wl_rate);
      ("jobs", Json.int s.jobs);
      ("reps", Json.int reps);
      ("sanitize", Json.Bool sv.Server.sv_sanitize);
      ("ladder", Json.Bool sv.Server.sv_ladder.Controller.dc_enabled);
      ( "faults",
        match sv.Server.sv_faults with Some f -> Json.int f | None -> Json.Null );
    ]

let summary xs =
  let q1, q3 = quartiles xs in
  [
    ("median", Json.Num (Stats.median xs));
    ("q1", Json.Num q1);
    ("q3", Json.Num q3);
    ("samples", Json.int (Array.length xs));
  ]

let measured_json m =
  Json.Obj
    [
      ("name", Json.Str m.s.w.Workloads.name);
      ("seed", Json.int m.s.seed);
      ("warmup_seed", Json.int m.warmup_seed);
      ("config", config_json m.s ~reps:(Array.length m.reps));
      ("checks", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) m.checks));
      ("correct", Json.Bool (m.failures = []));
      ("failures", Json.Arr (List.map (fun f -> Json.Str f) m.failures));
      ("counts", Json.Obj (List.map (fun (k, v) -> (k, Json.int v)) (counts m)));
      ( "host",
        Json.Obj
          (List.map
             (fun (name, unit, xs) ->
               (name, Json.Obj (("unit", Json.Str unit) :: summary xs)))
             (end_to_end m)) );
      ( "simulated",
        Json.Obj
          (List.map (fun (k, v) -> (k, Json.Num v)) (simulated_fields m.simulated)) );
    ]

let traced_json t =
  let p0 = t.pairs.(0) in
  Json.Obj
    [
      ("name", Json.Str t.ts.w.Workloads.name);
      ("seed", Json.int t.ts.seed);
      ("config", config_json t.ts ~reps:(Array.length t.pairs));
      ( "checks",
        Json.Obj
          [
            ("real_digest_rep0", Json.Str (hex p0.real_digest));
            ("shadow_digest_rep0", Json.Str (hex p0.shadow_digest));
            ( "shadow_matches",
              Json.Bool
                (Array.for_all (fun p -> p.shadow_digest = p.real_digest) t.pairs) );
          ] );
      ("correct", Json.Bool (t.trace_failures = []));
      ("failures", Json.Arr (List.map (fun f -> Json.Str f) t.trace_failures));
      ("spans", Json.int (Array.length t.last_spans));
      ( "layers",
        Json.Obj
          (List.map
             (fun (name, unit, v) ->
               (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ]))
             t.layer_medians) );
    ]

(* The one-line result of [altprof bench]: its last line of output. *)
let result_line ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.int attempted);
         ("failed", Json.int failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun (name, unit, v) ->
                  (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ]))
                metrics) );
       ])

(* ------------------------------------------------------------------ *)
(* altprof compare. *)

type verdict = Better | Worse | Unchanged | Unresolved

let verdict_name = function
  | Better -> "better"
  | Worse -> "worse"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

(* [base] and [new_] are (median, q1, q3, samples). The change is
   oriented so that positive is an improvement. Unresolved when either
   side's quartile spread is wider than the bound; worse when it loses
   more than the bound; better when it gains more than the base's own
   spread — or, for a single sample, whose spread is unknown, more than
   the bound. *)
let verdict ~higher ~bound (bm, bq1, bq3, bn) (nm, nq1, nq3, nn) =
  let spread m q1 q3 = if m = 0. then 0. else (q3 -. q1) /. Float.abs m in
  let base_spread =
    if bn < 2 || nn < 2 then bound else spread bm bq1 bq3
  in
  let change = if bm = 0. then 0. else (nm -. bm) /. Float.abs bm in
  let gain = if higher then change else -.change in
  if Float.max (spread bm bq1 bq3) (spread nm nq1 nq3) > bound then Unresolved
  else if gain < -.bound then Worse
  else if gain > base_spread then Better
  else Unchanged
