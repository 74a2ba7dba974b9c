(* The deterministic degradation ladder.

   An admission controller driven purely by virtual-time signals. The
   load meter is a leaky bucket of *estimated* work: each admitted
   request deposits [dc_est_service * rq_work] estimated work-seconds,
   and the bucket drains at the lane capacity ([dc_lanes] work-seconds
   per virtual second). The backlog-per-lane that remains is exactly
   the queueing delay a new arrival should expect if the estimate is
   right — a plan-time stand-in for lane occupancy and queue depth,
   computable before any batch executes (actual service times are not
   known at admission time, and using them would make admission depend
   on execution order, breaking the jobs-1 = jobs-N contract).

   The second signal is the recent shed rate: exponentially decayed
   (window [dc_window]) counts of arrivals and sheds. A stream that is
   already shedding is pushed down the ladder faster,
   [pressure = backlog_per_lane * (1 + shed_fraction)].

   Each request class (scenario, policy) walks its own ladder rung
   under the shared meter, one rung per decision, with hysteresis: a
   class steps *down* (cheaper service) when pressure reaches its
   current rung's threshold, and steps back *up* only when pressure has
   fallen below the previous rung's threshold times
   [1 - dc_hysteresis] — so the ladder does not flap when pressure
   hovers at a boundary.

   Rungs (the tentpole's ladder):
     0  full service — the policy the request asked for
        (majority consensus for consensus policies);
     1  consensus elision — scenarios proven exclusive
        ([Invariants.scenario.sc_exclusive]) keep their at-most-once
        guarantee through `?exclusive` (local latch, zero sync
        messages); other classes downgrade sync to the local latch;
     2  sequential fallback — first-fit `Alt_block.run_first`, no
        speculation at all;
     3  shed — an honest `Rejected {Overload}`, no tokens consumed,
        no work metered.

   [dc_shed_only] is the baseline the degrade benchmark compares
   against: the same meter, thresholds and hysteresis, but every rung
   below full service sheds instead of degrading. *)

type config = {
  dc_enabled : bool;
  dc_shed_only : bool;
  dc_est_service : float;
  dc_lanes : int;
  dc_latch_at : float;
  dc_seq_at : float;
  dc_shed_at : float;
  dc_hysteresis : float;
  dc_window : float;
}

let default ~lanes =
  {
    dc_enabled = false;
    dc_shed_only = false;
    dc_est_service = 0.2;
    dc_lanes = max 1 lanes;
    dc_latch_at = 0.4;
    dc_seq_at = 1.2;
    dc_shed_at = 3.0;
    dc_hysteresis = 0.25;
    dc_window = 0.5;
  }

type decision = Admit of { level : int } | Shed of { backlog : float }

(* The meter's floats, in an all-float record: OCaml stores it flat, so
   updating a field stores a double instead of boxing a fresh one. *)
type meter = {
  mutable outstanding : float;  (* estimated work-seconds not yet drained *)
  mutable last : float;  (* virtual time of the last decision *)
  mutable dec_arrivals : float;  (* decayed arrival count *)
  mutable dec_sheds : float;  (* decayed overload-shed count *)
  mutable peak_pressure : float;
}

type t = {
  cfg : config;
  m : meter;
  (* The class table: [labels.(i)]'s current rung is [rungs.(i)], for
     the [n_classes] classes seen so far, in order of first sight. *)
  mutable labels : string array;
  mutable rungs : int array;
  mutable n_classes : int;
  mutable transitions : int;
  mutable overload_sheds : int;
}

(* Every float check is written so that NaN fails it. *)
let create cfg =
  if cfg.dc_lanes < 1 then invalid_arg "Controller.create: lanes must be >= 1";
  if not (cfg.dc_est_service > 0.) then
    invalid_arg "Controller.create: est_service must be > 0";
  if not (cfg.dc_latch_at < cfg.dc_seq_at && cfg.dc_seq_at < cfg.dc_shed_at)
  then invalid_arg "Controller.create: thresholds must increase up the ladder";
  if not (cfg.dc_hysteresis >= 0. && cfg.dc_hysteresis < 1.) then
    invalid_arg "Controller.create: hysteresis must be in [0, 1)";
  if not (cfg.dc_window > 0.) then
    invalid_arg "Controller.create: window must be > 0";
  {
    cfg;
    m =
      {
        outstanding = 0.;
        last = 0.;
        dec_arrivals = 0.;
        dec_sheds = 0.;
        peak_pressure = 0.;
      };
    labels = [||];
    rungs = [||];
    n_classes = 0;
    transitions = 0;
    overload_sheds = 0;
  }

let threshold cfg = function
  | 0 -> cfg.dc_latch_at
  | 1 -> cfg.dc_seq_at
  | _ -> cfg.dc_shed_at

(* Advance the meter to [now]: drain the leaky bucket at lane capacity
   and decay the rate counters. Monotone [now] is the arrival stream's
   own guarantee. *)
let advance t ~now =
  let m = t.m in
  let dt = now -. m.last in
  if dt > 0. then begin
    m.outstanding <-
      Float.max 0. (m.outstanding -. (dt *. float_of_int t.cfg.dc_lanes));
    let decay = Float.exp (-.dt /. t.cfg.dc_window) in
    m.dec_arrivals <- m.dec_arrivals *. decay;
    m.dec_sheds <- m.dec_sheds *. decay;
    m.last <- now
  end

(* A class's slot in the table, or -1. Callers that build each label
   once (the server does) hit on the physical pass; an equal string
   built per arrival still resolves on the second. Top-level walks, so
   a lookup allocates nothing. *)
let rec find_same labels cls i n =
  if i = n then -1
  else if Array.unsafe_get labels i == cls then i
  else find_same labels cls (i + 1) n

let rec find_equal labels cls i n =
  if i = n then -1
  else if String.equal (Array.unsafe_get labels i) cls then i
  else find_equal labels cls (i + 1) n

let find t cls =
  let i = find_same t.labels cls 0 t.n_classes in
  if i >= 0 then i else find_equal t.labels cls 0 t.n_classes

(* The slot of [cls], appended at rung 0 on first sight. *)
let slot t cls =
  let i = find t cls in
  if i >= 0 then i
  else begin
    let n = t.n_classes in
    if n = Array.length t.labels then begin
      let cap = max 16 (2 * n) in
      let labels = Array.make cap "" and rungs = Array.make cap 0 in
      Array.blit t.labels 0 labels 0 n;
      Array.blit t.rungs 0 rungs 0 n;
      t.labels <- labels;
      t.rungs <- rungs
    end;
    t.labels.(n) <- cls;
    t.n_classes <- n + 1;
    n
  end

(* Shared answers for the admitted rungs, so an admission allocates no
   decision. *)
let admits = [| Admit { level = 0 }; Admit { level = 1 }; Admit { level = 2 } |]

let decide t ~cls ~now ~work =
  if not t.cfg.dc_enabled then Admit { level = 0 }
  else begin
    advance t ~now;
    let m = t.m in
    let lanes = float_of_int t.cfg.dc_lanes in
    let backlog = m.outstanding /. lanes in
    let shed_frac =
      if m.dec_arrivals <= 0. then 0. else m.dec_sheds /. m.dec_arrivals
    in
    let p = backlog *. (1. +. shed_frac) in
    if p > m.peak_pressure then m.peak_pressure <- p;
    let i = slot t cls in
    let current = t.rungs.(i) in
    let next =
      if current < 3 && p >= threshold t.cfg current then current + 1
      else if
        current > 0
        && p <= threshold t.cfg (current - 1) *. (1. -. t.cfg.dc_hysteresis)
      then current - 1
      else current
    in
    if next <> current then begin
      t.rungs.(i) <- next;
      t.transitions <- t.transitions + 1
    end;
    let effective =
      if t.cfg.dc_shed_only && next > 0 then 3 else next
    in
    m.dec_arrivals <- m.dec_arrivals +. 1.;
    if effective >= 3 then begin
      (* Sheds deposit nothing: refused work never occupies a lane. *)
      m.dec_sheds <- m.dec_sheds +. 1.;
      t.overload_sheds <- t.overload_sheds + 1;
      Shed { backlog = m.outstanding /. lanes }
    end
    else begin
      m.outstanding <- m.outstanding +. (t.cfg.dc_est_service *. work);
      admits.(effective)
    end
  end

let level t ~cls =
  let i = find t cls in
  if i >= 0 then t.rungs.(i) else 0

let transitions t = t.transitions
let overload_sheds t = t.overload_sheds
let peak_pressure t = t.m.peak_pressure
