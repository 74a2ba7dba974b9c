(* Per-site circuit breaker in virtual time.

   Classic three-state machine, deterministic because every input is a
   virtual-time observation: [bk_threshold] consecutive failures open
   the breaker for [bk_cooldown] virtual seconds; once the cooldown
   elapses the next placement query half-opens it (exactly one probe is
   let through); the probe's success closes it, another failure reopens
   it for a fresh cooldown. Placement routes coordinators around open
   breakers, so a site that keeps eating requests (crashed, partitioned,
   or just unlucky) stops being offered new ones until it proves itself
   again. *)

type state = Closed | Open of { until : float } | Half_open

type t = {
  threshold : int;
  cooldown : float;
  mutable state : state;
  mutable consecutive : int;
  mutable opens : int;  (* Closed/Half_open -> Open transitions *)
}

type config = { bk_threshold : int; bk_cooldown : float }

let default = { bk_threshold = 3; bk_cooldown = 0.5 }

let create (cfg : config) =
  if cfg.bk_threshold < 1 then
    invalid_arg "Breaker.create: threshold must be >= 1";
  (* Written so that a NaN cooldown fails it. *)
  if not (cfg.bk_cooldown > 0.) then
    invalid_arg "Breaker.create: cooldown must be > 0";
  {
    threshold = cfg.bk_threshold;
    cooldown = cfg.bk_cooldown;
    state = Closed;
    consecutive = 0;
    opens = 0;
  }

(* Placement query. An open breaker whose cooldown has elapsed
   transitions to Half_open *and admits this caller as the probe* —
   the decision and the transition are one atomic step, so two requests
   arriving at the same virtual instant cannot both be "the" probe. *)
let allow t ~now =
  match t.state with
  | Closed | Half_open -> true
  | Open { until } ->
      if now >= until then begin
        t.state <- Half_open;
        true
      end
      else false

let record_success t =
  t.consecutive <- 0;
  t.state <- Closed

let record_failure t ~now =
  match t.state with
  | Half_open ->
      (* The probe failed: straight back to Open, fresh cooldown. *)
      t.opens <- t.opens + 1;
      t.consecutive <- t.consecutive + 1;
      t.state <- Open { until = now +. t.cooldown }
  | Open _ ->
      (* A failure attributed to a site whose breaker opened while the
         request was in flight: already open, just count it. *)
      t.consecutive <- t.consecutive + 1
  | Closed ->
      t.consecutive <- t.consecutive + 1;
      if t.consecutive >= t.threshold then begin
        t.opens <- t.opens + 1;
        t.state <- Open { until = now +. t.cooldown }
      end

let state t = t.state
let opens t = t.opens
