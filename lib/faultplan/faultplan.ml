type msg_action = Drop | Duplicate | Delay of float | Reorder of float

type msg_rule = {
  action : msg_action;
  p : float;
  tag : string option;
  sender : string option;
  dest : string option;
  window : float * float;
}

type proc_fault = Kill | Crash of float (* revive delay; infinity = never *)

type proc_rule = { fault : proc_fault; target : string; nth : int; after : float }

type site_rule =
  | Crash_site of { site : string; at : float; jitter : float }
  | Partition_sites of {
      left : string list;
      right : string list;
      at : float;
      jitter : float;
      heal_after : float option;
    }

type rule = Message of msg_rule | Process of proc_rule | Site of site_rule

let message ?(p = 1.0) ?tag ?sender ?dest ?(window = (0., infinity)) action =
  if not (p >= 0. && p <= 1.) then invalid_arg "Faultplan.message: p not in [0,1]";
  Message { action; p; tag; sender; dest; window }

let storm ?window extra = message ?window (Delay extra)

let kill_process ?(nth = 0) ?(after = 0.) target =
  Process { fault = Kill; target; nth; after }

let crash_process ?(nth = 0) ?(after = 0.) ?(revive_after = infinity) target =
  Process { fault = Crash revive_after; target; nth; after }

let check_jitter ~fn jitter =
  if jitter < 0. then invalid_arg ("Faultplan." ^ fn ^ ": negative jitter")

let crash_site ?(at = 0.) ?(jitter = 0.) site =
  check_jitter ~fn:"crash_site" jitter;
  Site (Crash_site { site; at; jitter })

let partition_sites ?(at = 0.) ?(jitter = 0.) ?heal_after left right =
  check_jitter ~fn:"partition_sites" jitter;
  (match heal_after with
  | Some h when h < 0. ->
    invalid_arg "Faultplan.partition_sites: negative heal_after"
  | _ -> ());
  Site (Partition_sites { left; right; at; jitter; heal_after })

type t = { seed : int; rules : rule list }

let make ?(seed = 0) rules = { seed; rules }
let none = { seed = 0; rules = [] }

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  if n = 0 then true
  else
    let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
    at 0

(* What the message and spawn hooks share, built only when a plan
   installs one of them. *)
type hooks = {
  eng : Engine.t;
  rng : Rng.t;
  msg_rules : msg_rule list;
  proc_rules : proc_rule list;
  proc_seen : int array;  (* per-rule match counters for [nth] selection *)
  silenced : (Pid.t, unit) Hashtbl.t;
      (* Crashed ("silenced") pids: their traffic is black-holed. *)
}

let injected eng kind pid =
  if Trace.wants (Engine.trace eng) Trace.Kind.injected then
    Trace.record (Engine.trace eng) ~time:(Engine.now eng)
      (Trace.Injected { kind; pid = Some pid; msg = None })

let name_matches h pat pid =
  match Engine.name_of h.eng pid with
  | None -> false
  | Some name -> contains ~sub:pat name

let rule_applies h (r : msg_rule) (m : Message.t) =
  let lo, hi = r.window in
  let now = Engine.now h.eng in
  now >= lo && now <= hi
  && (match r.tag with None -> true | Some t -> String.equal t m.Message.tag)
  && (match r.sender with None -> true | Some s -> name_matches h s m.Message.sender)
  && (match r.dest with None -> true | Some d -> name_matches h d m.Message.dest)
  (* The Bernoulli draw comes last so the stream advances exactly once
     per pattern-matched message — stable under rule reordering. *)
  && (r.p >= 1.0 || Rng.bernoulli h.rng ~p:r.p)

let rec first_applying h m = function
  | [] -> Engine.F_deliver
  | r :: rest ->
    if rule_applies h r m then
      match r.action with
      | Drop -> Engine.F_drop
      | Duplicate -> Engine.F_duplicate
      | Delay d -> Engine.F_delay d
      | Reorder d -> Engine.F_reorder d
    else first_applying h m rest

let on_message h (m : Message.t) : Engine.fault_action =
  if Hashtbl.mem h.silenced m.Message.sender || Hashtbl.mem h.silenced m.Message.dest
  then Engine.F_drop
  else first_applying h m h.msg_rules

let revive h pid =
  if Hashtbl.mem h.silenced pid then begin
    Hashtbl.remove h.silenced pid;
    injected h.eng "revive" pid
  end

let apply_proc_fault h (r : proc_rule) pid =
  match r.fault with
  | Kill ->
    if Engine.alive h.eng pid then begin
      injected h.eng "kill" pid;
      Engine.kill h.eng pid ~reason:"fault injection"
    end
  | Crash revive_after ->
    if Engine.alive h.eng pid then begin
      injected h.eng "crash" pid;
      Hashtbl.replace h.silenced pid ();
      if revive_after < infinity then
        Engine.after h.eng ~delay:revive_after (fun () -> revive h pid)
    end

let rec spawned h pid name i = function
  | [] -> ()
  | r :: rest ->
    if contains ~sub:r.target name then begin
      let seen = h.proc_seen.(i) in
      h.proc_seen.(i) <- seen + 1;
      if seen = r.nth then
        if r.after <= 0. then apply_proc_fault h r pid
        else Engine.after h.eng ~delay:r.after (fun () -> apply_proc_fault h r pid)
    end;
    spawned h pid name (i + 1) rest

let on_spawn h pid name = spawned h pid name 0 h.proc_rules

let fire_at rng at jitter = at +. if jitter > 0. then Rng.float rng jitter else 0.

(* Site faults are scheduled up front, in rule order: each rule draws its
   jitter from the plan stream exactly once at install time, so the fault
   schedule is a pure function of the plan seed no matter what the
   execution does in between. *)
let schedule_site eng rng topo = function
  | Crash_site { site; at; jitter } ->
    Engine.after eng ~delay:(fire_at rng at jitter) (fun () -> Sites.crash topo site)
  | Partition_sites { left; right; at; jitter; heal_after } ->
    Engine.after eng ~delay:(fire_at rng at jitter) (fun () ->
        Sites.partition topo ~left ~right;
        match heal_after with
        | None -> ()
        | Some h -> Engine.after eng ~delay:h (fun () -> Sites.heal topo ~left ~right))

let install ?sites plan eng =
  let msg_rules =
    List.filter_map
      (function Message r -> Some r | Process _ | Site _ -> None)
      plan.rules
  in
  let proc_rules =
    List.filter_map
      (function Process r -> Some r | Message _ | Site _ -> None)
      plan.rules
  in
  let site_rules =
    List.filter_map
      (function Site r -> Some r | Message _ | Process _ -> None)
      plan.rules
  in
  (match (sites, site_rules) with
  | None, _ :: _ ->
    invalid_arg "Faultplan.install: plan has site rules but no ~sites topology"
  | _ -> ());
  (* One stream serves the install-time jitter draws and then the
     message rules' draws. *)
  let rng = Rng.create ~seed:plan.seed in
  (match sites with
  | None -> ()
  | Some topo -> List.iter (schedule_site eng rng topo) site_rules);
  (* A hook that can never act is not installed, and its state is not
     built: only a [Crash] rule ever silences a pid, so without one and
     without message rules every send is delivered, and without process
     rules no spawn is looked at. The engine's no-hook path is its
     [F_deliver] path. A plan of site rules alone builds nothing more. *)
  if msg_rules = [] && proc_rules = [] then begin
    Engine.set_message_fault eng None;
    Engine.set_spawn_hook eng None
  end
  else begin
    let crashes =
      List.exists (fun r -> match r.fault with Crash _ -> true | Kill -> false)
        proc_rules
    in
    let h =
      {
        eng;
        rng;
        msg_rules;
        proc_rules;
        proc_seen = Array.make (List.length proc_rules) 0;
        silenced = Hashtbl.create 8;
      }
    in
    Engine.set_message_fault eng
      (if msg_rules = [] && not crashes then None else Some (on_message h));
    Engine.set_spawn_hook eng (if proc_rules = [] then None else Some (on_spawn h))
  end
