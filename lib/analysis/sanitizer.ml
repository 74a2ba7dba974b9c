(* The online sanitizer: a streaming monitor over the engine's trace,
   page-write, and source-emission hooks. Where the post-mortem checkers
   replay a finished [History] (memory grows with run length, findings
   carry no "caught in the act" coordinates), the sanitizer consumes each
   event as it happens with state bounded by the live working set —
   processes, in-flight messages, live frames — and flags violations at
   the exact virtual time and pid of the offence.

   Happens-before is tracked with per-process vector clocks:

   - [Spawned]   child clock := parent clock joined with {child -> 1}
   - [Sent]      snapshot the sender's clock under (sender, seq), tick
   - [Accepted]  receiver clock := join with the snapshot, tick
   - [Absorbed]  parent clock := join with the winner child's clock

   Page writes reach the sanitizer through the frame store's write
   observer (tracked maps only). Two different maps writing the same
   physical frame is an isolation race unless the writes are ordered by
   happens-before — the one legal unordered-looking case, a parent
   rewriting frames it absorbed from the winner, is exactly the case the
   absorb join orders. *)

type flag = {
  sf_time : float;
  sf_class : Report.check_class;
  sf_pid : Pid.t option;
  sf_detail : string;
}

type owner =
  | Single of Pid.t
  | Shared of Pid.t list  (* deliberately shared space: >= 2 registrants *)

type t = {
  eng : Engine.t;
  clocks : (Pid.t, int Pid.Map.t) Hashtbl.t;
  msg_snap : (Pid.t * int, int Pid.Map.t) Hashtbl.t;
      (* clock snapshot at Sent, keyed (sender, seq); drained at
         Accepted / Ignored / injected drop so in-flight traffic bounds
         the table, not run length *)
  maps : (int, owner) Hashtbl.t;  (* page-map id -> owning process *)
  frames : (int * int, Pid.t * int Pid.Map.t) Hashtbl.t;
      (* (vpage, frame id) -> last writer and its clock at the write *)
  owned_frames : (Pid.t, (int * int) list ref) Hashtbl.t;
      (* writer -> its entries in [frames], for O(own) pruning *)
  dead : (Pid.t, unit) Hashtbl.t;  (* exited pids (liveness for Shared) *)
  mutable wins : (Pid.t * int * int) list;  (* (pid, index, epoch), newest first *)
  lates : (Pid.t, unit) Hashtbl.t;
  epoch_wins : (int, int) Hashtbl.t;
  mutable fence : int;  (* epochs below this were fenced by a recovery *)
  mutable degraded : bool;
  mutable sources_seen : int;
  mutable flags : flag list;  (* newest first *)
  mutable flag_count : int;
  mutable in_flag : bool;  (* re-entrancy guard while tracing a flag *)
}

(* ------------------------------------------------------------------ *)
(* Vector clocks.                                                      *)

let clock_of t pid =
  match Hashtbl.find_opt t.clocks pid with
  | Some c -> c
  | None -> Pid.Map.empty

let tick t pid =
  let c = clock_of t pid in
  let n = match Pid.Map.find_opt pid c with Some n -> n | None -> 0 in
  Hashtbl.replace t.clocks pid (Pid.Map.add pid (n + 1) c)

let join a b = Pid.Map.union (fun _ x y -> Some (max x y)) a b

(* [leq a b]: every component of [a] is known to [b] — the event that
   snapshotted [a] happens-before the holder of [b]. *)
let leq a b =
  Pid.Map.for_all
    (fun p n -> match Pid.Map.find_opt p b with Some m -> n <= m | None -> false)
    a

(* ------------------------------------------------------------------ *)
(* Flagging.                                                           *)

let flag t ?pid cls detail =
  let time = Engine.now t.eng in
  t.flags <- { sf_time = time; sf_class = cls; sf_pid = pid; sf_detail = detail } :: t.flags;
  t.flag_count <- t.flag_count + 1;
  if not t.in_flag then begin
    t.in_flag <- true;
    Trace.record (Engine.trace t.eng) ~time
      (Trace.Sanitizer_flag
         { check = Report.class_name cls; pid; detail });
    t.in_flag <- false
  end

(* ------------------------------------------------------------------ *)
(* Page-map registration and the write observer.                       *)

let register_map t pid =
  match Engine.space_of t.eng pid with
  | None -> ()
  | Some sp ->
    let id = Page_map.id (Address_space.map sp) in
    (match Hashtbl.find_opt t.maps id with
    | None -> Hashtbl.replace t.maps id (Single pid)
    | Some (Single p) when not (Pid.equal p pid) ->
      Hashtbl.replace t.maps id (Shared [ pid; p ])
    | Some (Shared ps) when not (List.exists (Pid.equal pid) ps) ->
      Hashtbl.replace t.maps id (Shared (pid :: ps))
    | Some _ -> ())

let note_owned t pid key =
  match Hashtbl.find_opt t.owned_frames pid with
  | Some l -> l := key :: !l
  | None -> Hashtbl.replace t.owned_frames pid (ref [ key ])

let prune_owned t pid =
  match Hashtbl.find_opt t.owned_frames pid with
  | None -> ()
  | Some l ->
    List.iter
      (fun key ->
        match Hashtbl.find_opt t.frames key with
        | Some (p, _) when Pid.equal p pid -> Hashtbl.remove t.frames key
        | _ -> ())
      !l;
    Hashtbl.remove t.owned_frames pid

let on_write t ~map ~vpage ~frame =
  match Hashtbl.find_opt t.maps map with
  | None -> ()  (* unregistered map (e.g. a degraded parent's inline fork):
                   no process attribution, stay conservative and silent —
                   the post-mortem oracle only audits block children *)
  | Some (Shared ps) ->
    let live = List.filter (fun p -> not (Hashtbl.mem t.dead p)) ps in
    if List.length live >= 2 then
      flag t ~pid:(List.hd live) Report.Isolation
        (Format.asprintf
           "write to frame %d (vpage %d) of an address space shared by %d \
            live siblings"
           frame vpage (List.length live))
  | Some (Single pid) -> (
    let key = (vpage, frame) in
    match Hashtbl.find_opt t.frames key with
    | None ->
      Hashtbl.replace t.frames key (pid, clock_of t pid);
      note_owned t pid key
    | Some (prev, _) when Pid.equal prev pid ->
      Hashtbl.replace t.frames key (pid, clock_of t pid)
    | Some (prev, snap) ->
      if leq snap (clock_of t pid) then begin
        (* Ordered handoff (absorb): re-own the frame. *)
        Hashtbl.replace t.frames key (pid, clock_of t pid);
        note_owned t pid key
      end
      else
        flag t ~pid Report.Isolation
          (Format.asprintf
             "%a wrote frame %d (vpage %d) concurrently with %a: the write \
              was not privatised copy-on-write"
             Pid.pp pid frame vpage Pid.pp prev))

(* ------------------------------------------------------------------ *)
(* Trace events.                                                       *)

let on_event t ~time:_ e =
  match e with
  | Trace.Sanitizer_flag _ -> ()  (* our own breadcrumbs *)
  | Trace.Spawned { pid; parent; _ } ->
    let base =
      match parent with
      | Some p ->
        tick t p;
        clock_of t p
      | None -> Pid.Map.empty
    in
    Hashtbl.replace t.clocks pid (join base (Pid.Map.singleton pid 1));
    register_map t pid
  | Trace.Sent { msg } ->
    let sender = msg.Message.sender in
    Hashtbl.replace t.msg_snap (sender, msg.Message.seq) (clock_of t sender);
    tick t sender
  | Trace.Accepted { dest; msg; dest_pred } ->
    let key = (msg.Message.sender, msg.Message.seq) in
    (match Hashtbl.find_opt t.msg_snap key with
    | Some snap ->
      Hashtbl.remove t.msg_snap key;
      Hashtbl.replace t.clocks dest (join (clock_of t dest) snap)
    | None -> ()  (* duplicate delivery: the join already happened *));
    tick t dest;
    if Predicate.conflicts dest_pred msg.Message.predicate then
      flag t ~pid:dest Report.World
        (Format.asprintf
           "%a accepted a message from %a whose predicate %s conflicts with \
            its own %s"
           Pid.pp dest Pid.pp msg.Message.sender
           (Predicate.to_string msg.Message.predicate)
           (Predicate.to_string dest_pred))
  | Trace.Ignored { msg; _ } ->
    Hashtbl.remove t.msg_snap (msg.Message.sender, msg.Message.seq)
  | Trace.Injected { kind = "drop" | "partition-drop"; msg = Some msg; _ } ->
    Hashtbl.remove t.msg_snap (msg.Message.sender, msg.Message.seq)
  | Trace.Absorbed { parent; child } ->
    Hashtbl.replace t.clocks parent (join (clock_of t parent) (clock_of t child));
    tick t parent;
    Hashtbl.remove t.clocks child
  | Trace.Sync_won { pid; index; epoch } ->
    t.wins <- (pid, index, epoch) :: t.wins;
    let per =
      match Hashtbl.find_opt t.epoch_wins epoch with Some n -> n | None -> 0
    in
    Hashtbl.replace t.epoch_wins epoch (per + 1);
    (* A win in a fenced epoch was voided by the recovery that fenced it
       ([run_supervised]'s contract), so it does not count against the
       block's one win; the per-epoch and stale-incarnation checks below
       still cover each epoch on its own. *)
    let fenced e = e <> 0 && e < t.fence in
    let live_wins = List.filter (fun (_, _, e) -> not (fenced e)) t.wins in
    if List.length live_wins > 1 then
      flag t ~pid Report.At_most_once
        (Printf.sprintf
           "the at-most-once latch fired a second time (win %d of the block)"
           (List.length live_wins));
    if per + 1 > 1 then
      flag t ~pid Report.At_most_once
        (Printf.sprintf "%d Sync_won events within epoch %d" (per + 1) epoch);
    if fenced epoch then
      flag t ~pid Report.At_most_once
        (Printf.sprintf
           "a stale incarnation won in epoch %d after voters were fenced to \
            epoch %d"
           epoch t.fence);
    if t.degraded then
      flag t ~pid Report.At_most_once
        "Sync_won recorded although the block degraded to sequential \
         execution";
    if Hashtbl.mem t.lates pid then
      flag t ~pid Report.At_most_once
        (Format.asprintf "%a both won and lost the synchronisation" Pid.pp pid)
  | Trace.Sync_late { pid; _ } ->
    if Hashtbl.mem t.lates pid then
      flag t ~pid Report.At_most_once
        (Format.asprintf "%a was told \"too late\" more than once" Pid.pp pid)
    else Hashtbl.replace t.lates pid ();
    if List.exists (fun (p, _, _) -> Pid.equal p pid) t.wins then
      flag t ~pid Report.At_most_once
        (Format.asprintf "the winner %a was also told \"too late\"" Pid.pp pid)
  | Trace.Degraded _ ->
    t.degraded <- true;
    (match t.wins with
    | (pid, _, _) :: _ ->
      flag t ~pid Report.At_most_once
        "the block degraded to sequential execution after a Sync_won"
    | [] -> ())
  | Trace.Recovered { epoch; _ } -> t.fence <- max t.fence epoch
  | Trace.Exited { pid; status } ->
    Hashtbl.replace t.dead pid ();
    (* Clocks of space-less processes are not needed once they exit:
       accepts of their in-flight messages join through [msg_snap]
       snapshots, not live clocks. Space owners keep theirs until the
       absorb rendezvous consumes it (winners) or their world dies
       (losers, pruned with their frames below). *)
    (match Engine.space_of t.eng pid with
    | None -> Hashtbl.remove t.clocks pid
    | Some _ ->
      if not (String.length status >= 2 && String.sub status 0 2 = "ok") then begin
        prune_owned t pid;
        Hashtbl.remove t.clocks pid
      end)
  | Trace.Killed { pid; _ } -> Hashtbl.replace t.dead pid ()
  (* [Delivered], [Delivered_batch] and the rest fall through by design:
     sanitized runs emit them, but happens-before is carried by [Sent] and
     [Accepted]; a delivery alone orders nothing. *)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Lifecycle.                                                          *)

let attach eng =
  let t =
    {
      eng;
      clocks = Hashtbl.create 64;
      msg_snap = Hashtbl.create 64;
      maps = Hashtbl.create 16;
      frames = Hashtbl.create 64;
      owned_frames = Hashtbl.create 16;
      dead = Hashtbl.create 64;
      wins = [];
      lates = Hashtbl.create 8;
      epoch_wins = Hashtbl.create 4;
      fence = 0;
      degraded = false;
      sources_seen = 0;
      flags = [];
      flag_count = 0;
      in_flag = false;
    }
  in
  Trace.set_observer (Engine.trace eng) (Some (fun ~time e -> on_event t ~time e));
  Frame_store.set_write_observer (Engine.frame_store eng)
    (Some (fun ~map ~vpage ~frame -> on_write t ~map ~vpage ~frame));
  t

let detach t =
  Trace.set_observer (Engine.trace t.eng) None;
  Frame_store.set_write_observer (Engine.frame_store t.eng) None

(* The at-most-once state is scoped to ONE alternative block: [wins],
   [lates], per-epoch tallies, the degradation latch and the recovery
   fence all describe "this block's" latch. A serving engine runs many
   independent blocks back to back on one engine; without this reset the
   second block's perfectly legal [Sync_won] would flag as a duplicate
   win of the first. Vector clocks, frame ownership and message
   snapshots deliberately survive — happens-before and isolation span
   the whole engine, whatever block a process belonged to. Accumulated
   flags also survive: they already happened. *)
let next_block t =
  t.wins <- [];
  Hashtbl.reset t.lates;
  Hashtbl.reset t.epoch_wins;
  t.fence <- 0;
  t.degraded <- false

let observe_source t src =
  t.sources_seen <- t.sources_seen + 1;
  Source.set_emission_hook src
    (Some
       (fun ~time:_ ~pid ~line ~certain ->
         if not certain then
           flag t ~pid Report.Sources
             (Printf.sprintf
                "speculative output %S reached source device %S before its \
                 writer's predicates resolved"
                line (Source.name src))))

let flags t = List.rev t.flags
let flag_count t = t.flag_count

let state_size t =
  Hashtbl.length t.clocks + Hashtbl.length t.msg_snap + Hashtbl.length t.maps
  + Hashtbl.length t.frames + Hashtbl.length t.lates
  + Hashtbl.length t.epoch_wins + List.length t.wins

(* ------------------------------------------------------------------ *)
(* Reporting and the oracle cross-check.                               *)

let violations t ~scenario ~policy ~seed =
  List.map
    (fun f ->
      Report.violation f.sf_class ~scenario ~policy ~seed
        (Printf.sprintf "[t=%.6f%s] %s" f.sf_time
           (match f.sf_pid with
           | Some p -> Format.asprintf " pid=%a" Pid.pp p
           | None -> "")
           f.sf_detail))
    (flags t)

let crosscheck t ~oracle ~scenario ~policy ~seed =
  let diverged = ref [] in
  let add d =
    diverged :=
      Report.violation Report.Sanitizer ~scenario ~policy ~seed d :: !diverged
  in
  let oracle_has cls = List.exists (fun v -> v.Report.check = cls) oracle in
  let sanitizer_has cls = List.exists (fun f -> f.sf_class = cls) t.flags in
  (* Everything the sanitizer flags must be visible to the oracle: the
     streaming checks are sound subsets of their post-mortem classes. *)
  List.iter
    (fun cls ->
      if sanitizer_has cls && not (oracle_has cls) then
        add
          (Printf.sprintf
             "the sanitizer flagged %s online but the post-mortem oracle is \
              silent"
             (Report.class_name cls)))
    [ Report.At_most_once; Report.World; Report.Isolation; Report.Sources ];
  (* And on the checks where the two monitors test the same predicate,
     completeness must hold too: an oracle finding the sanitizer slept
     through is a sanitizer bug. *)
  if t.sources_seen > 0 && oracle_has Report.Sources
     && not (sanitizer_has Report.Sources)
  then
    add
      "the post-mortem oracle found an uncertain source emission the \
       sanitizer did not flag at emission time";
  if oracle_has Report.Isolation && not (sanitizer_has Report.Isolation) then
    add
      "the post-mortem oracle found an isolation race the sanitizer did not \
       flag at write time";
  List.rev !diverged
