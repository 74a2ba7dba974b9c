(* The online sanitizer: a streaming monitor over the engine's trace,
   page-write, and source-emission hooks. Where the post-mortem checkers
   replay a finished [History] (memory grows with run length, findings
   carry no "caught in the act" coordinates), the sanitizer consumes each
   event as it happens and flags violations at the exact virtual time and
   pid of the offence. Its keyed tables are bounded by the live working
   set — in-flight messages, registered maps, live frames — and its
   per-pid arrays grow with the pids the engine issues, like the engine's
   own tables.

   Happens-before is tracked with per-process vector clocks ([Vclock]):

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

(* Int-keyed tables: message keys and frame keys pack two non-negative
   ints below 2^31 into one ([pack]). *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = (k lxor (k lsr 31)) land max_int
end)

let pack_limit = 1 lsl 31

let pack what hi lo =
  if hi < 0 || hi >= pack_limit || lo < 0 || lo >= pack_limit then
    invalid_arg (Printf.sprintf "Sanitizer: %s (%d, %d) out of range" what hi lo);
  (hi lsl 31) lor lo

let msg_key (m : Message.t) =
  pack "message key" (Pid.to_int m.Message.sender) m.Message.seq

let frame_key ~vpage ~frame = pack "frame key" vpage frame

type t = {
  eng : Engine.t;
  mutable clocks : Vclock.t array;  (* by pid; [Vclock.empty] = absent *)
  mutable clock_count : int;  (* non-empty entries of [clocks] *)
  mutable msg_snap : Vclock.t Itbl.t option;
      (* clock snapshot at Sent, keyed (sender, seq); drained at
         Accepted / Ignored / injected drop so in-flight traffic bounds
         the table, not run length *)
  mutable maps : owner Itbl.t option;  (* page-map id -> owning process *)
  mutable frames : (Pid.t * Vclock.t) Itbl.t option;
      (* (vpage, frame id) -> last writer and its clock at the write *)
  mutable owned_frames : int list array;
      (* by writer pid: its keys in [frames], for O(own) pruning *)
  mutable dead : bool array;  (* by pid: exited (liveness for Shared) *)
  mutable wins : (Pid.t * int * int) list;  (* (pid, index, epoch), newest first *)
  mutable lates : Pid.t list;
  mutable fence : int;  (* epochs below this were fenced by a recovery *)
  mutable degraded : bool;
  mutable sources_seen : int;
  mutable flags : flag list;  (* newest first *)
  mutable flag_count : int;
  mutable in_flag : bool;  (* re-entrancy guard while tracing a flag *)
}

(* The keyed tables are made on first insert: a serving run attaches a
   sanitizer to every batch engine. *)
let snaps t =
  match t.msg_snap with
  | Some h -> h
  | None ->
    let h = Itbl.create 16 in
    t.msg_snap <- Some h;
    h

let map_owners t =
  match t.maps with
  | Some h -> h
  | None ->
    let h = Itbl.create 16 in
    t.maps <- Some h;
    h

let frame_writers t =
  match t.frames with
  | Some h -> h
  | None ->
    let h = Itbl.create 16 in
    t.frames <- Some h;
    h

let table_length = function Some h -> Itbl.length h | None -> 0

(* A pid-indexed array long enough to hold index [i]. *)
let grown a i fill =
  let n = Array.length a in
  if i < n then a
  else begin
    let b = Array.make (Int.max (i + 1) (Int.max 16 (2 * n))) fill in
    Array.blit a 0 b 0 n;
    b
  end

let is_dead t pid =
  let i = Pid.to_int pid in
  i < Array.length t.dead && t.dead.(i)

let mark_dead t pid =
  let i = Pid.to_int pid in
  t.dead <- grown t.dead i false;
  t.dead.(i) <- true

(* ------------------------------------------------------------------ *)
(* Vector clocks.                                                      *)

let clock_of t pid =
  let i = Pid.to_int pid in
  if i < Array.length t.clocks then t.clocks.(i) else Vclock.empty

let drop_clock t pid =
  let i = Pid.to_int pid in
  if i < Array.length t.clocks && not (Vclock.is_empty t.clocks.(i)) then begin
    t.clock_count <- t.clock_count - 1;
    t.clocks.(i) <- Vclock.empty
  end

(* [c] is never empty: every clock stored holds at least its own tick. *)
let set_clock t pid c =
  let i = Pid.to_int pid in
  t.clocks <- grown t.clocks i Vclock.empty;
  if Vclock.is_empty t.clocks.(i) then t.clock_count <- t.clock_count + 1;
  t.clocks.(i) <- c

let tick t pid = set_clock t pid (Vclock.tick (clock_of t pid) pid)

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

let rec has_pid p = function
  | [] -> false
  | q :: rest -> Pid.equal p q || has_pid p rest

let register_map t pid =
  match Engine.space_of t.eng pid with
  | None -> ()
  | Some sp ->
    let id = Page_map.id (Address_space.map sp) in
    let owners = map_owners t in
    (match Itbl.find_opt owners id with
    | None -> Itbl.replace owners id (Single pid)
    | Some (Single p) when not (Pid.equal p pid) ->
      Itbl.replace owners id (Shared [ pid; p ])
    | Some (Shared ps) when not (has_pid pid ps) ->
      Itbl.replace owners id (Shared (pid :: ps))
    | Some _ -> ())

let note_owned t pid key =
  let i = Pid.to_int pid in
  t.owned_frames <- grown t.owned_frames i [];
  t.owned_frames.(i) <- key :: t.owned_frames.(i)

let rec unown writers pid = function
  | [] -> ()
  | key :: rest ->
    (match Itbl.find_opt writers key with
    | Some (p, _) when Pid.equal p pid -> Itbl.remove writers key
    | _ -> ());
    unown writers pid rest

let prune_owned t pid =
  let i = Pid.to_int pid in
  match t.frames with
  | Some writers when i < Array.length t.owned_frames ->
    unown writers pid t.owned_frames.(i);
    t.owned_frames.(i) <- []
  | _ -> ()

let owner_of t map =
  match t.maps with Some h -> Itbl.find_opt h map | None -> None

let on_write t ~map ~vpage ~frame =
  match owner_of t map with
  | None -> ()  (* unregistered map (e.g. a degraded parent's inline fork):
                   no process attribution, stay conservative and silent —
                   the post-mortem oracle only audits block children *)
  | Some (Shared ps) ->
    let live = List.filter (fun p -> not (is_dead t p)) ps in
    if List.length live >= 2 then
      flag t ~pid:(List.hd live) Report.Isolation
        (Format.asprintf
           "write to frame %d (vpage %d) of an address space shared by %d \
            live siblings"
           frame vpage (List.length live))
  | Some (Single pid) -> (
    let writers = frame_writers t in
    let key = frame_key ~vpage ~frame in
    let now = clock_of t pid in
    match Itbl.find_opt writers key with
    | None ->
      Itbl.replace writers key (pid, now);
      note_owned t pid key
    | Some (prev, snap) when Pid.equal prev pid ->
      if snap != now then Itbl.replace writers key (pid, now)
    | Some (prev, snap) ->
      if Vclock.leq snap now then begin
        (* Ordered handoff (absorb): re-own the frame. *)
        Itbl.replace writers key (pid, now);
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

let drop_snap t (m : Message.t) =
  match t.msg_snap with Some h -> Itbl.remove h (msg_key m) | None -> ()

(* The clock snapshot taken when [m] was sent, drained from the table. *)
let take_snap t (m : Message.t) =
  match t.msg_snap with
  | None -> None
  | Some h -> (
    let key = msg_key m in
    match Itbl.find_opt h key with
    | Some _ as snap ->
      Itbl.remove h key;
      snap
    | None -> None)

(* The per-block at-most-once state is a few entries long; these walks
   are top-level so that a win or a late allocates no closure. *)
let rec won_by p = function
  | [] -> false
  | (q, _, _) :: rest -> Pid.equal p q || won_by p rest

let rec wins_in epoch n = function
  | [] -> n
  | (_, _, e) :: rest -> wins_in epoch (if e = epoch then n + 1 else n) rest

(* A win in a fenced epoch was voided by the recovery that fenced it
   ([run_supervised]'s contract), so it does not count against the
   block's one win; the per-epoch and stale-incarnation checks still
   cover each epoch on its own. *)
let fenced t e = e <> 0 && e < t.fence

let rec unfenced_wins t n = function
  | [] -> n
  | (_, _, e) :: rest -> unfenced_wins t (if fenced t e then n else n + 1) rest

let on_event t ~time:_ e =
  match e with
  | Trace.Sanitizer_flag _ -> ()  (* our own breadcrumbs *)
  | Trace.Spawned { pid; parent; _ } ->
    let base =
      match parent with
      | Some p ->
        tick t p;
        clock_of t p
      | None -> Vclock.empty
    in
    set_clock t pid (Vclock.join base (Vclock.singleton pid));
    register_map t pid
  | Trace.Sent { msg } ->
    let sender = msg.Message.sender in
    Itbl.replace (snaps t) (msg_key msg) (clock_of t sender);
    tick t sender
  | Trace.Accepted { dest; msg; dest_pred } ->
    (match take_snap t msg with
    | Some snap ->
      set_clock t dest (Vclock.join_tick (clock_of t dest) snap dest)
    | None -> tick t dest  (* duplicate delivery: the join already happened *));
    if Predicate.conflicts dest_pred msg.Message.predicate then
      flag t ~pid:dest Report.World
        (Format.asprintf
           "%a accepted a message from %a whose predicate %s conflicts with \
            its own %s"
           Pid.pp dest Pid.pp msg.Message.sender
           (Predicate.to_string msg.Message.predicate)
           (Predicate.to_string dest_pred))
  | Trace.Ignored { msg; _ } -> drop_snap t msg
  | Trace.Injected { kind = "drop" | "partition-drop"; msg = Some msg; _ } ->
    drop_snap t msg
  | Trace.Absorbed { parent; child } ->
    set_clock t parent
      (Vclock.join_tick (clock_of t parent) (clock_of t child) parent);
    drop_clock t child
  | Trace.Sync_won { pid; index; epoch } ->
    let per = wins_in epoch 0 t.wins in
    t.wins <- (pid, index, epoch) :: t.wins;
    let live_wins = unfenced_wins t 0 t.wins in
    if live_wins > 1 then
      flag t ~pid Report.At_most_once
        (Printf.sprintf
           "the at-most-once latch fired a second time (win %d of the block)"
           live_wins);
    if per + 1 > 1 then
      flag t ~pid Report.At_most_once
        (Printf.sprintf "%d Sync_won events within epoch %d" (per + 1) epoch);
    if fenced t epoch then
      flag t ~pid Report.At_most_once
        (Printf.sprintf
           "a stale incarnation won in epoch %d after voters were fenced to \
            epoch %d"
           epoch t.fence);
    if t.degraded then
      flag t ~pid Report.At_most_once
        "Sync_won recorded although the block degraded to sequential \
         execution";
    if has_pid pid t.lates then
      flag t ~pid Report.At_most_once
        (Format.asprintf "%a both won and lost the synchronisation" Pid.pp pid)
  | Trace.Sync_late { pid; _ } ->
    if has_pid pid t.lates then
      flag t ~pid Report.At_most_once
        (Format.asprintf "%a was told \"too late\" more than once" Pid.pp pid)
    else t.lates <- pid :: t.lates;
    if won_by pid t.wins then
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
    mark_dead t pid;
    (* Clocks of space-less processes are not needed once they exit:
       accepts of their in-flight messages join through [msg_snap]
       snapshots, not live clocks. Space owners keep theirs until the
       absorb rendezvous consumes it (winners) or their world dies
       (losers, pruned with their frames below). *)
    (match Engine.space_of t.eng pid with
    | None -> drop_clock t pid
    | Some _ ->
      if not (String.length status >= 2 && status.[0] = 'o' && status.[1] = 'k')
      then begin
        prune_owned t pid;
        drop_clock t pid
      end)
  | Trace.Killed { pid; _ } -> mark_dead t pid
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
      clocks = [||];
      clock_count = 0;
      msg_snap = None;
      maps = None;
      frames = None;
      owned_frames = [||];
      dead = [||];
      wins = [];
      lates = [];
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
   [lates], the degradation latch and the recovery fence all describe
   "this block's" latch. A serving engine runs many
   independent blocks back to back on one engine; without this reset the
   second block's perfectly legal [Sync_won] would flag as a duplicate
   win of the first. Vector clocks, frame ownership and message
   snapshots deliberately survive — happens-before and isolation span
   the whole engine, whatever block a process belonged to. Accumulated
   flags also survive: they already happened. *)
let next_block t =
  t.wins <- [];
  t.lates <- [];
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
  t.clock_count + table_length t.msg_snap + table_length t.maps
  + table_length t.frames + List.length t.lates + List.length t.wins

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
