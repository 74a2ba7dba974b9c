(* The online sanitizer: a streaming monitor over the engine's trace,
   the frame store's observer, and source emissions. Where the
   post-mortem checkers replay a finished [History] (memory grows with run
   length, findings carry no "caught in the act" coordinates), the
   sanitizer consumes each event as it happens and flags violations at the
   exact virtual time and pid of the offence. It subscribes only to the
   trace kinds [on_event] matches, so a sanitized engine with recording off
   never builds the rest.

   Its keyed tables hold only what can still matter, so a block leaves the
   state as it found it once its processes have exited and its spaces are
   released:
   - a message snapshot goes when the message is accepted, ignored or
     dropped, or at [next_block] when no copy of its receiver is alive;
   - a map's registration goes when the map is released or absorbed, and
     with it the clock of an owner that has already exited;
   - a frame's last writer goes when the frame is freed: frame ids are
     never reused, so no write can land in it again.
   The per-pid arrays grow with the pids the engine issues, like the
   engine's own tables.

   Happens-before is tracked with per-process vector clocks ([Vclock]):

   - [Spawned]   child clock := parent clock joined with {child -> 1}
   - [Sent]      snapshot the sender's clock under (sender, seq), tick
   - [Accepted]  receiver clock := join with the snapshot, tick
   - [Absorbed]  parent clock := join with the winner child's clock

   Page writes of every map reach the sanitizer through the frame store's
   observer; writes of a map no spawned process owns are ignored. Two
   different maps writing the same physical frame is an isolation race
   unless the writes are ordered by happens-before — the one legal
   unordered-looking case, a parent rewriting frames it absorbed from the
   winner, is exactly the case the absorb join orders. *)

type flag = {
  sf_time : float;
  sf_class : Report.check_class;
  sf_pid : Pid.t option;
  sf_detail : string;
}

module Tbl = Page_map.Int_table

type owner =
  | Unregistered  (* the maps table's dummy *)
  | Single of Pid.t
  | Shared of Pid.t list  (* deliberately shared space: >= 2 registrants *)

(* The last write to a frame, updated in place when the frame is
   rewritten or changes hands. *)
type writer = { mutable w_pid : Pid.t; mutable w_clock : Vclock.t }

(* The frames table's dummy; never updated. *)
let no_writer = { w_pid = Pid.of_int (-1); w_clock = Vclock.empty }

(* Message keys pack (sender, seq), two non-negative ints below 2^31. *)
let pack_limit = 1 lsl 31

let msg_key (m : Message.t) =
  let hi = Pid.to_int m.Message.sender and lo = m.Message.seq in
  if hi < 0 || hi >= pack_limit || lo < 0 || lo >= pack_limit then
    invalid_arg
      (Printf.sprintf "Sanitizer: message key (%d, %d) out of range" hi lo);
  (hi lsl 31) lor lo

type t = {
  eng : Engine.t;
  mutable sub : Trace.subscription option;
  mutable clocks : Vclock.t array;  (* by pid; [Vclock.empty] = absent *)
  mutable clock_count : int;  (* non-empty entries of [clocks] *)
  snaps : Vclock.t Tbl.t;
      (* message key -> the sender's clock at Sent; an empty clock stands
         for "no snapshot", which a join treats alike *)
  snap_dest : int Tbl.t;  (* message key -> its destination, same keys *)
  maps : owner Tbl.t;  (* page-map id -> owning process *)
  frames : writer Tbl.t;  (* frame id -> its last writer *)
  mutable dead : bool array;  (* by pid: exited (liveness for Shared) *)
  mutable wins : (Pid.t * int * int) list;  (* (pid, index, epoch), newest first *)
  mutable lates : Pid.t list;
  mutable fence : int;  (* epochs below this were fenced by a recovery *)
  mutable degraded : bool;
  mutable sources_seen : int;
  mutable flags : flag list;  (* newest first *)
  mutable flag_count : int;
}

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
(* Flagging. The sanitizer does not subscribe to its own breadcrumbs.  *)

let flag t ?pid cls detail =
  let time = Engine.now t.eng in
  t.flags <- { sf_time = time; sf_class = cls; sf_pid = pid; sf_detail = detail } :: t.flags;
  t.flag_count <- t.flag_count + 1;
  Trace.record (Engine.trace t.eng) ~time
    (Trace.Sanitizer_flag { check = Report.class_name cls; pid; detail })

(* ------------------------------------------------------------------ *)
(* Page-map registration and the frame store's observer.               *)

let rec has_pid p = function
  | [] -> false
  | q :: rest -> Pid.equal p q || has_pid p rest

let register_map t pid =
  match Engine.space_of t.eng pid with
  | None -> ()
  | Some sp -> (
    let id = Page_map.id (Address_space.map sp) in
    match Tbl.find t.maps id with
    | Unregistered -> Tbl.replace t.maps id (Single pid)
    | Single p when not (Pid.equal p pid) -> Tbl.replace t.maps id (Shared [ pid; p ])
    | Shared ps when not (has_pid pid ps) -> Tbl.replace t.maps id (Shared (pid :: ps))
    | Single _ | Shared _ -> ())

let written_by pid _frame w = Pid.equal w.w_pid pid

(* Forget the frames [pid] wrote last: its world died. *)
let prune_owned t pid = Tbl.remove_if written_by pid t.frames

let on_write t ~map ~vpage ~frame =
  match Tbl.find t.maps map with
  | Unregistered -> ()  (* no owning process (e.g. a degraded parent's
                           inline fork, or a restore filling its image):
                           no attribution, stay conservative and silent —
                           the post-mortem oracle only audits block
                           children *)
  | Shared ps ->
    let live = List.filter (fun p -> not (is_dead t p)) ps in
    if List.length live >= 2 then
      flag t ~pid:(List.hd live) Report.Isolation
        (Format.asprintf
           "write to frame %d (vpage %d) of an address space shared by %d \
            live siblings"
           frame vpage (List.length live))
  | Single pid ->
    let now = clock_of t pid in
    let w = Tbl.find t.frames frame in
    if w == no_writer then Tbl.replace t.frames frame { w_pid = pid; w_clock = now }
    else if Pid.equal w.w_pid pid then w.w_clock <- now
    else if Vclock.leq w.w_clock now then begin
      (* Ordered handoff (absorb): re-own the frame. *)
      w.w_pid <- pid;
      w.w_clock <- now
    end
    else
      flag t ~pid Report.Isolation
        (Format.asprintf
           "%a wrote frame %d (vpage %d) concurrently with %a: the write \
            was not privatised copy-on-write"
           Pid.pp pid frame vpage Pid.pp w.w_pid)

let on_free t ~frame = Tbl.remove t.frames frame

(* An owner that has exited keeps its clock only for the absorb that
   might still read it; a released map is never absorbed. *)
let forget_if_dead t pid = if is_dead t pid then drop_clock t pid

let rec forget_dead t = function
  | [] -> ()
  | p :: rest ->
    forget_if_dead t p;
    forget_dead t rest

let on_release t ~map =
  match Tbl.find t.maps map with
  | Unregistered -> ()
  | Single pid ->
    Tbl.remove t.maps map;
    forget_if_dead t pid
  | Shared ps ->
    Tbl.remove t.maps map;
    forget_dead t ps

(* ------------------------------------------------------------------ *)
(* Trace events.                                                       *)

let drop_snap t key =
  Tbl.remove t.snaps key;
  Tbl.remove t.snap_dest key

(* The clock snapshot taken when [m] was sent, drained from the table;
   empty when there is none (a duplicate delivery: the join already
   happened). *)
let take_snap t (m : Message.t) =
  let key = msg_key m in
  let snap = Tbl.find t.snaps key in
  drop_snap t key;
  snap

(* A snapshot of a message no process can accept any more: its receiver,
   and every world copy of it, has exited. *)
let dead_letter t key dest =
  if Engine.receivable t.eng (Pid.of_int dest) then false
  else begin
    Tbl.remove t.snaps key;
    true
  end

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
  | Trace.Spawned { pid; parent; _ } ->
    let base =
      match parent with
      | Some p ->
        tick t p;
        clock_of t p
      | None -> Vclock.empty
    in
    (* The child is new to [base]: ticking it in joins its first event. *)
    set_clock t pid (Vclock.tick base pid);
    register_map t pid
  | Trace.Sent { msg } ->
    let sender = msg.Message.sender in
    let key = msg_key msg in
    Tbl.replace t.snaps key (clock_of t sender);
    Tbl.replace t.snap_dest key (Pid.to_int msg.Message.dest);
    tick t sender
  | Trace.Accepted { dest; msg; dest_pred } ->
    set_clock t dest (Vclock.join_tick (clock_of t dest) (take_snap t msg) dest);
    if Predicate.conflicts dest_pred msg.Message.predicate then
      flag t ~pid:dest Report.World
        (Format.asprintf
           "%a accepted a message from %a whose predicate %s conflicts with \
            its own %s"
           Pid.pp dest Pid.pp msg.Message.sender
           (Predicate.to_string msg.Message.predicate)
           (Predicate.to_string dest_pred))
  | Trace.Ignored { msg; _ } -> drop_snap t (msg_key msg)
  | Trace.Injected { kind = "drop" | "partition-drop"; msg = Some msg; _ } ->
    drop_snap t (msg_key msg)
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
       accepts of their in-flight messages join through [snaps], not live
       clocks. Space owners keep theirs until the absorb rendezvous
       consumes it (winners), their world dies (losers, pruned with their
       frames below) or their map is released. *)
    (match Engine.space_of t.eng pid with
    | None -> drop_clock t pid
    | Some sp ->
      if not (String.length status >= 2 && status.[0] = 'o' && status.[1] = 'k')
      then begin
        prune_owned t pid;
        drop_clock t pid
      end
      else if Page_map.released (Address_space.map sp) then drop_clock t pid)
  | Trace.Killed { pid; _ } -> mark_dead t pid
  (* Only the kinds in [kinds] arrive. [Delivered], [Delivered_batch] and
     the rest are left out by design: happens-before is carried by [Sent]
     and [Accepted]; a delivery alone orders nothing. *)
  | _ -> ()

let kinds =
  Trace.Kind.(
    spawned lor sent lor accepted lor ignored lor injected lor absorbed
    lor sync_won lor sync_late lor degraded lor recovered lor exited
    lor killed)

(* ------------------------------------------------------------------ *)
(* Lifecycle.                                                          *)

let attach eng =
  let t =
    {
      eng;
      sub = None;
      clocks = [||];
      clock_count = 0;
      snaps = Tbl.create Vclock.empty;
      snap_dest = Tbl.create (-1);
      maps = Tbl.create Unregistered;
      frames = Tbl.create no_writer;
      dead = [||];
      wins = [];
      lates = [];
      fence = 0;
      degraded = false;
      sources_seen = 0;
      flags = [];
      flag_count = 0;
    }
  in
  t.sub <- Some (Trace.subscribe (Engine.trace eng) kinds (on_event t));
  Frame_store.set_observer (Engine.frame_store eng)
    (Some
       { Frame_store.on_write = on_write t; on_free = on_free t;
         on_release = on_release t });
  t

let detach t =
  Option.iter (Trace.unsubscribe (Engine.trace t.eng)) t.sub;
  t.sub <- None;
  Frame_store.set_observer (Engine.frame_store t.eng) None

(* The at-most-once state is scoped to ONE alternative block: [wins],
   [lates], the degradation latch and the recovery fence all describe
   "this block's" latch. A serving engine runs many
   independent blocks back to back on one engine; without this reset the
   second block's perfectly legal [Sync_won] would flag as a duplicate
   win of the first. Vector clocks, frame ownership and message
   snapshots deliberately survive — happens-before and isolation span
   the whole engine, whatever block a process belonged to — except for
   the snapshots of messages no process can receive any more. Accumulated
   flags also survive: they already happened. *)
let next_block t =
  Tbl.remove_if dead_letter t t.snap_dest;
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
  t.clock_count + Tbl.length t.snaps + Tbl.length t.maps + Tbl.length t.frames
  + List.length t.lates + List.length t.wins

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
