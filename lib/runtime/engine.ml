type cores = Cpu.cores = Infinite | Cores of int

type exit_status =
  | Exited_ok
  | Exited_failed of string
  | Crashed of string
  | Eliminated of string

exception Process_killed of string
exception Abort_process of string
exception Replay_divergence of string

(* One entry per effectful operation of a cloneable process, enough to
   re-execute its body deterministically up to a given point. *)
type log_entry =
  | L_delay of float
  | L_now of float
  | L_recv of Message.t
  | L_recv_opt of Message.t option
  | L_sent
  | L_random of int64

type proc_state =
  | Embryo
  | Running
  | Suspended
  | Dead of exit_status

(* A write-once cell; [waiters] resume the processes parked on it. *)
type 'a ivar = { mutable value : 'a option; mutable waiters : ('a -> unit) list }

type pcb = {
  pid : Pid.t;
  logical : Pid.t;
  parent : Pid.t option;
  name : string;
  body : ctx -> unit;
  mutable state : proc_state;
  mutable park : park;
  mutable predicate : Predicate.t;
  space : Address_space.t option;
  mutable mailbox : Mailbox.t;  (* ring of messages, arrival order *)
  mutable chans : channel list;  (* outbound channels, one per logical dest *)
  mutable last_chan : channel option;  (* last outbound channel, a cache *)
  born : int;  (* spawn order within the engine: the sweep's snapshot key *)
  mutable doomed : string option;
  mutable cloneable : bool;
  mutable log : log_entry list;  (* newest first *)
  mutable replay : log_entry list;  (* oldest first; non-empty while replaying *)
  mutable send_seq : int;
  mutable exit_watchers : (exit_status -> unit) list;
  mutable res_watchers : ([ `Certain | `Dead ] -> unit) list;
  mutable preserve_space : bool;
  oblivious : bool;
  mutable site : string option;
  mutable rng : Rng.t;
      (* Per-process SplitMix64 stream, keyed (root seed, pid): a
         process's draws depend on nothing but its own identity, not on
         how many other processes drew before it. Made on the first
         draw ([no_rng] until then); being a pure function of (seed,
         pid), it draws the same whenever it is made. *)
}

(* How a process is parked. A CPU park is the process and its
   continuation: [kill] discontinues [k], and a finished slice continues
   it only while [pcb.park] is still physically that value (the one-shot
   guard). A blocked receive carries what [rescan_parked] needs to hand it
   a message; it and an ivar park carry the [cancel] that [kill] calls. *)
and park =
  | No_park
  | Park_cpu of { pcb : pcb; k : (unit, unit) Effect.Deep.continuation }
  | Park_recv of {
      tag : string option;
      wake : Message.t -> unit;
      cancel : string -> unit;
    }
  | Park_other of { cancel : string -> unit }

and ctx = { engine : t; pcb : pcb }

and event = { mutable dead_ev : bool; run_ev : unit -> unit }

(* One (sender, logical dest) messaging channel: the per-sender FIFO
   clock, a ring-buffer outbox of in-flight messages, and the state of the
   currently open delivery batch.

   A batch is a single scheduled event that will hand a contiguous run of
   outbox entries to the receiver in one step. A later send may join the
   open batch only if (a) it is due at exactly the batch's flush time,
   (b) the event queue's stamp has not moved since the batch last grew —
   i.e. nothing else was scheduled in between — and (c) no event has
   executed since either. The stamp alone counts only pushes: a
   zero-delay timer that pops and runs between two sends at the same
   virtual time (say, filling an ivar whose waiter resumes synchronously
   and sends again) moves neither the stamp nor the flush time, yet an
   event did order between the two sends and must flush the open batch.
   With (a)–(c) together no event can possibly order between the batch's
   members and global (time, seq) order is preserved exactly as if each
   message had its own event. *)
and channel = {
  ch_sender : Pid.t;
  ch_dest : Pid.t;  (* logical destination *)
  outbox : Mailbox.t;
  ch_clock : floatarray;
      (* [0] = last scheduled delivery time (the per-sender FIFO clock),
         [1] = the open batch's flush time. A flat float pair rather than
         two mutable fields of this mixed record, so the send fast path
         stores and compares times without boxing a float per message. *)
  mutable ch_open : bool;
  mutable ch_watermark : int;  (* Event_queue.stamp when the batch last grew *)
  mutable ch_epoch : int;  (* events_processed when the batch was opened *)
  mutable ch_upto : upto;
}

(* The open batch's end position, shared with the scheduled flush closure
   so joins can extend the batch without touching the event queue. *)
and upto = { mutable u : int }

and fault_action =
  | F_deliver
  | F_drop
  | F_delay of float
  | F_duplicate
  | F_reorder of float

(* Every pid-keyed table is an array indexed by the pid: pids are the
   dense ints this engine's allocator hands out from 0, and the arrays are
   grown as pids are issued ([alloc_pid]), so their length always covers
   every issued pid. *)
and t = {
  mutable vnow : float;
  queue : event Event_queue.t;  (* (time, stamp) order *)
  root_seed : int;
  mutable procs : pcb option array;  (* None: issued but never spawned *)
  mutable worlds : Pid.t list array;
      (* logical pid -> its world copies, oldest first; [] for a pid never
         spawned *)
  mutable spawned : int;  (* pcbs created so far; the next [born] *)
  alloc : Pid.Allocator.t;
  reg : Fate_registry.t;
  store : Frame_store.t;
  model_ : Cost_model.t;
  trace_ : Trace.t;
  cpu : (park, event) Cpu.t;
      (* The runnable processes, each parked as the [Park_cpu] its tick
         hands back. *)
  mutable mailbox_scanned : int;  (* slots visited by receive scans *)
  mutable events_processed : int;  (* also the batch-join epoch *)
  mutable live : int;
  mutable deferred : Pid.t list;  (* exited ok, fate deferred on predicates *)
  mutable stopped : bool;
  mutable sweeping : bool;
  mutable sweep_again : bool;
  mutable msg_fault : (Message.t -> fault_action) option;
  mutable spawn_hook : (Pid.t -> string -> unit) option;
  mutable site_hook :
    (pid:Pid.t ->
    parent:Pid.t option ->
    name:string ->
    explicit:string option ->
    string option)
    option;
  mutable delivery_fault : (Message.t -> dest:Pid.t -> bool) option;
}

(* What a parked process waits for: CPU time, a message, or an ivar fill,
   the last two optionally bounded by a timeout. *)
type _ suspension =
  | S_cpu : float -> unit suspension
  | S_recv : string option -> Message.t suspension
  | S_recv_timeout : string option * float -> Message.t option suspension
  | S_fill : 'a ivar -> 'a suspension
  | S_fill_timeout : 'a ivar * float -> 'a option suspension

(* The engine's only effect: parking. Every body operation that cannot
   block (send, now_v, random_bits, the receive fast paths, the doom,
   replay and log steps) runs on the caller's own stack. *)
type _ Effect.t += E_suspend : 'a suspension -> 'a Effect.t

let initial_pids = 16

(* Sentinel: a generator never drawn from (a pcb's stream before its
   first draw). *)
let no_rng = Rng.create ~seed:0

let set_message_fault t f = t.msg_fault <- f
let set_spawn_hook t f = t.spawn_hook <- f
let set_site_hook t f = t.site_hook <- f
let set_delivery_fault t f = t.delivery_fault <- f

let now t = t.vnow
let model t = t.model_
let frame_store t = t.store
let trace t = t.trace_
let registry t = t.reg
let stats_events_processed t = t.events_processed
let stats_mailbox_scanned t = t.mailbox_scanned

let schedule_cancellable t ~at thunk =
  let ev = { dead_ev = false; run_ev = thunk } in
  Event_queue.push t.queue ~time:(Float.max at t.vnow) ev;
  ev

let cancel_event ev = ev.dead_ev <- true

let schedule t ~at thunk = ignore (schedule_cancellable t ~at thunk)

let tr t e = Trace.record t.trace_ ~time:t.vnow e

(* Whether some trace subscriber reads events of kind [k]: tested before
   an event is built, so a kind nobody reads costs no allocation. *)
let wants t k = Trace.wants t.trace_ k

let status_string = function
  | Exited_ok -> "ok"
  | Exited_failed r -> "failed: " ^ r
  | Crashed r -> "crashed: " ^ r
  | Eliminated r -> "eliminated: " ^ r

(* Continue a process whose slice ran out, unless it was killed after the
   tick collected it: [kill] resets [pcb.park], and a killed process that
   catches [Process_killed] and delays again parks as a fresh value. *)
let resume_slice p =
  match p with
  | Park_cpu { pcb; k } when pcb.park == p ->
    pcb.park <- No_park;
    pcb.state <- Running;
    Effect.Deep.continue k ()
  | _ -> ()

(* The one-shot resume and cancel of a closure-based park (see
   [suspend]). *)
let resume_once pcb armed k v =
  if !armed then begin
    armed := false;
    pcb.park <- No_park;
    pcb.state <- Running;
    Effect.Deep.continue k v
  end

let cancel_once armed k reason =
  if !armed then begin
    armed := false;
    Effect.Deep.discontinue k (Process_killed reason)
  end

(* The event every engine's CPU puts in its queue's slot: [run] knows it
   and ticks its own engine's CPU, so it closes over no engine. *)
let cpu_tick_event = { dead_ev = false; run_ev = ignore }

let cpu_tick t = List.iter resume_slice (Cpu.tick t.cpu ~now:t.vnow)

let create ?(cores = Infinite) ?(model = Cost_model.uniform ()) ?(seed = 42)
    ?(trace = true) ?(shards = 1) () =
  (* [shards] is a compatibility argument for the profiling harness in
     bench/profile, which still passes [~shards:1]. *)
  if shards <> 1 then invalid_arg "Engine.create: shards must be 1";
  (match cores with
  | Cores c when c < 1 -> invalid_arg "Engine.create: cores must be at least 1"
  | _ -> ());
  let queue = Event_queue.create () in
  {
    vnow = 0.;
    queue;
    root_seed = seed;
    procs = Array.make initial_pids None;
    worlds = Array.make initial_pids [];
    spawned = 0;
    alloc = Pid.Allocator.create ();
    reg = Fate_registry.create ();
    store = Frame_store.create ~page_size:model.Cost_model.page_size;
    model_ = model;
    trace_ = Trace.create ~enabled:trace ();
    cpu = Cpu.create cores queue ~tick:cpu_tick_event ~empty:No_park;
    mailbox_scanned = 0;
    events_processed = 0;
    live = 0;
    deferred = [];
    stopped = false;
    sweeping = false;
    sweep_again = false;
    msg_fault = None;
    spawn_hook = None;
    site_hook = None;
    delivery_fault = None;
  }

(* ------------------------------------------------------------------ *)
(* Process table helpers.                                              *)

(* Issue the next pid, growing every pid-indexed table to cover it. *)
let alloc_pid t =
  let pid = Pid.Allocator.fresh t.alloc in
  let n = Array.length t.procs in
  if Pid.to_int pid >= n then begin
    let cap = 2 * n in
    let procs = Array.make cap None and worlds = Array.make cap [] in
    Array.blit t.procs 0 procs 0 n;
    Array.blit t.worlds 0 worlds 0 n;
    t.procs <- procs;
    t.worlds <- worlds
  end;
  pid

let find_pcb t pid =
  let i = Pid.to_int pid in
  if i >= 0 && i < Array.length t.procs then Array.unsafe_get t.procs i else None

(* World copies of a logical pid, oldest first; [] if it was never spawned
   (a ghost destination, or the physical pid of a clone). *)
let world_copies t pid =
  let i = Pid.to_int pid in
  if i >= 0 && i < Array.length t.worlds then Array.unsafe_get t.worlds i else []

let rec find_channel dest = function
  | [] -> raise Not_found
  | c :: rest -> if Pid.equal c.ch_dest dest then c else find_channel dest rest

let is_alive pcb = match pcb.state with Dead _ -> false | _ -> true

let alive t pid = match find_pcb t pid with Some p -> is_alive p | None -> false

let rec any_alive t = function
  | [] -> false
  | p :: rest -> alive t p || any_alive t rest

let receivable t pid =
  match world_copies t pid with [] -> alive t pid | copies -> any_alive t copies

let status t pid =
  match find_pcb t pid with
  | Some { state = Dead s; _ } -> Some s
  | _ -> None

let live_count t = t.live

(* The pids of the spawned processes satisfying [f], ascending. *)
let pids_where t f =
  let acc = ref [] in
  for i = Array.length t.procs - 1 downto 0 do
    match t.procs.(i) with
    | Some pcb when f pcb -> acc := pcb.pid :: !acc
    | _ -> ()
  done;
  !acc

let parked_pids t =
  pids_where t (fun pcb ->
      is_alive pcb && match pcb.park with No_park -> false | _ -> true)

let log_push pcb e =
  if pcb.cloneable && pcb.replay = [] then pcb.log <- e :: pcb.log

let replay_next pcb =
  match pcb.replay with
  | [] -> None
  | e :: rest ->
    pcb.replay <- rest;
    Some e

let disable_cloning pcb =
  if pcb.cloneable then begin
    pcb.cloneable <- false;
    pcb.log <- []
  end

(* ------------------------------------------------------------------ *)
(* Fates, predicate sweep, world elimination.                          *)

let rec finalize t pcb st =
  match pcb.state with
  | Dead _ -> ()
  | _ ->
    pcb.state <- Dead st;
    pcb.park <- No_park;
    Cpu.remove t.cpu ~now:t.vnow pcb.pid;
    if not pcb.preserve_space then Option.iter Address_space.release pcb.space;
    t.live <- t.live - 1;
    if wants t Trace.Kind.exited then
      tr t (Trace.Exited { pid = pcb.pid; status = status_string st });
    let watchers = pcb.exit_watchers in
    pcb.exit_watchers <- [];
    List.iter
      (fun w ->
        try w st
        with e ->
          tr t (Trace.Note ("exit watcher raised: " ^ Printexc.to_string e)))
      watchers;
    (match st with
    | Exited_ok -> (
      (* An alternative's predicate assumes its own completion; its exit is
         precisely what resolves that assumption. *)
      (match Predicate.resolve pcb.predicate ~pid:pcb.pid ~fate:Predicate.Completed with
      | Predicate.Simplified p -> pcb.predicate <- p
      | Predicate.Unchanged -> ()
      | Predicate.Falsified ->
        (* It assumed its own failure: an impossible world; drop the
           self-assumption and let the normal sweep handle the rest. *)
        ());
      match Fate_registry.normalize t.reg pcb.predicate with
      | `Dead ->
        fire_res_watchers t pcb `Dead;
        record_fate t pcb.pid Predicate.Failed
      | `Live p when Predicate.is_certain p ->
        fire_res_watchers t pcb `Certain;
        record_fate t pcb.pid Predicate.Completed
      | `Live p ->
        (* Completion is conditional on unresolved assumptions: defer the
           fate until they resolve (the process "cannot commit" yet). *)
        pcb.predicate <- p;
        t.deferred <- pcb.pid :: t.deferred;
        if wants t Trace.Kind.fate_deferred then
          tr t (Trace.Fate_deferred pcb.pid))
    | Exited_failed _ | Crashed _ | Eliminated _ ->
      fire_res_watchers t pcb `Dead;
      record_fate t pcb.pid Predicate.Failed)

and fire_res_watchers t pcb outcome =
  let ws = pcb.res_watchers in
  pcb.res_watchers <- [];
  List.iter
    (fun w ->
      try w outcome
      with e ->
        tr t (Trace.Note ("resolution watcher raised: " ^ Printexc.to_string e)))
    ws

and record_fate t pid fate =
  (match Fate_registry.fate t.reg pid with
  | Some f when f = fate -> ()
  | _ ->
    Fate_registry.record t.reg pid fate;
    if wants t Trace.Kind.fate then tr t (Trace.Fate { pid; fate }));
  sweep t

and kill t pid ~reason =
  match find_pcb t pid with
  | None -> ()
  | Some pcb -> (
    match pcb.state with
    | Dead _ -> ()
    | Embryo -> finalize t pcb (Eliminated reason)
    | Running -> pcb.doomed <- Some reason
    | Suspended -> (
      match pcb.park with
      | No_park ->
        (* Runnable (start scheduled): doom it; the start event checks. *)
        pcb.doomed <- Some reason
      | Park_cpu { k; _ } ->
        pcb.park <- No_park;
        Cpu.remove t.cpu ~now:t.vnow pcb.pid;
        Effect.Deep.discontinue k (Process_killed reason)
      | Park_recv { cancel; _ } | Park_other { cancel } ->
        (* Never in the CPU table: only a [Park_cpu] is. *)
        pcb.park <- No_park;
        cancel reason))

(* Re-examine every live process's predicate after new knowledge arrives:
   falsified worlds are eliminated, satisfied assumptions removed, parked
   receivers rescanned, deferred fates settled. *)
and sweep t =
  if t.sweeping then t.sweep_again <- true
  else begin
    t.sweeping <- true;
    let continue = ref true in
    while !continue do
      t.sweep_again <- false;
      (* A round visits, in pid order, the processes spawned before it
         began. User code it wakes (watchers, rescanned receivers) may
         spawn more — a world clone, or a pre-allocated pid the walk has
         yet to reach — and those wait for the next sweep. [t.procs] is
         re-read per step: a spawn may grow it. *)
      let born_before = t.spawned in
      for i = 0 to Pid.Allocator.allocated t.alloc - 1 do
        match t.procs.(i) with
        | Some pcb when pcb.born < born_before && is_alive pcb ->
          (match Fate_registry.normalize t.reg pcb.predicate with
          | `Dead ->
            if wants t Trace.Kind.killed then
              tr t (Trace.Killed { pid = pcb.pid; reason = "dead world" });
            fire_res_watchers t pcb `Dead;
            kill t pcb.pid ~reason:"dead world"
          | `Live p ->
            let changed = not (Predicate.equal p pcb.predicate) in
            pcb.predicate <- p;
            if changed && Predicate.is_certain p then
              fire_res_watchers t pcb `Certain);
          (* A parked receiver may now be able to accept a message whose
             acceptance was deferred. *)
          if is_alive pcb then rescan_parked t pcb
        | _ -> ()
      done;
      (* Settle deferred fates. *)
      let deferred = t.deferred in
      t.deferred <- [];
      let still =
        List.filter
          (fun pid ->
            match find_pcb t pid with
            | None -> false
            | Some pcb -> (
              match Fate_registry.normalize t.reg pcb.predicate with
              | `Dead ->
                fire_res_watchers t pcb `Dead;
                record_fate t pid Predicate.Failed;
                false
              | `Live p when Predicate.is_certain p ->
                pcb.predicate <- p;
                fire_res_watchers t pcb `Certain;
                record_fate t pid Predicate.Completed;
                false
              | `Live p ->
                pcb.predicate <- p;
                true))
          deferred
      in
      t.deferred <- still @ t.deferred;
      continue := t.sweep_again
    done;
    t.sweeping <- false
  end

(* ------------------------------------------------------------------ *)
(* Message scanning: accept / ignore / split (section 3.4.2).          *)

and try_receive t pcb tag : Message.t =
  (* Returns [Mailbox.no_message] (physical compare) when nothing is
     acceptable: the receive fast path runs once per message, so the
     sentinel saves an option cell per delivered message. *)
  let ring = pcb.mailbox in
  if Mailbox.is_empty ring then Mailbox.no_message
  else begin
    (* A tag-filtered receive starts at the ring's per-tag cursor: every
       position before it is known to hold no live entry with this tag, so
       repeated polls do not re-scan foreign traffic (the old list scan
       was quadratic in exactly that case). The cursor may be behind the
       head after consumptions; clamp it forward. *)
    let cur =
      match tag with
      | None -> None
      | Some wanted ->
        let c = Mailbox.cursor ring wanted in
        if c.Mailbox.cpos < Mailbox.head_pos ring then
          c.Mailbox.cpos <- Mailbox.head_pos ring;
        Some c
    in
    let start =
      match cur with None -> Mailbox.head_pos ring | Some c -> c.Mailbox.cpos
    in
    scan_mailbox t pcb ring tag cur [] start true
  end

(* Walk the ring in position order; honour per-sender FIFO when deferring.
   [blocked] (senders we must not overtake) is threaded as a list so the
   common no-deferral scan allocates nothing. [prefix] is true while every
   slot visited so far was a tombstone or tag-foreign, i.e. while the
   per-tag cursor may still advance over them. A top-level function rather
   than an inner closure: the receive fast path allocates nothing. *)
and scan_mailbox t pcb ring tag cur blocked pos prefix : Message.t =
  if pos >= Mailbox.tail_pos ring then Mailbox.no_message
  else begin
    t.mailbox_scanned <- t.mailbox_scanned + 1;
    let m = Mailbox.message_at ring pos in
    if
      m == Mailbox.no_message
      || match tag with
         | None -> false
         | Some wanted -> not (String.equal m.Message.tag wanted)
    then begin
      (* A tombstone or tag-foreign traffic. *)
      advance_cursor cur pos prefix;
      scan_mailbox t pcb ring tag cur blocked (pos + 1) prefix
    end
    else if pcb.oblivious then begin
      (* Kernel-level services (consensus voters, devices) accept every
         message: they are part of process management, not of any world. *)
      if wants t Trace.Kind.accepted then
        tr t (Trace.Accepted { dest = pcb.pid; msg = m; dest_pred = pcb.predicate });
      Mailbox.remove ring pos;
      m
    end
    else if
      (* Empty-list check first: nothing is examined unless a sender has
         actually been deferred during this scan. *)
      (match blocked with
      | [] -> false
      | _ -> List.exists (Pid.equal m.Message.sender) blocked)
    then scan_mailbox t pcb ring tag cur blocked (pos + 1) false
    else begin
      let spred = m.Message.predicate in
      if Predicate.is_certain spred then begin
        (* The overwhelmingly common case: a sender with no unresolved
           assumptions. Normalisation would return the predicate
           unchanged and the receiver trivially implies it, so accept
           directly without allocating the `Live wrapper. *)
        if wants t Trace.Kind.accepted then
          tr t
            (Trace.Accepted { dest = pcb.pid; msg = m; dest_pred = pcb.predicate });
        Mailbox.remove ring pos;
        m
      end
      else
        match Fate_registry.normalize t.reg spred with
        | `Dead ->
          (* The sender's world died: the message never happened. *)
          if wants t Trace.Kind.ignored then
            tr t (Trace.Ignored { dest = pcb.pid; msg = m; reason = "dead world" });
          Mailbox.remove ring pos;
          advance_cursor cur pos prefix;
          scan_mailbox t pcb ring tag cur blocked (pos + 1) prefix
        | `Live s ->
          if Predicate.implies pcb.predicate s then begin
            if wants t Trace.Kind.accepted then
              tr t
                (Trace.Accepted
                   { dest = pcb.pid; msg = m; dest_pred = pcb.predicate });
            Mailbox.remove ring pos;
            m
          end
          else if Predicate.conflicts pcb.predicate s then begin
            if wants t Trace.Kind.ignored then
              tr t (Trace.Ignored { dest = pcb.pid; msg = m; reason = "conflict" });
            Mailbox.remove ring pos;
            advance_cursor cur pos prefix;
            scan_mailbox t pcb ring tag cur blocked (pos + 1) prefix
          end
          else if accept_with_split t pcb m s then begin
            (* The message required new assumptions, which it now has. *)
            Mailbox.remove ring pos;
            m
          end
          else
            (* Keep waiting: do not overtake this sender (FIFO). *)
            scan_mailbox t pcb ring tag cur (m.Message.sender :: blocked)
              (pos + 1) false
    end
  end

and advance_cursor cur pos prefix =
  if prefix then
    match cur with None -> () | Some c -> c.Mailbox.cpos <- pos + 1

(* Receiver [pcb] is about to accept [m], a message in its mailbox whose
   (normalized) sending predicate [s] extends the receiver's assumptions.
   Create the rejecting world as a replay clone, then let [pcb] proceed as
   the accepting world. Returns false to defer; the caller removes the
   entry from the mailbox on acceptance. *)
and accept_with_split t pcb m s =
  let sender = m.Message.sender in
  let reject_pred =
    if Predicate.mem_completes pcb.predicate sender then None
    else Some (Predicate.assume_fails pcb.predicate sender)
  in
  let can_clone = pcb.cloneable in
  match reject_pred with
  | None ->
    (* The receiver already depends on the sender completing; the only new
       assumptions are the sender's own, which acceptance takes on. *)
    adopt_sender_assumptions t pcb m s;
    true
  | Some reject_pred when can_clone ->
    let clone_pid = alloc_pid t in
    let clone =
      make_pcb t ~pid:clone_pid ~logical:pcb.logical ~parent:pcb.parent
        ~name:(pcb.name ^ "~world") ~predicate:reject_pred ~space:None
        ~cloneable:true ~oblivious:false ~body:pcb.body
    in
    clone.replay <- List.rev pcb.log;
    clone.log <- pcb.log;
    (* The rejecting world keeps everything except the accepted send. An
       injected duplicate is the same message value pushed twice, so the
       physical-identity filter excludes it along with its original; the
       worlds share the remaining immutable entries. *)
    clone.mailbox <- Mailbox.copy_excluding pcb.mailbox ~msg:m;
    register_world t clone;
    t.live <- t.live + 1;
    (* World copies live wherever the original does: a site crash must take
       every copy of a resident process down with it. *)
    assign_site t clone ~explicit:pcb.site;
    if wants t Trace.Kind.split then
      tr t (Trace.Split { original = pcb.pid; clone = clone_pid; on = m });
    (match t.spawn_hook with Some h -> h clone_pid clone.name | None -> ());
    (* Charge the copy as a fork-base-cost start delay for the clone. *)
    schedule t
      ~at:(t.vnow +. t.model_.Cost_model.fork_base)
      (fun () -> start_pcb t clone);
    adopt_sender_assumptions t pcb m s;
    true
  | Some _ ->
    (* Not cloneable: fall back to deferring until the sender resolves
       (pessimistic but semantics-preserving). *)
    if wants t Trace.Kind.ignored then
      tr t
        (Trace.Ignored
           { dest = pcb.pid; msg = m; reason = "deferred (receiver not cloneable)" });
    false

and adopt_sender_assumptions t pcb m s =
  (* The trace records the predicate the receiver held when it decided to
     accept, not the conjoined one: the analysis layer re-derives the
     acceptance decision from it. *)
  let pred_at_accept = pcb.predicate in
  let p = Predicate.conjoin pcb.predicate s in
  let p =
    if Predicate.mem_completes p m.Message.sender then p
    else Predicate.assume_completes p m.Message.sender
  in
  pcb.predicate <- p;
  if wants t Trace.Kind.accepted then
    tr t (Trace.Accepted { dest = pcb.pid; msg = m; dest_pred = pred_at_accept })

and rescan_parked t pcb =
  match pcb.park with
  | Park_recv { tag; wake; _ } ->
    let m = try_receive t pcb tag in
    if m != Mailbox.no_message then wake m
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Process creation and the effect handler.                            *)

and make_pcb t ~pid ~logical ~parent ~name ~predicate ~space ~cloneable
    ~oblivious ~body =
  if Option.is_some (find_pcb t pid) then
    invalid_arg "Engine.spawn: pid already in use";
  let pcb =
    {
      pid;
      logical;
      parent;
      name;
      body;
      state = Embryo;
      park = No_park;
      predicate;
      space;
      mailbox = Mailbox.create ();
      chans = [];
      last_chan = None;
      born = t.spawned;
      doomed = None;
      cloneable = cloneable && space = None;
      log = [];
      replay = [];
      send_seq = 0;
      exit_watchers = [];
      res_watchers = [];
      preserve_space = false;
      oblivious;
      site = None;
      rng = no_rng;
    }
  in
  t.spawned <- t.spawned + 1;
  t.procs.(Pid.to_int pid) <- Some pcb;
  pcb

and assign_site t pcb ~explicit =
  pcb.site <-
    (match t.site_hook with
    | Some h -> h ~pid:pcb.pid ~parent:pcb.parent ~name:pcb.name ~explicit
    | None -> explicit)

and register_world t pcb =
  let i = Pid.to_int pcb.logical in
  t.worlds.(i) <-
    (match t.worlds.(i) with [] -> [ pcb.pid ] | ws -> ws @ [ pcb.pid ])

and start_pcb t pcb =
  match pcb.state with
  | Dead _ -> ()
  | Embryo -> (
    match pcb.doomed with
    | Some reason -> finalize t pcb (Eliminated reason)
    | None ->
      pcb.state <- Running;
      if wants t Trace.Kind.started then tr t (Trace.Started pcb.pid);
      run_body t pcb)
  | Running | Suspended ->
    failwith
      (Format.asprintf "Engine.start_pcb: process %a (%s) already started"
         Pid.pp pcb.pid pcb.name)

and run_body t pcb =
  let ctx = { engine = t; pcb } in
  let handler =
    {
      Effect.Deep.retc = (fun () -> finalize t pcb Exited_ok);
      exnc =
        (fun e ->
          match e with
          | Process_killed r -> finalize t pcb (Eliminated r)
          | Abort_process r -> finalize t pcb (Exited_failed r)
          | e -> finalize t pcb (Crashed (Printexc.to_string e)));
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | E_suspend s ->
            Some (fun (k : (a, unit) Effect.Deep.continuation) -> suspend t pcb s k)
          | _ -> None);
    }
  in
  Effect.Deep.match_with pcb.body ctx handler

(* Park a process on its wait, unless it was doomed. A CPU park is the
   [Park_cpu] value that both [pcb.park] and the CPU task table hold; it
   allocates no closure. The other waits resume through closures:
   [resume_once] and [cancel_once] over one [armed] cell, so whichever
   runs first wins and a stale waiter (say, on an ivar filled after its
   process was killed) does nothing. Each wait pushes exactly the
   event-queue entries it always has (an untimed receive none, a timed
   wait its one deadline event), since the batch-join rule compares
   [Event_queue.stamp]. A timed wait's deadline resumes it with [None],
   and its wake and its cancel each retire the deadline first, so a
   waiter that is woken or killed never drags the clock to it. The two
   timed waits spell that out rather than share a helper returning the
   pair, which would allocate a tuple per park. The untimed receive parks
   with its resume as its wake: it parks once per message wait, so it
   carries no deadline bookkeeping. A receive parks only after its caller
   found nothing acceptable, and the park does not scan again: a second
   scan would repeat the first one's deferral trace events. *)
and suspend : type a.
    t -> pcb -> a suspension -> (a, unit) Effect.Deep.continuation -> unit =
 fun t pcb s k ->
  match pcb.doomed with
  | Some reason ->
    pcb.doomed <- None;
    Effect.Deep.discontinue k (Process_killed reason)
  | None -> (
    pcb.state <- Suspended;
    match s with
    | S_cpu dt ->
      let p = Park_cpu { pcb; k } in
      pcb.park <- p;
      Cpu.add t.cpu ~now:t.vnow pcb.pid dt p
    | S_recv tag ->
      let armed = ref true in
      pcb.park <-
        Park_recv { tag; wake = resume_once pcb armed k; cancel = cancel_once armed k }
    | S_recv_timeout (tag, timeout) ->
      let armed = ref true in
      let resume = resume_once pcb armed k in
      let ev = schedule_cancellable t ~at:(t.vnow +. timeout) (fun () -> resume None) in
      let wake m =
        cancel_event ev;
        resume (Some m)
      and cancel reason =
        cancel_event ev;
        cancel_once armed k reason
      in
      pcb.park <- Park_recv { tag; wake; cancel }
    | S_fill iv ->
      let armed = ref true in
      pcb.park <- Park_other { cancel = cancel_once armed k };
      iv.waiters <- iv.waiters @ [ resume_once pcb armed k ]
    | S_fill_timeout (iv, timeout) ->
      let armed = ref true in
      let resume = resume_once pcb armed k in
      let ev = schedule_cancellable t ~at:(t.vnow +. timeout) (fun () -> resume None) in
      let wake v =
        cancel_event ev;
        resume (Some v)
      and cancel reason =
        cancel_event ev;
        cancel_once armed k reason
      in
      pcb.park <- Park_other { cancel };
      iv.waiters <- iv.waiters @ [ wake ])

and channel_of pcb ~dest =
  match pcb.last_chan with
  | Some c when Pid.equal c.ch_dest dest -> c
  | _ ->
    let c =
      match find_channel dest pcb.chans with
      | c -> c
      | exception Not_found ->
        let c =
          {
            ch_sender = pcb.pid;
            ch_dest = dest;
            outbox = Mailbox.create ();
            ch_clock =
              (let a = Float.Array.create 2 in
               Float.Array.set a 0 neg_infinity;
               Float.Array.set a 1 0.;
               a);
            ch_open = false;
            ch_watermark = -1;
            ch_epoch = -1;
            ch_upto = { u = 0 };
          }
        in
        pcb.chans <- c :: pcb.chans;
        c
    in
    pcb.last_chan <- Some c;
    c

(* Append one outgoing message to the channel's outbox and make sure a
   flush event will hand it to the receiver at the time the caller just
   stored in [ch_clock.(0)] (passing it through the clock rather than as
   an argument keeps the float unboxed on the join path): join the open
   batch when that is provably order-preserving (same flush time, no
   event scheduled since the batch last grew — the queue's stamp — and
   none executed since it opened — [events_processed], the batch-join
   epoch), otherwise schedule a fresh flush — which takes exactly the
   event-queue slot the per-message delivery used to, so (time, seq)
   order is unchanged. *)
and outbox_push t chan msg =
  Mailbox.push chan.outbox msg;
  let at = Float.Array.unsafe_get chan.ch_clock 0 in
  if
    chan.ch_open
    && Float.Array.unsafe_get chan.ch_clock 1 = at
    && chan.ch_watermark = Event_queue.stamp t.queue
    && chan.ch_epoch = t.events_processed
  then chan.ch_upto.u <- Mailbox.tail_pos chan.outbox
  else begin
    let upto = { u = Mailbox.tail_pos chan.outbox } in
    chan.ch_open <- true;
    Float.Array.unsafe_set chan.ch_clock 1 at;
    chan.ch_upto <- upto;
    schedule t ~at (fun () -> flush_channel t chan upto);
    chan.ch_watermark <- Event_queue.stamp t.queue;
    chan.ch_epoch <- t.events_processed
  end

and do_send t pcb ~dest ~tag payload =
  let predicate =
    (* Certain predicates normalise to themselves; skipping the call keeps
       the fast path free of the `Live wrapper allocation. *)
    if Predicate.is_certain pcb.predicate then pcb.predicate
    else
      match Fate_registry.normalize t.reg pcb.predicate with
      | `Live p -> p
      | `Dead -> pcb.predicate (* the sweep will kill us shortly *)
  in
  let seq = pcb.send_seq in
  pcb.send_seq <- seq + 1;
  let size = Message.header_bytes + Payload.size_bytes payload in
  (* The one value every receiver, trace event and fault hook sees for
     this send. *)
  let msg = { Message.sender = pcb.pid; dest; predicate; payload; tag; seq; size } in
  if wants t Trace.Kind.sent then tr t (Trace.Sent { msg });
  let chan = channel_of pcb ~dest in
  (* Per-(sender, logical dest) FIFO: never deliver before an earlier send.
     The cost expression is inlined (rather than calling
     [Cost_model.message_cost]) so the float stays unboxed in this frame. *)
  let at =
    let earliest =
      t.vnow
      +. t.model_.Cost_model.msg_latency
      +. (float_of_int size *. t.model_.Cost_model.msg_per_byte)
    in
    let last = Float.Array.unsafe_get chan.ch_clock 0 in
    if last > earliest then last else earliest
  in
  match t.msg_fault with
  | None ->
    Float.Array.unsafe_set chan.ch_clock 0 at;
    outbox_push t chan msg
  | Some f -> (
    let inject kind =
      if wants t Trace.Kind.injected then
        tr t (Trace.Injected { kind; pid = None; msg = Some msg })
    in
    match f msg with
    | F_deliver ->
      Float.Array.unsafe_set chan.ch_clock 0 at;
      outbox_push t chan msg
    | F_drop ->
      (* The send happened; the network lost it. The channel clock still
         advances so that later sends keep their fault-free schedule. *)
      Float.Array.unsafe_set chan.ch_clock 0 at;
      inject "drop"
    | F_duplicate ->
      Float.Array.unsafe_set chan.ch_clock 0 at;
      inject "duplicate";
      (* Two entries sharing one immutable value: consuming one copy
         cannot touch the other, and a world split's physical-identity
         filter removes both as a single logical send. *)
      outbox_push t chan msg;
      outbox_push t chan msg
    | F_delay extra ->
      (* Extra latency that also holds back later sends on the channel:
         per-sender FIFO is preserved, everything just arrives late. The
         message bypasses the outbox (its time would break the outbox's
         monotone order) and is delivered directly. *)
      let at = at +. Float.max 0. extra in
      Float.Array.unsafe_set chan.ch_clock 0 at;
      inject "delay";
      schedule t ~at (fun () -> deliver_msg t msg)
    | F_reorder extra ->
      (* Extra latency that does NOT advance the channel clock: a later
         send may overtake this message — a genuine FIFO violation. *)
      Float.Array.unsafe_set chan.ch_clock 0 at;
      inject "reorder";
      schedule t ~at:(at +. Float.max 0. extra) (fun () -> deliver_msg t msg))

(* Hand every entry of one delivery batch to every world copy of its
   destination, then rescan each copy once. The rule is the same whoever
   watches: no user code runs before the rescan, so no receiver can see a
   batch half-delivered, and every [Delivered] event and delivery-fault
   verdict of the batch precedes the first acceptance. How the entries
   move is chosen from what the engine can see: a single copy with no
   delivery-fault hook takes the whole batch in one [transfer_upto]
   (O(1) when it adopts into an empty ring); anything else offers each
   entry to each copy in turn. *)
and flush_channel t chan upto =
  if chan.ch_open && chan.ch_upto == upto then chan.ch_open <- false;
  let outbox = chan.outbox and dest = chan.ch_dest in
  if wants t Trace.Kind.delivered_batch then begin
    let n = upto.u - Mailbox.head_pos outbox in
    if n > 1 then
      tr t (Trace.Delivered_batch { sender = chan.ch_sender; dest; count = n })
  end;
  (match (t.delivery_fault, world_copies t dest) with
  | None, [] -> drain_batch_to t outbox upto dest
  | None, [ pid ] -> drain_batch_to t outbox upto pid
  | _ ->
    let copies = receivers t dest in
    while Mailbox.head_pos outbox < upto.u do
      let pos = Mailbox.head_pos outbox in
      offer_entry t (Mailbox.message_at outbox pos) copies;
      Mailbox.remove outbox pos
    done);
  rescan_worlds t dest

(* The single-copy bulk move: the destination is looked up once for the
   whole batch (liveness cannot change mid-drain). *)
and drain_batch_to t outbox upto pid =
  match find_pcb t pid with
  | Some pcb when is_alive pcb ->
    if wants t Trace.Kind.delivered then
      for pos = Mailbox.head_pos outbox to upto.u - 1 do
        tr t (Trace.Delivered { dest = pid; msg = Mailbox.message_at outbox pos })
      done;
    Mailbox.transfer_upto outbox ~upto:upto.u pcb.mailbox
  | _ -> Mailbox.drop_upto outbox ~upto:upto.u

(* Offer one message to each world copy in turn (a direct loop: a
   closure over the message would allocate per entry). The delivery-fault
   hook is asked per copy at delivery time, so a site crash or partition
   that comes up while the message is in flight still loses it; the hook
   records its own trace events. Every copy that takes the message
   shares the one immutable value. *)
and offer_entry t msg = function
  | [] -> ()
  | pid :: rest ->
    (match find_pcb t pid with
    | Some pcb when is_alive pcb ->
      if match t.delivery_fault with None -> true | Some f -> f msg ~dest:pid
      then begin
        Mailbox.push pcb.mailbox msg;
        if wants t Trace.Kind.delivered then
          tr t (Trace.Delivered { dest = pid; msg })
      end
    | _ -> ());
    offer_entry t msg rest

(* The copies a delivery is offered to: a ghost destination (never
   spawned, or the physical pid of a clone) stands for itself. *)
and receivers t dest = match world_copies t dest with [] -> [ dest ] | l -> l

and rescan_worlds t dest =
  match world_copies t dest with
  | [] -> rescan_world_copy t dest
  | [ pid ] -> rescan_world_copy t pid
  | pids -> List.iter (fun pid -> rescan_world_copy t pid) pids

and rescan_world_copy t pid =
  match find_pcb t pid with
  | None -> ()
  | Some pcb -> if is_alive pcb then rescan_parked t pcb

(* Delayed or reordered fault injections bypass the outbox but take the
   same tail: offered to every copy, which are then rescanned once. *)
and deliver_msg t (msg : Message.t) =
  let dest = msg.Message.dest in
  offer_entry t msg (receivers t dest);
  rescan_worlds t dest

(* ------------------------------------------------------------------ *)
(* Public spawning / running.                                          *)

let fresh_pids t n = List.init n (fun _ -> alloc_pid t)

let spawn t ?pid ?parent ?(predicate = Predicate.empty) ?space
    ?(cloneable = true) ?(oblivious = false) ?(start_delay = 0.)
    ?(name = "proc") ?site body =
  let pid =
    match pid with
    | None -> alloc_pid t
    | Some p ->
      (* Only a pid this engine issued: a forged one would later collide
         with the allocator's own, and would size the tables. *)
      if not (Pid.Allocator.issued t.alloc p) then
        invalid_arg "Engine.spawn: pid not issued by this engine";
      p
  in
  (match parent with
  | Some pp -> Option.iter disable_cloning (find_pcb t pp)
  | None -> ());
  let pcb =
    make_pcb t ~pid ~logical:pid ~parent ~name ~predicate ~space ~cloneable
      ~oblivious ~body
  in
  register_world t pcb;
  t.live <- t.live + 1;
  assign_site t pcb ~explicit:site;
  if wants t Trace.Kind.spawned then tr t (Trace.Spawned { pid; parent; name });
  (match t.spawn_hook with Some h -> h pid name | None -> ());
  schedule t ~at:(t.vnow +. start_delay) (fun () -> start_pcb t pcb);
  pid

let on_exit t pid f =
  match find_pcb t pid with
  | None -> invalid_arg "Engine.on_exit: unknown pid"
  | Some pcb -> (
    match pcb.state with
    | Dead st -> f st
    | _ -> pcb.exit_watchers <- f :: pcb.exit_watchers)

let on_resolution t pid f =
  match find_pcb t pid with
  | None -> invalid_arg "Engine.on_resolution: unknown pid"
  | Some pcb -> (
    match Fate_registry.normalize t.reg pcb.predicate with
    | `Dead -> f `Dead
    | `Live p when Predicate.is_certain p && is_alive pcb -> f `Certain
    | _ -> (
      match pcb.state with
      | Dead (Exited_ok) -> pcb.res_watchers <- f :: pcb.res_watchers
      | Dead _ -> f `Dead
      | _ -> pcb.res_watchers <- f :: pcb.res_watchers))

let preserve_space t pid =
  match find_pcb t pid with
  | None -> invalid_arg "Engine.preserve_space: unknown pid"
  | Some pcb -> pcb.preserve_space <- true

let after t ~delay thunk = schedule t ~at:(t.vnow +. delay) thunk

let run t =
  t.stopped <- false;
  let q = t.queue in
  while (not t.stopped) && not (Event_queue.is_empty q) do
    let time = Event_queue.min_time q in
    let ev = Event_queue.pop_min q in
    if not ev.dead_ev then begin
      t.vnow <- Float.max t.vnow time;
      t.events_processed <- t.events_processed + 1;
      if ev == cpu_tick_event then cpu_tick t else ev.run_ev ()
    end
  done

let run_for t duration =
  schedule t ~at:(t.vnow +. duration) (fun () -> t.stopped <- true);
  run t

(* ------------------------------------------------------------------ *)
(* In-process operations.                                              *)

(* Everything here runs on the caller's own stack and performs an effect
   only to park. Raising [Process_killed] / [Replay_divergence] directly is
   equivalent to the handler's [discontinue]: we are already inside the
   fiber, and the exception unwinds to [run_body]'s [exnc] either way. A
   receive that parked logs what it got as soon as the park returns:
   nothing runs between the handler's [continue] and that step, so the
   log is the same as if the handler wrote it. *)

let check_doomed pcb =
  match pcb.doomed with
  | Some reason ->
    pcb.doomed <- None;
    raise (Process_killed reason)
  | None -> ()

(* A NaN wait would reach the event queue, which refuses it out of [run]. *)
let check_duration fn d = if Float.is_nan d then invalid_arg (fn ^ ": NaN duration")

let self ctx = ctx.pcb.pid
let engine ctx = ctx.engine

let now_v ctx =
  let pcb = ctx.pcb in
  check_doomed pcb;
  match replay_next pcb with
  | Some (L_now v) -> v
  | Some _ -> raise (Replay_divergence "expected now")
  | None ->
    let v = ctx.engine.vnow in
    log_push pcb (L_now v);
    v

let delay ctx dt =
  let pcb = ctx.pcb in
  check_doomed pcb;
  check_duration "Engine.delay" dt;
  match replay_next pcb with
  | Some (L_delay _) -> ()
  | Some _ -> raise (Replay_divergence "expected delay")
  | None ->
    log_push pcb (L_delay dt);
    if dt <= 0. then () else Effect.perform (E_suspend (S_cpu dt))

let space ctx = ctx.pcb.space

let charge_memory ctx =
  match ctx.pcb.space with
  | None -> ()
  | Some sp ->
    let c = Address_space.drain_cost sp in
    if c > 0. then delay ctx c

let send ctx ?(tag = "") dest payload =
  let pcb = ctx.pcb in
  check_doomed pcb;
  match replay_next pcb with
  | Some L_sent -> ()
  | Some _ -> raise (Replay_divergence "expected send")
  | None ->
    log_push pcb L_sent;
    do_send ctx.engine pcb ~dest ~tag payload

let receive ctx ?tag () =
  let pcb = ctx.pcb in
  check_doomed pcb;
  match replay_next pcb with
  | Some (L_recv m) -> m
  | Some _ -> raise (Replay_divergence "expected receive")
  | None ->
    let m = try_receive ctx.engine pcb tag in
    let m =
      if m != Mailbox.no_message then m else Effect.perform (E_suspend (S_recv tag))
    in
    log_push pcb (L_recv m);
    m

let receive_timeout ctx ?tag ~timeout () =
  let pcb = ctx.pcb in
  check_doomed pcb;
  check_duration "Engine.receive_timeout" timeout;
  match replay_next pcb with
  | Some (L_recv_opt r) -> r
  | Some _ -> raise (Replay_divergence "expected receive_timeout")
  | None ->
    let m = try_receive ctx.engine pcb tag in
    let r =
      if m != Mailbox.no_message then Some m
      else if timeout <= 0. then
        (* Poll-only: nothing acceptable is queued right now, report that
           immediately without parking. *)
        None
      else Effect.perform (E_suspend (S_recv_timeout (tag, timeout)))
    in
    log_push pcb (L_recv_opt r);
    r

let cpu_time_of t pid = Cpu.used t.cpu pid
let total_cpu_time t = Cpu.total t.cpu

let logical_of t pid = Option.map (fun p -> p.logical) (find_pcb t pid)
let space_of t pid = Option.bind (find_pcb t pid) (fun p -> p.space)
let name_of t pid = Option.map (fun p -> p.name) (find_pcb t pid)
let site_of t pid = Option.bind (find_pcb t pid) (fun p -> p.site)

let children_of t pid =
  pids_where t (fun pcb ->
      match pcb.parent with Some p -> Pid.equal p pid | None -> false)

let certain_of t pid =
  match Fate_registry.fate t.reg pid with
  | Some Predicate.Completed -> true
  | Some Predicate.Failed -> false
  | None -> (
    match find_pcb t pid with
    | None -> false
    | Some pcb -> (
      match Fate_registry.normalize t.reg pcb.predicate with
      | `Live p -> Predicate.is_certain p
      | `Dead -> false))
let abort _ctx reason = raise (Abort_process reason)

let random_bits ctx =
  let pcb = ctx.pcb in
  check_doomed pcb;
  match replay_next pcb with
  | Some (L_random v) -> v
  | Some _ -> raise (Replay_divergence "expected random")
  | None ->
    if pcb.rng == no_rng then
      pcb.rng <- Rng.stream ~seed:ctx.engine.root_seed ~key:(Pid.to_int pcb.pid);
    let v = Rng.bits64 pcb.rng in
    log_push pcb (L_random v);
    v

let my_predicate ctx = ctx.pcb.predicate

let is_certain ctx =
  match Fate_registry.normalize ctx.engine.reg ctx.pcb.predicate with
  | `Live p -> Predicate.is_certain p
  | `Dead -> false

module Ivar = struct
  type 'a t = 'a ivar

  let create () = { value = None; waiters = [] }

  let try_fill iv v =
    match iv.value with
    | Some _ -> false
    | None ->
      iv.value <- Some v;
      let ws = iv.waiters in
      iv.waiters <- [];
      List.iter (fun w -> w v) ws;
      true

  let is_filled iv = iv.value <> None
  let peek iv = iv.value

  let read ctx iv =
    disable_cloning ctx.pcb;
    match iv.value with
    | Some v -> v
    | None -> Effect.perform (E_suspend (S_fill iv))

  let read_timeout ctx iv ~timeout =
    check_duration "Engine.Ivar.read_timeout" timeout;
    disable_cloning ctx.pcb;
    match iv.value with
    | Some _ as r -> r
    | None when timeout <= 0. ->
      (* Poll-only: report the current state without parking. *)
      None
    | None -> Effect.perform (E_suspend (S_fill_timeout (iv, timeout)))
end
