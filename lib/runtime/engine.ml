type cores = Infinite | Cores of int

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

type cpu_task = { mutable remaining : float; resume : unit -> unit }

type park =
  | Park_recv of {
      tag : string option;
      wake : Message.t -> unit;
      cancel : string -> unit;
    }
  | Park_ivar of { cancel : string -> unit }
  | Park_cpu of { task : cpu_task; cancel : string -> unit }

type pcb = {
  pid : Pid.t;
  logical : Pid.t;
  parent : Pid.t option;
  name : string;
  body : ctx -> unit;
  mutable state : proc_state;
  mutable park : park option;
  mutable predicate : Predicate.t;
  space : Address_space.t option;
  mutable mailbox : Mailbox.t;  (* ring of frames, arrival order *)
  mutable last_chan : channel option;  (* last outbound channel, a cache *)
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
  rng : Rng.t;
      (* Per-process SplitMix64 stream, keyed (root seed, pid): a
         process's draws depend on nothing but its own identity, not on
         how many other processes drew before it. *)
}

and ctx = { engine : t; pcb : pcb }

and event = { mutable dead_ev : bool; run_ev : unit -> unit }

(* One (sender, logical dest) messaging channel: the per-sender FIFO
   clock, a ring-buffer outbox of in-flight frames, and the state of the
   currently open delivery batch.

   A batch is a single scheduled event that will hand a contiguous run of
   outbox frames to the receiver in one step. A later send may join the
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

and t = {
  mutable vnow : float;
  queue : event Event_queue.t;  (* (time, stamp) order *)
  root_seed : int;
  procs : (Pid.t, pcb) Hashtbl.t;
  worlds : (Pid.t, Pid.t list ref) Hashtbl.t;  (* logical pid -> copies *)
  alloc : Pid.Allocator.t;
  reg : Fate_registry.t;
  store : Frame_store.t;
  model_ : Cost_model.t;
  cores : cores;
  trace_ : Trace.t;
  cpu_tasks : (Pid.t, cpu_task) Hashtbl.t;
  cpu_used : (Pid.t, float ref) Hashtbl.t;
  mutable cpu_gen : int;
  mutable cpu_last : float;
  mutable cpu_tick_ev : event option;
  channels : (Pid.t * Pid.t, channel) Hashtbl.t;
  mutable next_uid : int;  (* engine-global send identity *)
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

(* Send and the receive fast paths no longer go through effects at all:
   [send] runs entirely in the caller's frame, and [receive] /
   [receive_timeout] only perform an effect to park when nothing in the
   mailbox is acceptable right now. *)
type _ Effect.t +=
  | E_delay : float -> unit Effect.t
  | E_now : float Effect.t
  | E_recv : string option -> Message.t Effect.t
  | E_recv_timeout : string option * float -> Message.t option Effect.t
  | E_random : int64 Effect.t
  | E_park : (wake:(unit -> unit) -> unit) -> unit Effect.t

let create ?(cores = Infinite) ?(model = Cost_model.uniform ()) ?(seed = 42)
    ?(trace = true) ?(shards = 1) () =
  (* [shards] is a compatibility argument for the profiling harness in
     bench/profile, which still passes [~shards:1]. *)
  if shards <> 1 then invalid_arg "Engine.create: shards must be 1";
  {
    vnow = 0.;
    queue = Event_queue.create ();
    root_seed = seed;
    procs = Hashtbl.create 64;
    worlds = Hashtbl.create 64;
    alloc = Pid.Allocator.create ();
    reg = Fate_registry.create ();
    store = Frame_store.create ~page_size:model.Cost_model.page_size;
    model_ = model;
    cores;
    trace_ = Trace.create ~enabled:trace ();
    cpu_tasks = Hashtbl.create 16;
    cpu_used = Hashtbl.create 64;
    cpu_gen = 0;
    cpu_last = 0.;
    cpu_tick_ev = None;
    channels = Hashtbl.create 64;
    next_uid = 0;
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

let status_string = function
  | Exited_ok -> "ok"
  | Exited_failed r -> "failed: " ^ r
  | Crashed r -> "crashed: " ^ r
  | Eliminated r -> "eliminated: " ^ r

let proc_state_string = function
  | Embryo -> "embryo"
  | Running -> "running"
  | Suspended -> "suspended"
  | Dead st -> "dead (" ^ status_string st ^ ")"

(* ------------------------------------------------------------------ *)
(* CPU: egalitarian processor sharing over [cores] processors.         *)

let cpu_rate t =
  let n = Hashtbl.length t.cpu_tasks in
  if n = 0 then 1.0
  else
    match t.cores with
    | Infinite -> 1.0
    | Cores c -> Float.min 1.0 (float_of_int c /. float_of_int n)

let charge_cpu_used t pid amount =
  match Hashtbl.find_opt t.cpu_used pid with
  | Some r -> r := !r +. amount
  | None -> Hashtbl.replace t.cpu_used pid (ref amount)

let cpu_update t =
  let elapsed = t.vnow -. t.cpu_last in
  if elapsed > 0. then begin
    let rate = cpu_rate t in
    Hashtbl.iter
      (fun pid task ->
        task.remaining <- task.remaining -. (elapsed *. rate);
        charge_cpu_used t pid (elapsed *. rate))
      t.cpu_tasks
  end;
  t.cpu_last <- t.vnow

let rec cpu_reschedule t =
  t.cpu_gen <- t.cpu_gen + 1;
  (match t.cpu_tick_ev with
  | Some ev ->
    cancel_event ev;
    t.cpu_tick_ev <- None
  | None -> ());
  if Hashtbl.length t.cpu_tasks > 0 then begin
    let gen = t.cpu_gen in
    let rate = cpu_rate t in
    let min_rem =
      Hashtbl.fold
        (fun _ task acc -> Float.min acc (Float.max 0. task.remaining))
        t.cpu_tasks infinity
    in
    let at = t.vnow +. (min_rem /. rate) in
    t.cpu_tick_ev <- Some (schedule_cancellable t ~at (fun () -> cpu_tick t gen))
  end

and cpu_tick t gen =
  if gen = t.cpu_gen then begin
    cpu_update t;
    let done_ =
      Hashtbl.fold
        (fun pid task acc -> if task.remaining <= 1e-12 then (pid, task) :: acc else acc)
        t.cpu_tasks []
    in
    let done_ = List.sort (fun (a, _) (b, _) -> Pid.compare a b) done_ in
    List.iter (fun (pid, _) -> Hashtbl.remove t.cpu_tasks pid) done_;
    cpu_reschedule t;
    List.iter (fun (_, task) -> task.resume ()) done_
  end

let cpu_add t pid task =
  cpu_update t;
  Hashtbl.replace t.cpu_tasks pid task;
  cpu_reschedule t

let cpu_remove t pid =
  if Hashtbl.mem t.cpu_tasks pid then begin
    cpu_update t;
    Hashtbl.remove t.cpu_tasks pid;
    cpu_reschedule t
  end

(* ------------------------------------------------------------------ *)
(* Process table helpers.                                              *)

let find_pcb t pid = Hashtbl.find_opt t.procs pid

let is_alive pcb = match pcb.state with Dead _ -> false | _ -> true

let alive t pid = match find_pcb t pid with Some p -> is_alive p | None -> false

let status t pid =
  match find_pcb t pid with
  | Some { state = Dead s; _ } -> Some s
  | _ -> None

let predicate_of t pid = Option.map (fun p -> p.predicate) (find_pcb t pid)

let live_count t = t.live

let parked_pids t =
  Hashtbl.fold
    (fun pid pcb acc -> if is_alive pcb && pcb.park <> None then pid :: acc else acc)
    t.procs []
  |> List.sort Pid.compare

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
    pcb.park <- None;
    cpu_remove t pcb.pid;
    if not pcb.preserve_space then Option.iter Address_space.release pcb.space;
    t.live <- t.live - 1;
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
    tr t (Trace.Fate { pid; fate }));
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
      | None ->
        (* Runnable (start scheduled): doom it; the start event checks. *)
        pcb.doomed <- Some reason
      | Some (Park_recv { cancel; _ })
      | Some (Park_ivar { cancel })
      | Some (Park_cpu { cancel; _ }) ->
        pcb.park <- None;
        cpu_remove t pcb.pid;
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
      let live =
        Hashtbl.fold (fun _ p acc -> if is_alive p then p :: acc else acc) t.procs []
        |> List.sort (fun a b -> Pid.compare a.pid b.pid)
      in
      List.iter
        (fun pcb ->
          if is_alive pcb then begin
            (match Fate_registry.normalize t.reg pcb.predicate with
            | `Dead ->
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
          end)
        live;
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
       position before it is known to hold no live frame with this tag, so
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
   than an inner closure: the receive fast path allocates nothing. The
   position-indexed accessors hide whether an entry is framed or spilled. *)
and scan_mailbox t pcb ring tag cur blocked pos prefix : Message.t =
  if pos >= Mailbox.tail_pos ring then Mailbox.no_message
  else begin
    t.mailbox_scanned <- t.mailbox_scanned + 1;
    if not (Mailbox.occupied_at ring pos) then begin
      advance_cursor cur pos prefix;
      scan_mailbox t pcb ring tag cur blocked (pos + 1) prefix
    end
    else
      let matches_tag =
        match tag with
        | None -> true
        | Some wanted -> String.equal (Mailbox.tag_at ring pos) wanted
      in
      if not matches_tag then begin
        advance_cursor cur pos prefix;
        scan_mailbox t pcb ring tag cur blocked (pos + 1) prefix
      end
      else if pcb.oblivious then begin
        (* Kernel-level services (consensus voters, devices) accept every
           message: they are part of process management, not of any world. *)
        let m = Mailbox.message_at ring pos in
        if Trace.live t.trace_ then
          tr t (Trace.Accepted { dest = pcb.pid; msg = m; dest_pred = pcb.predicate });
        Mailbox.remove ring pos;
        m
      end
      else if
        (* Empty-list check first: nothing is examined unless a sender has
           actually been deferred during this scan. *)
        (match blocked with
        | [] -> false
        | _ -> List.exists (Pid.equal (Mailbox.sender_at ring pos)) blocked)
      then scan_mailbox t pcb ring tag cur blocked (pos + 1) false
      else begin
        let spred = Mailbox.predicate_at ring pos in
        if Predicate.is_certain spred then begin
          (* The overwhelmingly common case: a sender with no unresolved
             assumptions. Normalisation would return the predicate
             unchanged and the receiver trivially implies it, so accept
             directly without allocating the `Live wrapper. *)
          let m = Mailbox.message_at ring pos in
          if Trace.live t.trace_ then
            tr t
              (Trace.Accepted { dest = pcb.pid; msg = m; dest_pred = pcb.predicate });
          Mailbox.remove ring pos;
          m
        end
        else
          match Fate_registry.normalize t.reg spred with
          | `Dead ->
            (* The sender's world died: the message never happened. *)
            if Trace.live t.trace_ then
              tr t
                (Trace.Ignored
                   {
                     dest = pcb.pid;
                     msg = Mailbox.message_at ring pos;
                     reason = "dead world";
                   });
            Mailbox.remove ring pos;
            advance_cursor cur pos prefix;
            scan_mailbox t pcb ring tag cur blocked (pos + 1) prefix
          | `Live s ->
            if Predicate.implies pcb.predicate s then begin
              let m = Mailbox.message_at ring pos in
              if Trace.live t.trace_ then
                tr t
                  (Trace.Accepted
                     { dest = pcb.pid; msg = m; dest_pred = pcb.predicate });
              Mailbox.remove ring pos;
              m
            end
            else if Predicate.conflicts pcb.predicate s then begin
              if Trace.live t.trace_ then
                tr t
                  (Trace.Ignored
                     {
                       dest = pcb.pid;
                       msg = Mailbox.message_at ring pos;
                       reason = "conflict";
                     });
              Mailbox.remove ring pos;
              advance_cursor cur pos prefix;
              scan_mailbox t pcb ring tag cur blocked (pos + 1) prefix
            end
            else begin
              (* The message requires new assumptions. *)
              match accept_with_split t pcb ring pos s with
              | Some m ->
                Mailbox.remove ring pos;
                m
              | None ->
                (* Keep waiting: do not overtake this sender (FIFO). *)
                scan_mailbox t pcb ring tag cur
                  (Mailbox.sender_at ring pos :: blocked)
                  (pos + 1) false
            end
      end
  end

and advance_cursor cur pos prefix =
  if prefix then
    match cur with None -> () | Some c -> c.Mailbox.cpos <- pos + 1

(* Receiver [pcb] is about to accept the message at [pos] of its ring,
   whose (normalized) sending predicate [s] extends the receiver's
   assumptions. Create the rejecting world as a replay clone, then let
   [pcb] proceed as the accepting world. Returns the accepted message, or
   [None] to defer; the caller removes the entry from the mailbox on
   acceptance. *)
and accept_with_split t pcb ring pos s : Message.t option =
  let sender = Mailbox.sender_at ring pos in
  let reject_pred =
    if Predicate.mem_completes pcb.predicate sender then None
    else Some (Predicate.assume_fails pcb.predicate sender)
  in
  let can_clone = pcb.cloneable in
  match reject_pred with
  | None ->
    (* The receiver already depends on the sender completing; the only new
       assumptions are the sender's own, which acceptance takes on. *)
    let m = Mailbox.message_at ring pos in
    adopt_sender_assumptions t pcb m s;
    Some m
  | Some reject_pred when can_clone ->
    let m = Mailbox.message_at ring pos in
    let clone_pid = Pid.Allocator.fresh t.alloc in
    let clone =
      make_pcb t ~pid:clone_pid ~logical:pcb.logical ~parent:pcb.parent
        ~name:(pcb.name ^ "~world") ~predicate:reject_pred ~space:None
        ~cloneable:true ~oblivious:false ~body:pcb.body
    in
    clone.replay <- List.rev pcb.log;
    clone.log <- pcb.log;
    (* The rejecting world keeps everything except the accepted send —
       keyed by send identity (and by shared message value for spilled
       entries), so an injected duplicate is excluded along with its
       original, exactly like the physical-equality filter on the old
       list mailbox. Framed entries are deep-copied: both worlds may
       consume their copies independently. *)
    clone.mailbox <-
      Mailbox.copy_excluding pcb.mailbox ~uid:(Mailbox.uid_at ring pos) ~msg:m;
    register_world t clone;
    t.live <- t.live + 1;
    (* World copies live wherever the original does: a site crash must take
       every copy of a resident process down with it. *)
    assign_site t clone ~explicit:pcb.site;
    tr t (Trace.Split { original = pcb.pid; clone = clone_pid; on = m });
    (match t.spawn_hook with Some h -> h clone_pid clone.name | None -> ());
    (* Charge the copy as a fork-base-cost start delay for the clone. *)
    schedule t
      ~at:(t.vnow +. t.model_.Cost_model.fork_base)
      (fun () -> start_pcb t clone);
    adopt_sender_assumptions t pcb m s;
    Some m
  | Some _ ->
    (* Not cloneable: fall back to deferring until the sender resolves
       (pessimistic but semantics-preserving). *)
    if Trace.live t.trace_ then
      tr t
        (Trace.Ignored
           {
             dest = pcb.pid;
             msg = Mailbox.message_at ring pos;
             reason = "deferred (receiver not cloneable)";
           });
    None

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
  tr t (Trace.Accepted { dest = pcb.pid; msg = m; dest_pred = pred_at_accept })

and rescan_parked t pcb =
  match pcb.park with
  | Some (Park_recv { tag; wake; _ }) ->
    let m = try_receive t pcb tag in
    if m != Mailbox.no_message then wake m
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Process creation and the effect handler.                            *)

and make_pcb t ~pid ~logical ~parent ~name ~predicate ~space ~cloneable
    ~oblivious ~body =
  if Hashtbl.mem t.procs pid then
    invalid_arg "Engine.spawn: pid already in use";
  let pcb =
    {
      pid;
      logical;
      parent;
      name;
      body;
      state = Embryo;
      park = None;
      predicate;
      space;
      mailbox = Mailbox.create ();
      last_chan = None;
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
      rng = Rng.stream ~seed:t.root_seed ~key:(Pid.to_int pid);
    }
  in
  Hashtbl.replace t.procs pid pcb;
  pcb

and assign_site t pcb ~explicit =
  pcb.site <-
    (match t.site_hook with
    | Some h -> h ~pid:pcb.pid ~parent:pcb.parent ~name:pcb.name ~explicit
    | None -> explicit)

and register_world t pcb =
  match Hashtbl.find_opt t.worlds pcb.logical with
  | Some l -> l := pcb.pid :: !l
  | None -> Hashtbl.replace t.worlds pcb.logical (ref [ pcb.pid ])

and start_pcb t pcb =
  match pcb.state with
  | Dead _ -> ()
  | Embryo -> (
    match pcb.doomed with
    | Some reason -> finalize t pcb (Eliminated reason)
    | None ->
      pcb.state <- Running;
      tr t (Trace.Started pcb.pid);
      run_body t pcb)
  | (Running | Suspended) as st ->
    failwith
      (Format.asprintf "Engine.start_pcb: process %a (%s) already started: %s"
         Pid.pp pcb.pid pcb.name (proc_state_string st))

and run_body t pcb =
  let ctx = { engine = t; pcb } in
  let check_doom : type a. (a, unit) Effect.Deep.continuation -> bool =
   fun k ->
    match pcb.doomed with
    | Some reason ->
      pcb.doomed <- None;
      Effect.Deep.discontinue k (Process_killed reason);
      true
    | None -> false
  in
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
          | E_delay dt ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                if check_doom k then ()
                else begin
                  match replay_next pcb with
                  | Some (L_delay _) -> Effect.Deep.continue k ()
                  | Some _ ->
                    Effect.Deep.discontinue k
                      (Replay_divergence "expected delay")
                  | None ->
                    log_push pcb (L_delay dt);
                    if dt <= 0. then Effect.Deep.continue k ()
                    else begin
                      let armed = ref true in
                      let task =
                        {
                          remaining = dt;
                          resume =
                            (fun () ->
                              if !armed then begin
                                armed := false;
                                pcb.park <- None;
                                pcb.state <- Running;
                                Effect.Deep.continue k ()
                              end);
                        }
                      in
                      let cancel reason =
                        if !armed then begin
                          armed := false;
                          Effect.Deep.discontinue k (Process_killed reason)
                        end
                      in
                      pcb.state <- Suspended;
                      pcb.park <- Some (Park_cpu { task; cancel });
                      cpu_add t pcb.pid task
                    end
                end)
          | E_now ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                if check_doom k then ()
                else begin
                  match replay_next pcb with
                  | Some (L_now v) -> Effect.Deep.continue k v
                  | Some _ ->
                    Effect.Deep.discontinue k (Replay_divergence "expected now")
                  | None ->
                    log_push pcb (L_now t.vnow);
                    Effect.Deep.continue k t.vnow
                end)
          | E_random ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                if check_doom k then ()
                else begin
                  match replay_next pcb with
                  | Some (L_random v) -> Effect.Deep.continue k v
                  | Some _ ->
                    Effect.Deep.discontinue k
                      (Replay_divergence "expected random")
                  | None ->
                    let v = Rng.bits64 pcb.rng in
                    log_push pcb (L_random v);
                    Effect.Deep.continue k v
                end)
          | E_recv tag ->
            (* The caller ([receive]) already ran the replay and mailbox
               fast paths; performing the effect means nothing was
               acceptable, so this handler only parks. Scanning again here
               would both waste the scan and duplicate any Ignored
               (deferral) trace events the first scan recorded. *)
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                if check_doom k then ()
                else begin
                  let armed = ref true in
                  let wake m =
                    if !armed then begin
                      armed := false;
                      pcb.park <- None;
                      pcb.state <- Running;
                      log_push pcb (L_recv m);
                      Effect.Deep.continue k m
                    end
                  in
                  let cancel reason =
                    if !armed then begin
                      armed := false;
                      Effect.Deep.discontinue k (Process_killed reason)
                    end
                  in
                  pcb.state <- Suspended;
                  pcb.park <- Some (Park_recv { tag; wake; cancel })
                end)
          | E_recv_timeout (tag, timeout) ->
            (* Park-only, like [E_recv]: the caller polled already. *)
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                if check_doom k then ()
                else begin
                  let armed = ref true in
                  let timeout_ev = ref None in
                  let disarm () =
                    armed := false;
                    Option.iter cancel_event !timeout_ev
                  in
                  let wake m =
                    if !armed then begin
                      disarm ();
                      pcb.park <- None;
                      pcb.state <- Running;
                      log_push pcb (L_recv_opt (Some m));
                      Effect.Deep.continue k (Some m)
                    end
                  in
                  let timeout_wake () =
                    if !armed then begin
                      disarm ();
                      pcb.park <- None;
                      pcb.state <- Running;
                      log_push pcb (L_recv_opt None);
                      Effect.Deep.continue k None
                    end
                  in
                  let cancel reason =
                    if !armed then begin
                      disarm ();
                      Effect.Deep.discontinue k (Process_killed reason)
                    end
                  in
                  pcb.state <- Suspended;
                  pcb.park <- Some (Park_recv { tag; wake; cancel });
                  timeout_ev :=
                    Some
                      (schedule_cancellable t ~at:(t.vnow +. timeout) (fun () ->
                           timeout_wake ()))
                end)
          | E_park register ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                if check_doom k then ()
                else begin
                  disable_cloning pcb;
                  let armed = ref true in
                  let wake () =
                    if !armed then begin
                      armed := false;
                      pcb.park <- None;
                      pcb.state <- Running;
                      Effect.Deep.continue k ()
                    end
                  in
                  let cancel reason =
                    if !armed then begin
                      armed := false;
                      Effect.Deep.discontinue k (Process_killed reason)
                    end
                  in
                  pcb.state <- Suspended;
                  pcb.park <- Some (Park_ivar { cancel });
                  register ~wake
                end)
          | _ -> None);
    }
  in
  Effect.Deep.match_with pcb.body ctx handler

and channel_of t pcb ~dest =
  match pcb.last_chan with
  | Some c when Pid.equal c.ch_dest dest -> c
  | _ ->
    let key = (pcb.pid, dest) in
    let c =
      match Hashtbl.find_opt t.channels key with
      | Some c -> c
      | None ->
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
        Hashtbl.replace t.channels key c;
        c
    in
    pcb.last_chan <- Some c;
    c

(* Serialise one outgoing message into the channel's outbox (or spill it
   as a heap message when the ring's frame pool is exhausted by a burst)
   and make sure a flush event will hand it to the receiver at the time the
   caller just stored in [ch_clock.(0)] (passing it through the clock
   rather than as an argument keeps the float unboxed on the join path):
   join the open batch when that is provably order-preserving (same flush
   time, no event scheduled since the batch last grew — the queue's stamp
   — and none executed since it opened — [events_processed], the
   batch-join epoch), otherwise schedule a fresh flush — which takes
   exactly the event-queue slot the per-message delivery used to, so
   (time, seq) order is unchanged. *)
and outbox_push t chan ~sender ~predicate ~tag ~seq ~uid ~size ~cached payload
    =
  (if Mailbox.has_frame chan.outbox then
     Frame.fill
       (Mailbox.emplace_frame chan.outbox)
       ~sender ~dest:chan.ch_dest ~predicate ~tag ~seq ~uid ~size ~cached
       payload
   else
     let m =
       match cached with
       | Some m -> m
       | None ->
         { Message.sender; dest = chan.ch_dest; predicate; payload; tag; seq;
           size }
     in
     Mailbox.emplace_spilled chan.outbox m);
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
  let uid = t.next_uid in
  t.next_uid <- uid + 1;
  let size = Message.header_bytes + Payload.size_bytes payload in
  let live = Trace.live t.trace_ in
  (* Materialise a message value only if someone will look at it: the
     trace, a message-fault plan, or a delivery-fault hook. It is threaded
     through the frames as [cached] so every event about this send shares
     one value, exactly like the heap-allocated path did. *)
  let msg =
    if live || t.msg_fault != None || t.delivery_fault != None then
      Some { Message.sender = pcb.pid; dest; predicate; payload; tag; seq; size }
    else None
  in
  (match msg with Some m when live -> tr t (Trace.Sent { msg = m }) | _ -> ());
  let chan = channel_of t pcb ~dest in
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
    outbox_push t chan ~sender:pcb.pid ~predicate ~tag ~seq ~uid ~size
      ~cached:msg payload
  | Some f -> (
    let m = Option.get msg in
    let inject kind = tr t (Trace.Injected { kind; pid = None; msg = Some m }) in
    match f m with
    | F_deliver ->
      Float.Array.unsafe_set chan.ch_clock 0 at;
      outbox_push t chan ~sender:pcb.pid ~predicate ~tag ~seq ~uid ~size
        ~cached:msg payload
    | F_drop ->
      (* The send happened; the network lost it. The channel clock still
         advances so that later sends keep their fault-free schedule. *)
      Float.Array.unsafe_set chan.ch_clock 0 at;
      inject "drop"
    | F_duplicate ->
      Float.Array.unsafe_set chan.ch_clock 0 at;
      inject "duplicate";
      (* Two frames, one send identity, independently serialised bytes:
         consuming (or corrupting) one copy cannot touch the other, but a
         world split still filters both out as a single logical send. *)
      outbox_push t chan ~sender:pcb.pid ~predicate ~tag ~seq ~uid ~size
        ~cached:msg payload;
      outbox_push t chan ~sender:pcb.pid ~predicate ~tag ~seq ~uid ~size
        ~cached:msg payload
    | F_delay extra ->
      (* Extra latency that also holds back later sends on the channel:
         per-sender FIFO is preserved, everything just arrives late. The
         message bypasses the outbox (its time would break the outbox's
         monotone order) and is delivered directly. *)
      let at = at +. Float.max 0. extra in
      Float.Array.unsafe_set chan.ch_clock 0 at;
      inject "delay";
      schedule t ~at (fun () -> deliver_msg t m)
    | F_reorder extra ->
      (* Extra latency that does NOT advance the channel clock: a later
         send may overtake this message — a genuine FIFO violation. *)
      Float.Array.unsafe_set chan.ch_clock 0 at;
      inject "reorder";
      schedule t ~at:(at +. Float.max 0. extra) (fun () -> deliver_msg t m))

(* Hand every entry of one delivery batch to the receiver. When the trace
   is live each entry is delivered, traced and rescanned in turn — byte-for-
   byte the event sequence the per-message engine produced, because the
   batch-join rule guarantees nothing could have ordered between them. When
   nobody is watching the trace (and no delivery-fault hook needs a
   per-copy veto interleaved with world splits), the destination's world
   copies are resolved once, all entries are enqueued, and each copy is
   rescanned once: unobservable (no user code can run mid-drain), and it
   turns n park/wake cycles of a pipelined receiver into one. *)
and flush_channel t chan upto =
  if chan.ch_open && chan.ch_upto == upto then chan.ch_open <- false;
  let outbox = chan.outbox in
  let live = Trace.live t.trace_ in
  if live || t.delivery_fault != None then begin
    if live then begin
      let n = upto.u - Mailbox.head_pos outbox in
      if n > 1 then
        tr t
          (Trace.Delivered_batch
             { sender = chan.ch_sender; dest = chan.ch_dest; count = n })
    end;
    while Mailbox.head_pos outbox < upto.u do
      let pos = Mailbox.head_pos outbox in
      deliver_pos t outbox pos ~dest:chan.ch_dest ~rescan:true;
      Mailbox.remove outbox pos
    done
  end
  else begin
    (match Hashtbl.find t.worlds chan.ch_dest with
    | l -> (
      match !l with
      | [ pid ] -> drain_batch_to t outbox upto pid
      | pids -> (
        while Mailbox.head_pos outbox < upto.u do
          let pos = Mailbox.head_pos outbox in
          List.iter
            (fun pid -> deliver_pos_to t outbox pos pid ~rescan:false)
            (List.rev pids);
          Mailbox.remove outbox pos
        done))
    | exception Not_found -> drain_batch_to t outbox upto chan.ch_dest);
    rescan_worlds t chan.ch_dest
  end

(* The single-world-copy bulk drain: destination pcb looked up once for
   the whole batch (liveness cannot change mid-drain — no user code runs
   until the rescan). *)
and drain_batch_to t outbox upto pid =
  match Hashtbl.find t.procs pid with
  | exception Not_found -> Mailbox.drop_upto outbox ~upto:upto.u
  | pcb ->
    if is_alive pcb then Mailbox.transfer_upto outbox ~upto:upto.u pcb.mailbox
    else Mailbox.drop_upto outbox ~upto:upto.u

(* Move one outbox entry into a destination ring: framed entries are
   deep-copied into a destination frame (or materialised and spilled if
   the destination pool is exhausted); spilled entries share the
   immutable message value, exactly like the old heap path did. *)
and deliver_entry outbox pos dst =
  let fr = Mailbox.frame_at outbox pos in
  if Frame.occupied fr then begin
    if Mailbox.has_frame dst then Frame.copy_into fr (Mailbox.emplace_frame dst)
    else Mailbox.emplace_spilled dst (Frame.message fr)
  end
  else Mailbox.emplace_spilled dst (Mailbox.message_at outbox pos)

(* Deliver one outbox entry to every world copy of its destination. *)
and deliver_pos t outbox pos ~dest ~rescan =
  match Hashtbl.find t.worlds dest with
  | l -> (
    match !l with
    | [ pid ] -> deliver_pos_to t outbox pos pid ~rescan
    | pids ->
      List.iter
        (fun pid -> deliver_pos_to t outbox pos pid ~rescan)
        (List.rev pids))
  | exception Not_found -> deliver_pos_to t outbox pos dest ~rescan

and deliver_pos_to t outbox pos pid ~rescan =
  match Hashtbl.find t.procs pid with
  | exception Not_found -> ()
  | pcb ->
    if is_alive pcb then begin
      let deliverable =
        (* Checked at delivery time, per destination copy: a site crash or
           partition that comes up while the message is in flight still
           loses it. The hook records its own trace events. *)
        match t.delivery_fault with
        | None -> true
        | Some f -> f (Mailbox.message_at outbox pos) ~dest:pid
      in
      if deliverable then begin
        deliver_entry outbox pos pcb.mailbox;
        if Trace.live t.trace_ then
          tr t (Trace.Delivered { dest = pid; msg = Mailbox.message_at outbox pos });
        if rescan then rescan_parked t pcb
      end
    end

and rescan_worlds t dest =
  match Hashtbl.find t.worlds dest with
  | l -> (
    match !l with
    | [ pid ] -> rescan_world_copy t pid
    | pids -> List.iter (fun pid -> rescan_world_copy t pid) (List.rev pids))
  | exception Not_found -> rescan_world_copy t dest

and rescan_world_copy t pid =
  match Hashtbl.find t.procs pid with
  | exception Not_found -> ()
  | pcb -> if is_alive pcb then rescan_parked t pcb

(* Direct delivery for messages that bypass the outbox (delayed/reordered
   fault injections): already materialised, so the message value is shared
   into the receivers' rings via the spill path — one value for every
   copy, exactly as the heap path delivered it. *)
and deliver_msg t (msg : Message.t) =
  let copies =
    match Hashtbl.find_opt t.worlds msg.Message.dest with
    | Some l -> List.rev !l
    | None -> [ msg.Message.dest ]
  in
  List.iter
    (fun pid ->
      match find_pcb t pid with
      | Some pcb when is_alive pcb ->
        let deliverable =
          match t.delivery_fault with None -> true | Some f -> f msg ~dest:pid
        in
        if deliverable then begin
          Mailbox.emplace_spilled pcb.mailbox msg;
          tr t (Trace.Delivered { dest = pid; msg });
          rescan_parked t pcb
        end
      | _ -> ())
    copies

(* ------------------------------------------------------------------ *)
(* Public spawning / running.                                          *)

let fresh_pids t n = List.init n (fun _ -> Pid.Allocator.fresh t.alloc)

let spawn t ?pid ?parent ?(predicate = Predicate.empty) ?space
    ?(cloneable = true) ?(oblivious = false) ?(start_delay = 0.)
    ?(name = "proc") ?site body =
  let pid = match pid with Some p -> p | None -> Pid.Allocator.fresh t.alloc in
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
  tr t (Trace.Spawned { pid; parent; name });
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
  let rec loop () =
    if not t.stopped then
      match Event_queue.pop t.queue with
      | None -> ()
      | Some (time, ev) ->
        if ev.dead_ev then loop ()
        else begin
          t.vnow <- Float.max t.vnow time;
          t.events_processed <- t.events_processed + 1;
          ev.run_ev ();
          loop ()
        end
  in
  loop ()

let run_for t duration =
  schedule t ~at:(t.vnow +. duration) (fun () -> t.stopped <- true);
  run t

(* ------------------------------------------------------------------ *)
(* In-process operations.                                              *)

let self ctx = ctx.pcb.pid
let engine ctx = ctx.engine
let now_v _ctx = Effect.perform E_now
let delay _ctx dt = Effect.perform (E_delay dt)
let space ctx = ctx.pcb.space

let charge_memory ctx =
  match ctx.pcb.space with
  | None -> ()
  | Some sp ->
    let c = Address_space.drain_cost sp in
    if c > 0. then delay ctx c

(* The messaging operations run on the caller's own stack instead of
   performing an effect: [send] never suspends, and the receives only
   perform a (park-only) effect when nothing queued is acceptable. Raising
   [Process_killed] / [Replay_divergence] directly is equivalent to the
   old handler's [discontinue]: we are already inside the fiber, and the
   exception unwinds to [run_body]'s [exnc] either way. *)

let check_doomed pcb =
  match pcb.doomed with
  | Some reason ->
    pcb.doomed <- None;
    raise (Process_killed reason)
  | None -> ()

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
    if m != Mailbox.no_message then begin
      log_push pcb (L_recv m);
      m
    end
    else Effect.perform (E_recv tag)

let receive_timeout ctx ?tag ~timeout () =
  let pcb = ctx.pcb in
  check_doomed pcb;
  match replay_next pcb with
  | Some (L_recv_opt r) -> r
  | Some _ -> raise (Replay_divergence "expected receive_timeout")
  | None ->
    let m = try_receive ctx.engine pcb tag in
    if m != Mailbox.no_message then begin
      log_push pcb (L_recv_opt (Some m));
      Some m
    end
    else if timeout <= 0. then begin
      (* Poll-only: nothing acceptable is queued right now, report that
         immediately without parking. *)
      log_push pcb (L_recv_opt None);
      None
    end
    else Effect.perform (E_recv_timeout (tag, timeout))

let cpu_time_of t pid =
  match Hashtbl.find_opt t.cpu_used pid with Some r -> !r | None -> 0.

let total_cpu_time t = Hashtbl.fold (fun _ r acc -> acc +. !r) t.cpu_used 0.

let logical_of t pid = Option.map (fun p -> p.logical) (find_pcb t pid)
let space_of t pid = Option.bind (find_pcb t pid) (fun p -> p.space)
let name_of t pid = Option.map (fun p -> p.name) (find_pcb t pid)
let site_of t pid = Option.bind (find_pcb t pid) (fun p -> p.site)

let children_of t pid =
  Hashtbl.fold
    (fun cpid pcb acc ->
      match pcb.parent with
      | Some p when Pid.equal p pid -> cpid :: acc
      | _ -> acc)
    t.procs []
  |> List.sort Pid.compare

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
let random_bits _ctx = Effect.perform E_random
let my_predicate ctx = ctx.pcb.predicate

let is_certain ctx =
  match Fate_registry.normalize ctx.engine.reg ctx.pcb.predicate with
  | `Live p -> Predicate.is_certain p
  | `Dead -> false

module Ivar = struct
  type 'a t = { mutable value : 'a option; mutable waiters : (unit -> unit) list }

  let create () = { value = None; waiters = [] }

  let try_fill iv v =
    match iv.value with
    | Some _ -> false
    | None ->
      iv.value <- Some v;
      let ws = iv.waiters in
      iv.waiters <- [];
      List.iter (fun w -> w ()) ws;
      true

  let is_filled iv = iv.value <> None
  let peek iv = iv.value

  let read ctx iv =
    disable_cloning ctx.pcb;
    match iv.value with
    | Some v -> v
    | None -> (
      Effect.perform (E_park (fun ~wake -> iv.waiters <- iv.waiters @ [ wake ]));
      match iv.value with
      | Some v -> v
      | None ->
        failwith
          (Format.asprintf
             "Engine.Ivar.read: process %a (%s, %s) woken with the ivar still \
              empty"
             Pid.pp ctx.pcb.pid ctx.pcb.name
             (proc_state_string ctx.pcb.state)))

  let read_timeout ctx iv ~timeout =
    disable_cloning ctx.pcb;
    match iv.value with
    | Some v -> Some v
    | None when timeout <= 0. ->
      (* Poll-only: report the current state without parking. *)
      None
    | None ->
      let eng = ctx.engine in
      Effect.perform
        (E_park
           (fun ~wake ->
             let ev =
               schedule_cancellable eng ~at:(eng.vnow +. timeout) (fun () ->
                   wake ())
             in
             (* A fill arriving first retires the pending timeout event so
                it cannot drag the virtual clock to the deadline. *)
             iv.waiters <-
               iv.waiters
               @ [
                   (fun () ->
                     cancel_event ev;
                     wake ());
                 ]));
      iv.value
end
