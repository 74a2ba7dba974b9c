type cores = Cpu.cores = Infinite | Cores of int

type exit_status =
  | Exited_ok
  | Exited_failed of string
  | Crashed of string
  | Eliminated of string

exception Process_killed of string
exception Abort_process of string
exception Replay_divergence of string

type proc_state =
  | Embryo
  | Running
  | Suspended
  | Dead of exit_status

(* A process's control block, which is also its bodies' [ctx]: a start
   builds no context record. *)
type pcb = {
  pid : Pid.t;
  logical : Pid.t;
  parent : Pid.t option;
  name : string;
  engine : t;
  body : ctx -> unit;
  mutable state : proc_state;
  mutable park : park;
  mutable predicate : Predicate.t;
  space : Address_space.t option;
  mutable mailbox : Mailbox.t;
      (* Ring of messages, arrival order: {!Mailbox.none} until the first
         delivery. *)
  mutable sent_to : int array;
  mutable sent_at : floatarray;
      (* The per-(sender, logical dest) FIFO clock: the last delivery time
         scheduled to pid [sent_to.(i)] (see [clock_slot]). Empty until
         the first send. *)
  born : int;  (* spawn order within the engine: the sweep's snapshot key *)
  mutable doomed : string option;
  mutable log : World.log;  (* {!World.not_cloneable} once it cannot split *)
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

(* How a process is parked: what it waits for and its continuation,
   plain data with no closure. [kill] discontinues [k]. Whatever else
   resumes a park (a finished CPU slice, a fill, a rescan, a deadline)
   continues [k] only while [pcb.park] is still physically that value
   (the one-shot guard), so a stale waker does nothing. A timed park's
   deadline is the event-queue entry whose handle is the pid; the
   resumption that wins clears it. The fill parks are GADT constructors
   over the ivar's type: [iv] holds the value that [k] takes. *)
and park =
  | No_park
  | Park_cpu of { pcb : pcb; k : (unit, unit) Effect.Deep.continuation }
  | Park_recv of { tag : string option; k : (Message.t, unit) Effect.Deep.continuation }
  | Park_recv_timed of {
      tag : string option;
      k : (Message.t option, unit) Effect.Deep.continuation;
    }
  | Park_fill : {
      pcb : pcb;
      iv : 'a ivar;
      k : ('a, unit) Effect.Deep.continuation;
    }
      -> park
  | Park_fill_timed : {
      eng : t;
      pcb : pcb;
      iv : 'a ivar;
      k : ('a option, unit) Effect.Deep.continuation;
    }
      -> park

(* A write-once cell; [waiters] are the fill parks made on it, in park
   order. *)
and 'a ivar = { mutable value : 'a option; mutable waiters : park list }

and ctx = pcb

(* What the event queue holds: data, dispatched by [run]. A [Deliver]
   carries one sent message to every world copy of its logical
   destination, [msg.dest]: each send (and each copy an injected
   duplicate makes) is its own event, at the time its (sender, logical
   dest) FIFO clock assigns. A process has no deadline before it starts,
   so its start takes its pid's handle too. *)
and event =
  | Tick  (* the CPU's, in the queue's slot *)
  | Deadline  (* a timed wait's, keyed by its pid *)
  | Start  (* a spawned process's first run, keyed by its pid *)
  | Deliver of Message.t
  | Thunk of (unit -> unit)

and fault_action =
  | F_deliver
  | F_drop
  | F_delay of float
  | F_duplicate
  | F_reorder of float

(* The process table is an array indexed by the pid: pids are the dense
   ints this engine's allocator hands out from 0, and the array is grown
   as pids are issued ([alloc_pid]), so its length always covers every
   issued pid. A pid issued but never spawned holds [no_pcb], this
   engine's sentinel, which is never started, parked or written. *)
and t = {
  clock : floatarray;
      (* [clock.(Cpu.now_slot)] is the virtual time and
         [clock.(Cpu.demand_slot)] the time operand of the park effect
         being performed: the CPU time of [E_cpu], the timeout of
         [E_recv_timed] and [E_fill_timed]. A cell the CPU shares, so that
         neither advancing the clock nor parking boxes a float. *)
  queue : event Event_queue.t;  (* (time, stamp) order *)
  mutable root_seed : int;
  mutable procs : pcb array;
  no_pcb : pcb;
  worlds : World.t;  (* logical pid -> its world copies, once it split *)
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
  mutable events_processed : int;
  mutable live : int;
  mutable deferred : pcb list;  (* exited ok, fate deferred on predicates *)
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
  mutable handler : (unit, unit) Effect.Deep.handler option;
      (* Every body's handler, built at the first start: it reads the
         process from [running], not from its closures. *)
  mutable running : int;
      (* The pid of the process whose fiber last handed control to the
         handler, -1 before any. A body sets it just before it performs a
         park ([park_as]) and its fiber just before it returns or raises
         ([run_fiber]); the handler reads it at once, before any other
         fiber can run. So fibers entered from inside another (a fill's
         waiter, a kill's victim) never see each other's value, and no
         entry has to set or restore it. An int, so that setting it is a
         plain store, not a write barrier. *)
  mutable park_tag : string option;
      (* The tag operand of the receive park being performed. *)
}

(* The engine's effects, all of them parks. The CPU wait and the two
   receives are constants whose operands travel in the clock cell and
   [park_tag], so performing one builds nothing; a fill wait names its
   ivar, and a timed one's timeout travels in the clock cell too. Every
   body operation that cannot block (send, now_v, random_bits, the
   receive fast paths, the doom, replay and log steps) runs on the
   caller's own stack. *)
type _ Effect.t +=
  | E_cpu : unit Effect.t
  | E_recv : Message.t Effect.t
  | E_recv_timed : Message.t option Effect.t
  | E_fill : 'a ivar -> 'a Effect.t
  | E_fill_timed : 'a ivar -> 'a option Effect.t

let initial_pids = 16

(* Sentinel: a generator never drawn from (a pcb's stream before its
   first draw). *)
let no_rng = Rng.create ~seed:0

let set_message_fault t f = t.msg_fault <- f
let set_spawn_hook t f = t.spawn_hook <- f
let set_site_hook t f = t.site_hook <- f
let set_delivery_fault t f = t.delivery_fault <- f

let now t = Float.Array.unsafe_get t.clock Cpu.now_slot
let set_now t v = Float.Array.unsafe_set t.clock Cpu.now_slot v
let set_park_time t v = Float.Array.unsafe_set t.clock Cpu.demand_slot v
let park_time t = Float.Array.unsafe_get t.clock Cpu.demand_slot
let model t = t.model_
let frame_store t = t.store
let trace t = t.trace_
let registry t = t.reg
let stats_events_processed t = t.events_processed
let stats_mailbox_scanned t = t.mailbox_scanned

let schedule t ~at thunk = Event_queue.push t.queue ~time:(Float.max at (now t)) thunk

let schedule_start t ~at pcb =
  Event_queue.set_handle t.queue (Pid.to_int pcb.pid) ~time:(Float.max at (now t)) Start

let tr t e = Trace.record t.trace_ ~time:(now t) e

(* Whether some trace subscriber reads events of kind [k]: tested before
   an event is built, so a kind nobody reads costs no allocation. *)
let wants t k = Trace.wants t.trace_ k

let status_string = function
  | Exited_ok -> "ok"
  | Exited_failed r -> "failed: " ^ r
  | Crashed r -> "crashed: " ^ r
  | Eliminated r -> "eliminated: " ^ r

(* The pcb whose fiber handed control to the handler (see [running]). *)
let running_pcb t =
  let pcb = t.procs.(t.running) in
  if pcb == t.no_pcb then invalid_arg "Engine: no running process";
  pcb

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

let cpu_tick t =
  for i = 0 to Cpu.tick t.cpu - 1 do
    resume_slice (Cpu.take_finished t.cpu i)
  done

(* A timed wait's deadline is the queue entry keyed by its pid. An
   infinite timeout sets none: the wait parks exactly like an untimed
   one. *)
let set_deadline t pcb timeout =
  if timeout < infinity then
    Event_queue.set_handle t.queue (Pid.to_int pcb.pid) ~time:(now t +. timeout)
      Deadline

let clear_deadline t pcb = Event_queue.clear_handle t.queue (Pid.to_int pcb.pid)

(* Take a process off its wait, and its deadline out of the queue if it
   has one, then continue or discontinue the wait's [k]. *)
let unpark t pcb =
  pcb.park <- No_park;
  clear_deadline t pcb

let resume t pcb k v =
  unpark t pcb;
  pcb.state <- Running;
  Effect.Deep.continue k v

let cancel t pcb k reason =
  unpark t pcb;
  Effect.Deep.discontinue k (Process_killed reason)

(* Resume a fill park whose ivar was just filled, unless it went stale.
   An untimed fill park has no deadline, and no engine to clear one in. *)
let wake_filled p =
  match p with
  | Park_fill { pcb; iv; k } when pcb.park == p -> (
    match iv.value with
    | Some v ->
      pcb.park <- No_park;
      pcb.state <- Running;
      Effect.Deep.continue k v
    | None -> ())
  | Park_fill_timed { eng; pcb; iv; k } when pcb.park == p -> resume eng pcb k iv.value
  | _ -> ()

(* A process's fiber: its body, which names the process to the handler
   on the way out, however it leaves. *)
let run_fiber pcb =
  match pcb.body pcb with
  | () -> pcb.engine.running <- Pid.to_int pcb.pid
  | exception e ->
    pcb.engine.running <- Pid.to_int pcb.pid;
    raise e

let create ?(cores = Infinite) ?(model = Cost_model.uniform ()) ?(seed = 42)
    ?(trace = true) ?(shards = 1) () =
  (* [shards] is a compatibility argument for the profiling harness in
     bench/profile, which still passes [~shards:1]. *)
  if shards <> 1 then invalid_arg "Engine.create: shards must be 1";
  (match cores with
  | Cores c when c < 1 -> invalid_arg "Engine.create: cores must be at least 1"
  | _ -> ());
  let queue = Event_queue.create () in
  let clock = Float.Array.make 2 0. in
  let worlds = World.create ()
  and alloc = Pid.Allocator.create ()
  and reg = Fate_registry.create ()
  and store = Frame_store.create ~page_size:model.Cost_model.page_size
  and trace_ = Trace.create ~enabled:trace ()
  and cpu = Cpu.create cores queue ~clock ~tick:Tick ~empty:No_park
  and no_sent_at = Float.Array.create 0 in
  let rec t =
    {
      clock;
      queue;
      root_seed = seed;
      procs = [||];
      no_pcb;
      worlds;
      spawned = 0;
      alloc;
      reg;
      store;
      model_ = model;
      trace_;
      cpu;
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
      handler = None;
      running = -1;
      park_tag = None;
    }
  and no_pcb =
    {
      pid = Pid.of_int (-1);
      logical = Pid.of_int (-1);
      parent = None;
      name = "";
      engine = t;
      body = ignore;
      state = Dead (Eliminated "no process");
      park = No_park;
      predicate = Predicate.empty;
      space = None;
      mailbox = Mailbox.none;
      sent_to = [||];
      sent_at = no_sent_at;
      born = -1;
      doomed = None;
      log = World.not_cloneable;
      send_seq = 0;
      exit_watchers = [];
      res_watchers = [];
      preserve_space = false;
      oblivious = true;
      site = None;
      rng = no_rng;
    }
  in
  t.procs <- Array.make initial_pids no_pcb;
  t

(* Back to the state [create ~seed] leaves, with the same cores, model
   and trace setting, keeping every table's capacity. The pid-indexed
   tables are cleared up to the last pid issued, the only part a run
   touches. The handler is kept, as it reads everything from [t]. *)
let reset t ~seed =
  let issued = Pid.Allocator.allocated t.alloc in
  Array.fill t.procs 0 issued t.no_pcb;
  World.reset t.worlds;
  Pid.Allocator.reset t.alloc;
  Event_queue.reset t.queue;
  Fate_registry.reset t.reg;
  Frame_store.reset t.store;
  Trace.reset t.trace_;
  Cpu.reset t.cpu;
  set_now t 0.;
  t.root_seed <- seed;
  t.spawned <- 0;
  t.mailbox_scanned <- 0;
  t.events_processed <- 0;
  t.live <- 0;
  t.deferred <- [];
  t.stopped <- false;
  t.sweeping <- false;
  t.sweep_again <- false;
  t.msg_fault <- None;
  t.spawn_hook <- None;
  t.site_hook <- None;
  t.delivery_fault <- None;
  t.running <- -1;
  set_park_time t 0.;
  t.park_tag <- None

(* ------------------------------------------------------------------ *)
(* Process table helpers.                                              *)

(* Issue the next pid, growing the process table to cover it. *)
let alloc_pid t =
  let pid = Pid.Allocator.fresh t.alloc in
  let n = Array.length t.procs in
  if Pid.to_int pid >= n then begin
    let procs = Array.make (2 * n) t.no_pcb in
    Array.blit t.procs 0 procs 0 n;
    t.procs <- procs
  end;
  pid

(* [pid]'s pcb, or [t.no_pcb] when it names no spawned process. *)
let pcb_of t pid =
  let i = Pid.to_int pid in
  if i >= 0 && i < Array.length t.procs then Array.unsafe_get t.procs i else t.no_pcb

(* The slot of [dest] in a FIFO-clock table, else its first free slot,
   else its length when it is full. A free slot holds pid -1 and clock
   [neg_infinity]; a slot of a forged pid -1 holds a finite clock. The
   scan compares ints and reads a clock only at a -1. Top-level, so the
   send path builds no closure. *)
let rec clock_slot sent_to sent_at dest i =
  if i = Array.length sent_to then i
  else
    let d = Array.unsafe_get sent_to i in
    if d = dest || (d = -1 && Float.Array.unsafe_get sent_at i = neg_infinity) then i
    else clock_slot sent_to sent_at dest (i + 1)

let grow_clock pcb =
  let n = Array.length pcb.sent_to in
  let cap = if n = 0 then 4 else 2 * n in
  let sent_to = Array.make cap (-1) and sent_at = Float.Array.make cap neg_infinity in
  Array.blit pcb.sent_to 0 sent_to 0 n;
  Float.Array.blit pcb.sent_at 0 sent_at 0 n;
  pcb.sent_to <- sent_to;
  pcb.sent_at <- sent_at

let is_alive pcb = match pcb.state with Dead _ -> false | _ -> true

(* The sentinel is dead, so it is never alive. *)
let alive t pid = is_alive (pcb_of t pid)

(* Only live copies are recorded: a pid with any is receivable. *)
let receivable t pid =
  match World.copies t.worlds pid with [] -> alive t pid | _ -> true

let status t pid =
  let pcb = pcb_of t pid in
  if pcb == t.no_pcb then None
  else match pcb.state with Dead s -> Some s | _ -> None

let live_count t = t.live

(* The pids of the spawned processes satisfying [f], ascending. *)
let pids_where t f =
  let acc = ref [] in
  for i = Array.length t.procs - 1 downto 0 do
    let pcb = t.procs.(i) in
    if pcb != t.no_pcb && f pcb then acc := pcb.pid :: !acc
  done;
  !acc

let parked_pids t =
  pids_where t (fun pcb ->
      is_alive pcb && match pcb.park with No_park -> false | _ -> true)

let disable_cloning pcb = pcb.log <- World.not_cloneable

(* ------------------------------------------------------------------ *)
(* Fates, predicate sweep, world elimination.                          *)

let watcher_raised t kind e =
  if wants t Trace.Kind.note then
    tr t (Trace.Note (kind ^ " watcher raised: " ^ Printexc.to_string e))

(* Shared by every process that exits ok, so such an exit builds no
   state cell. *)
let dead_ok = Dead Exited_ok

let rec finalize t pcb st =
  match pcb.state with
  | Dead _ -> ()
  | prev ->
    pcb.state <- (match st with Exited_ok -> dead_ok | _ -> Dead st);
    World.remove t.worlds pcb.pid ~logical:pcb.logical;
    (* An embryo is not parked, and its pid's queue handle holds its
       start, which stays queued and then finds it dead. *)
    (match prev with Embryo -> () | _ -> unpark t pcb);
    Cpu.remove t.cpu pcb.pid;
    if not pcb.preserve_space then Option.iter Address_space.release pcb.space;
    t.live <- t.live - 1;
    if wants t Trace.Kind.exited then
      tr t (Trace.Exited { pid = pcb.pid; status = status_string st });
    let watchers = pcb.exit_watchers in
    pcb.exit_watchers <- [];
    run_exit_watchers t st watchers;
    match st with
    | Exited_ok -> (
      (* An alternative's predicate assumes its own completion; its exit is
         precisely what resolves that assumption. One that assumed its own
         failure lived in a world that cannot exist. *)
      match Predicate.resolve pcb.predicate ~pid:pcb.pid ~fate:Predicate.Completed with
      | Predicate.Falsified -> decide t pcb `Dead
      | r ->
        (match r with Predicate.Simplified p -> pcb.predicate <- p | _ -> ());
        if not (settle_exited t pcb) then begin
          (* Completion is conditional on unresolved assumptions: defer the
             fate until they resolve (the process "cannot commit" yet). *)
          t.deferred <- pcb :: t.deferred;
          if wants t Trace.Kind.fate_deferred then tr t (Trace.Fate_deferred pcb.pid)
        end)
    | Exited_failed _ | Crashed _ | Eliminated _ -> decide t pcb `Dead

(* Settle the fate of a process that exited ok, if what it assumes is
   known by now: [false] while it stays pending, holding the residue. *)
and settle_exited t pcb =
  let p = Fate_registry.normalize t.reg pcb.predicate in
  if p == Predicate.falsified then begin
    decide t pcb `Dead;
    true
  end
  else if Predicate.is_certain p then begin
    decide t pcb `Certain;
    true
  end
  else begin
    pcb.predicate <- p;
    false
  end

(* Tell the resolution watchers, then record the fate [outcome] means
   and sweep. Each process is decided once: at a failed exit, or when its
   ok exit settles. *)
and decide t pcb outcome =
  fire_res_watchers t pcb outcome;
  let fate =
    match outcome with `Certain -> Predicate.Completed | `Dead -> Predicate.Failed
  in
  Fate_registry.record t.reg pcb.pid fate;
  if wants t Trace.Kind.fate then tr t (Trace.Fate { pid = pcb.pid; fate });
  sweep t

and fire_res_watchers t pcb outcome =
  let ws = pcb.res_watchers in
  pcb.res_watchers <- [];
  run_res_watchers t outcome ws

(* The watcher loops: direct recursion, since a closure over the status
   would be built at every exit. A watcher that raises is noted and the
   rest still run. *)
and run_exit_watchers t st = function
  | [] -> ()
  | w :: rest ->
    (try w st with e -> watcher_raised t "exit" e);
    run_exit_watchers t st rest

and run_res_watchers t outcome = function
  | [] -> ()
  | w :: rest ->
    (try w outcome with e -> watcher_raised t "resolution" e);
    run_res_watchers t outcome rest

and kill t pid ~reason =
  (* The sentinel is dead: a kill of a pid never spawned does nothing. *)
  let pcb = pcb_of t pid in
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
      Cpu.remove t.cpu pcb.pid;
      cancel t pcb k reason
    (* The other parks are never in the CPU table: only a [Park_cpu]
       is. *)
    | Park_recv { k; _ } -> cancel t pcb k reason
    | Park_recv_timed { k; _ } -> cancel t pcb k reason
    | Park_fill { k; _ } -> cancel t pcb k reason
    | Park_fill_timed { k; _ } -> cancel t pcb k reason)

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
        let pcb = t.procs.(i) in
        if pcb.born < born_before && is_alive pcb then begin
          (* A certain predicate normalises to itself. *)
          if not (Predicate.is_certain pcb.predicate) then begin
            let p = Fate_registry.normalize t.reg pcb.predicate in
            if p == Predicate.falsified then begin
              if wants t Trace.Kind.killed then
                tr t (Trace.Killed { pid = pcb.pid; reason = "dead world" });
              fire_res_watchers t pcb `Dead;
              kill t pcb.pid ~reason:"dead world"
            end
            else begin
              let changed = not (Predicate.equal p pcb.predicate) in
              pcb.predicate <- p;
              if changed && Predicate.is_certain p then
                fire_res_watchers t pcb `Certain
            end
          end;
          (* A parked receiver may now be able to accept a message whose
             acceptance was deferred. *)
          if is_alive pcb then rescan_parked t pcb
        end
      done;
      (* Settle deferred fates. *)
      let deferred = t.deferred in
      t.deferred <- [];
      t.deferred <- settle_deferred t deferred;
      continue := t.sweep_again
    done;
    t.sweeping <- false
  end

(* The deferred fates still pending, in order, then those deferred while
   they settled. A direct loop: a filter closure would be built every
   round. The spine is shared wherever nothing settled. *)
and settle_deferred t = function
  | [] -> t.deferred
  | pcb :: rest as l ->
    let settled = settle_exited t pcb in
    let rest' = settle_deferred t rest in
    if settled then rest' else if rest' == rest then l else pcb :: rest'

(* ------------------------------------------------------------------ *)
(* Message scanning: the ring walk around Predicate.receipt (3.4.2).   *)

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
    match tag with
    | None -> scan_mailbox t pcb ring tag Mailbox.no_cursor [] (Mailbox.head_pos ring) true
    | Some wanted ->
      let c = Mailbox.cursor ring wanted in
      if c.Mailbox.cpos < Mailbox.head_pos ring then
        c.Mailbox.cpos <- Mailbox.head_pos ring;
      scan_mailbox t pcb ring tag c [] c.Mailbox.cpos true
  end

(* Walk the ring in position order and act on each entry's receipt,
   honouring per-sender FIFO when deferring. [blocked] (senders we must
   not overtake) is threaded as a list so the common no-deferral scan
   allocates nothing. [prefix] is true while every slot visited so far
   was a tombstone or tag-foreign, i.e. while the per-tag cursor [cur]
   ({!Mailbox.no_cursor} for an untagged receive) may still advance over
   them. A top-level function rather than an inner closure: the receive
   fast path allocates nothing. *)
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
    else if
      (* Empty-list check first: nothing is examined unless a sender has
         actually been deferred during this scan. *)
      (match blocked with
      | [] -> false
      | _ -> List.exists (Pid.equal m.Message.sender) blocked)
    then scan_mailbox t pcb ring tag cur blocked (pos + 1) false
    else
      match
        (* Kernel-level services (consensus voters, devices) accept every
           message: they belong to no world. The rule accepts a certain
           sender, the overwhelmingly common case. Both skip the call. *)
        if pcb.oblivious || Predicate.is_certain m.Message.predicate then
          Predicate.Accept
        else
          Predicate.receipt pcb.predicate ~sender:m.Message.sender
            ~stamp:m.Message.predicate
            (Fate_registry.normalize t.reg m.Message.predicate)
            ~cloneable:(World.cloneable pcb.log)
      with
      | Predicate.Defer ->
        (* Keep waiting: do not overtake this sender (FIFO). *)
        scan_mailbox t pcb ring tag cur (m.Message.sender :: blocked) (pos + 1) false
      | Predicate.Ignore reason ->
        if wants t Trace.Kind.ignored then
          tr t (Trace.Ignored { dest = pcb.pid; msg = m; reason });
        Mailbox.remove ring pos;
        advance_cursor cur pos prefix;
        scan_mailbox t pcb ring tag cur blocked (pos + 1) prefix
      | (Predicate.Accept | Predicate.Adopt _ | Predicate.Split _) as receipt ->
        (* The trace records the predicate the receiver held when it
           decided, not the one it adopts: the analysis layer re-derives
           the decision from it. *)
        let dest_pred = pcb.predicate in
        (match receipt with
        | Predicate.Adopt p -> pcb.predicate <- p
        | Predicate.Split { accept; reject } ->
          split t pcb m reject;
          pcb.predicate <- accept
        | _ -> ());
        if wants t Trace.Kind.accepted then
          tr t (Trace.Accepted { dest = pcb.pid; msg = m; dest_pred });
        Mailbox.remove ring pos;
        m
  end

and advance_cursor cur pos prefix =
  if prefix && cur != Mailbox.no_cursor then cur.Mailbox.cpos <- pos + 1

(* The rejecting world of a split on [m]: a replay clone of [pcb] that
   holds [reject] and starts after a fork's base cost. *)
and split t pcb m reject =
  let clone_pid = alloc_pid t in
  let clone =
    make_pcb t ~pid:clone_pid ~logical:pcb.logical ~parent:pcb.parent
      ~name:(pcb.name ^ "~world") ~predicate:reject ~space:None
      ~log:(World.clone pcb.log) ~oblivious:false ~body:pcb.body
  in
  (* The rejecting world keeps everything except the accepted send. An
     injected duplicate is the same message value pushed twice, so the
     physical-identity filter excludes it along with its original; the
     worlds share the remaining immutable entries. *)
  clone.mailbox <- Mailbox.copy_excluding pcb.mailbox ~msg:m;
  World.split t.worlds ~logical:pcb.logical clone_pid;
  t.live <- t.live + 1;
  (* World copies live wherever the original does: a site crash must take
     every copy of a resident process down with it. *)
  assign_site t clone ~explicit:pcb.site;
  if wants t Trace.Kind.split then
    tr t (Trace.Split { original = pcb.pid; clone = clone_pid; on = m });
  (match t.spawn_hook with Some h -> h clone_pid clone.name | None -> ());
  schedule_start t ~at:(now t +. t.model_.Cost_model.fork_base) clone

and rescan_parked t pcb =
  match pcb.park with
  | Park_recv { tag; k } ->
    let m = try_receive t pcb tag in
    if m != Mailbox.no_message then resume t pcb k m
  | Park_recv_timed { tag; k } ->
    let m = try_receive t pcb tag in
    if m != Mailbox.no_message then resume t pcb k (Some m)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Process creation and the effect handler.                            *)

and make_pcb t ~pid ~logical ~parent ~name ~predicate ~space ~log
    ~oblivious ~body =
  if pcb_of t pid != t.no_pcb then invalid_arg "Engine.spawn: pid already in use";
  let pcb =
    {
      pid;
      logical;
      parent;
      name;
      engine = t;
      body;
      state = Embryo;
      park = No_park;
      predicate;
      space;
      mailbox = Mailbox.none;
      sent_to = [||];
      sent_at = Float.Array.create 0;
      born = t.spawned;
      doomed = None;
      log;
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
  t.procs.(Pid.to_int pid) <- pcb;
  pcb

and assign_site t pcb ~explicit =
  pcb.site <-
    (match t.site_hook with
    | Some h -> h ~pid:pcb.pid ~parent:pcb.parent ~name:pcb.name ~explicit
    | None -> explicit)

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
  let handler =
    match t.handler with
    | Some h -> h
    | None ->
      let h = make_handler t in
      t.handler <- Some h;
      h
  in
  Effect.Deep.match_with run_fiber pcb handler

(* The one handler of [t]'s bodies. The constant parks' [Some] closures
   are built here, once: [effc] hands the running process's continuation
   to one of them and allocates nothing. *)
and make_handler t =
  let cpu = Some (fun k -> suspend t E_cpu k)
  and recv = Some (fun k -> suspend t E_recv k)
  and recv_timed = Some (fun k -> suspend t E_recv_timed k) in
  {
    Effect.Deep.retc = (fun () -> finalize t (running_pcb t) Exited_ok);
    exnc =
      (fun e ->
        let pcb = running_pcb t in
        match e with
        | Process_killed r -> finalize t pcb (Eliminated r)
        | Abort_process r -> finalize t pcb (Exited_failed r)
        | e -> finalize t pcb (Crashed (Printexc.to_string e)));
    effc =
      (fun (type a) (eff : a Effect.t) :
           ((a, unit) Effect.Deep.continuation -> unit) option ->
        match eff with
        | E_cpu -> cpu
        | E_recv -> recv
        | E_recv_timed -> recv_timed
        | E_fill _ | E_fill_timed _ -> Some (fun k -> suspend t eff k)
        | _ -> None);
  }

(* Park the running process on its wait, unless it was doomed. Every park
   is one [park] value in [pcb.park], plus a CPU task or an ivar waiter
   entry holding that same value, plus a deadline handle for a timed wait
   with a finite timeout. No park builds a closure or a cancellable
   event. A woken or killed timed wait clears its deadline, so the
   heap keeps no dead entry and the clock is never dragged to a deadline
   nobody waits for. A receive parks only after its caller found nothing
   acceptable, and the park does not scan again. *)
and suspend : type a.
    t -> a Effect.t -> (a, unit) Effect.Deep.continuation -> unit =
 fun t eff k ->
  let pcb = running_pcb t in
  match pcb.doomed with
  | Some reason ->
    pcb.doomed <- None;
    Effect.Deep.discontinue k (Process_killed reason)
  | None -> (
    pcb.state <- Suspended;
    match eff with
    | E_cpu ->
      let p = Park_cpu { pcb; k } in
      pcb.park <- p;
      Cpu.add t.cpu pcb.pid p
    | E_recv -> pcb.park <- Park_recv { tag = t.park_tag; k }
    | E_recv_timed ->
      set_deadline t pcb (park_time t);
      pcb.park <- Park_recv_timed { tag = t.park_tag; k }
    | E_fill iv ->
      let p = Park_fill { pcb; iv; k } in
      pcb.park <- p;
      iv.waiters <- iv.waiters @ [ p ]
    | E_fill_timed iv ->
      set_deadline t pcb (park_time t);
      let p = Park_fill_timed { eng = t; pcb; iv; k } in
      pcb.park <- p;
      iv.waiters <- iv.waiters @ [ p ]
    | _ -> invalid_arg "Engine.suspend: not a park effect")

and do_send t pcb ~dest ~tag payload =
  let predicate =
    let p = Fate_registry.normalize t.reg pcb.predicate in
    (* A falsified sender: the sweep will kill it shortly. *)
    if p == Predicate.falsified then pcb.predicate else p
  in
  let seq = pcb.send_seq in
  pcb.send_seq <- seq + 1;
  let size = Message.header_bytes + Payload.size_bytes payload in
  (* The one value every receiver, trace event and fault hook sees for
     this send. *)
  let msg = { Message.sender = pcb.pid; dest; predicate; payload; tag; seq; size } in
  if wants t Trace.Kind.sent then tr t (Trace.Sent { msg });
  (* Per-(sender, logical dest) FIFO: never deliver before an earlier send.
     A message costs the model's latency plus its per-byte price, computed
     here so the float stays unboxed in this frame. *)
  let i = clock_slot pcb.sent_to pcb.sent_at (Pid.to_int dest) 0 in
  if i = Array.length pcb.sent_to then grow_clock pcb;
  Array.unsafe_set pcb.sent_to i (Pid.to_int dest);
  let at =
    let earliest =
      now t
      +. t.model_.Cost_model.msg_latency
      +. (float_of_int size *. t.model_.Cost_model.msg_per_byte)
    in
    let last = Float.Array.unsafe_get pcb.sent_at i in
    if last > earliest then last else earliest
  in
  (* Every outcome but a delay advances the clock to [at]: a dropped or
     reordered send keeps later sends on their fault-free schedule. *)
  Float.Array.unsafe_set pcb.sent_at i at;
  match t.msg_fault with
  | None -> schedule t ~at (Deliver msg)
  | Some f -> (
    let inject kind =
      if wants t Trace.Kind.injected then
        tr t (Trace.Injected { kind; pid = None; msg = Some msg })
    in
    match f msg with
    | F_deliver -> schedule t ~at (Deliver msg)
    | F_drop ->
      (* The send happened; the network lost it. *)
      inject "drop"
    | F_duplicate ->
      inject "duplicate";
      (* Two entries sharing one immutable value: consuming one copy
         cannot touch the other, and a world split's physical-identity
         filter removes both as a single logical send. *)
      schedule t ~at (Deliver msg);
      schedule t ~at (Deliver msg)
    | F_delay extra ->
      (* Extra latency that also holds back later sends to the same
         destination: per-sender FIFO is preserved, everything just
         arrives late. *)
      let at = at +. Float.max 0. extra in
      Float.Array.unsafe_set pcb.sent_at i at;
      inject "delay";
      schedule t ~at (Deliver msg)
    | F_reorder extra ->
      (* Extra latency that does NOT advance the clock: a later send may
         overtake this message — a genuine FIFO violation. *)
      inject "reorder";
      schedule t ~at:(at +. Float.max 0. extra) (Deliver msg))

(* Offer [msg] to every world copy of its logical destination, then
   rescan each copy once: every copy holds the message before any
   receiver runs. A destination with no copies (one that never split, a
   ghost, or the physical pid of a clone) stands for itself. The
   delivery-fault hook is asked per copy at delivery time, so a site
   crash or partition that comes up while the message is in flight still
   loses it; the hook records its own trace events. Every copy that takes
   the message shares the one immutable value. *)
and deliver t (msg : Message.t) =
  (match World.copies t.worlds msg.dest with
  | [] -> offer t msg msg.dest
  | copies -> offer_each t msg copies);
  match World.copies t.worlds msg.dest with
  | [] -> rescan_world_copy t msg.dest
  | copies -> rescan_each t copies

(* Direct loops: a closure over the message or the engine would allocate
   per delivery. *)
and offer_each t msg = function
  | [] -> ()
  | pid :: rest ->
    offer t msg pid;
    offer_each t msg rest

and rescan_each t = function
  | [] -> ()
  | pid :: rest ->
    rescan_world_copy t pid;
    rescan_each t rest

and offer t msg pid =
  let pcb = pcb_of t pid in
  if is_alive pcb then
    if match t.delivery_fault with None -> true | Some f -> f msg ~dest:pid then begin
      if pcb.mailbox == Mailbox.none then pcb.mailbox <- Mailbox.create ();
      Mailbox.push pcb.mailbox msg;
      if wants t Trace.Kind.delivered then tr t (Trace.Delivered { dest = pid; msg })
    end

and rescan_world_copy t pid =
  let pcb = pcb_of t pid in
  if is_alive pcb then rescan_parked t pcb

(* ------------------------------------------------------------------ *)
(* Public spawning / running.                                          *)

let fresh_pids t n =
  let pids = Array.make n (Pid.of_int (-1)) in
  for i = 0 to n - 1 do
    pids.(i) <- alloc_pid t
  done;
  pids

let spawn_process t ~pid ~parent ~predicate ~space ~cloneable ~oblivious
    ~start_delay ~name ~site body =
  (* Only a pid this engine issued: a forged one would later collide with
     the allocator's own, and would size the tables. *)
  if not (Pid.Allocator.issued t.alloc pid) then
    invalid_arg "Engine.spawn: pid not issued by this engine";
  (match parent with
  | Some pp ->
    let pp = pcb_of t pp in
    if pp != t.no_pcb then disable_cloning pp
  | None -> ());
  let log = if cloneable && space = None then World.fresh () else World.not_cloneable in
  let pcb =
    make_pcb t ~pid ~logical:pid ~parent ~name ~predicate ~space ~log ~oblivious
      ~body
  in
  t.live <- t.live + 1;
  assign_site t pcb ~explicit:site;
  if wants t Trace.Kind.spawned then tr t (Trace.Spawned { pid; parent; name });
  (match t.spawn_hook with Some h -> h pid name | None -> ());
  schedule_start t ~at:(now t +. start_delay) pcb;
  pid

let spawn t ?pid ?parent ?(predicate = Predicate.empty) ?space
    ?(cloneable = true) ?(oblivious = false) ?(start_delay = 0.)
    ?(name = "proc") ?site body =
  let pid = match pid with Some p -> p | None -> alloc_pid t in
  spawn_process t ~pid ~parent ~predicate ~space ~cloneable ~oblivious
    ~start_delay ~name ~site body

(* The pcb of a spawned [pid], else [Invalid_argument] naming [fn]. *)
let spawned_pcb t pid fn =
  let pcb = pcb_of t pid in
  if pcb == t.no_pcb then invalid_arg (fn ^ ": unknown pid");
  pcb

let on_exit t pid f =
  let pcb = spawned_pcb t pid "Engine.on_exit" in
  match pcb.state with
  | Dead st -> f st
  | _ -> pcb.exit_watchers <- f :: pcb.exit_watchers

(* What is decided about [pcb]'s world. One that ended other than ok has
   failed, also in the exit watchers run before its fate is recorded. *)
let resolution t pcb =
  match pcb.state with
  | Dead (Exited_failed _ | Crashed _ | Eliminated _) -> `Dead
  | _ -> Fate_registry.resolution t.reg ~pid:pcb.pid pcb.predicate

let on_resolution t pid f =
  let pcb = spawned_pcb t pid "Engine.on_resolution" in
  match resolution t pcb with
  | `Pending -> pcb.res_watchers <- f :: pcb.res_watchers
  | (`Certain | `Dead) as o -> f o

let preserve_space t pid =
  (spawned_pcb t pid "Engine.preserve_space").preserve_space <- true

let after t ~delay thunk = schedule t ~at:(now t +. delay) (Thunk thunk)

(* A timed wait's deadline came first: resume it with [None]. *)
let deadline t pid =
  let pcb = t.procs.(pid) in
  match pcb.park with
  | Park_recv_timed { k; _ } -> resume t pcb k None
  | Park_fill_timed { k; _ } -> resume t pcb k None
  | _ -> ()

let run t =
  t.stopped <- false;
  let q = t.queue in
  while (not t.stopped) && not (Event_queue.is_empty q) do
    let time = Event_queue.min_time q in
    let ev = Event_queue.pop_min q in
    set_now t (Float.max (now t) time);
    t.events_processed <- t.events_processed + 1;
    match ev with
    | Tick -> cpu_tick t
    | Deadline -> deadline t (Event_queue.popped_handle q)
    | Start -> start_pcb t t.procs.(Event_queue.popped_handle q)
    | Deliver msg -> deliver t msg
    | Thunk f -> f ()
  done

let run_for t duration =
  schedule t ~at:(now t +. duration) (Thunk (fun () -> t.stopped <- true));
  run t

(* ------------------------------------------------------------------ *)
(* In-process operations.                                              *)

(* Everything here runs on the caller's own stack and performs an effect
   only to park. Raising [Process_killed] / [Replay_divergence] directly is
   equivalent to the handler's [discontinue]: we are already inside the
   fiber, and the exception unwinds through [run_fiber] to the handler's
   [exnc] either way. A receive that parked logs what it got as soon as
   the park returns: nothing runs between the handler's [continue] and
   that step, so the log is the same as if the handler wrote it. *)

(* Name the process to the handler, then park on [eff]. *)
let park_as ctx eff =
  ctx.engine.running <- Pid.to_int ctx.pid;
  Effect.perform eff

let check_doomed pcb =
  match pcb.doomed with
  | Some reason ->
    pcb.doomed <- None;
    raise (Process_killed reason)
  | None -> ()

(* A NaN wait would reach the event queue, which refuses it out of [run]. *)
let check_duration fn d = if Float.is_nan d then invalid_arg (fn ^ ": NaN duration")

(* An infinite delay would put the CPU tick at NaN ([inf -. inf]), which
   the event queue refuses out of [run]. *)
let check_delay d =
  check_duration "Engine.delay" d;
  if Float.abs d = infinity then invalid_arg "Engine.delay: infinite duration"

let self ctx = ctx.pid
let engine ctx = ctx.engine

let now_v pcb =
  check_doomed pcb;
  match World.replay_next pcb.log with
  | Some (World.L_now v) -> v
  | Some _ -> raise (Replay_divergence "expected now")
  | None ->
    let v = now pcb.engine in
    if World.logging pcb.log then World.record pcb.log (L_now v);
    v

let delay pcb dt =
  check_doomed pcb;
  check_delay dt;
  match World.replay_next pcb.log with
  | Some (World.L_delay _) -> ()
  | Some _ -> raise (Replay_divergence "expected delay")
  | None ->
    if World.logging pcb.log then World.record pcb.log (L_delay dt);
    if dt > 0. then begin
      set_park_time pcb.engine dt;
      park_as pcb E_cpu
    end

let space ctx = ctx.space

let charge_memory ctx =
  match ctx.space with
  | None -> ()
  | Some sp ->
    let c = Address_space.drain_cost sp in
    if c > 0. then delay ctx c

let send pcb ?(tag = "") dest payload =
  check_doomed pcb;
  match World.replay_next pcb.log with
  | Some World.L_sent -> ()
  | Some _ -> raise (Replay_divergence "expected send")
  | None ->
    if World.logging pcb.log then World.record pcb.log L_sent;
    do_send pcb.engine pcb ~dest ~tag payload

let receive pcb ?tag () =
  check_doomed pcb;
  match World.replay_next pcb.log with
  | Some (World.L_recv m) -> m
  | Some _ -> raise (Replay_divergence "expected receive")
  | None ->
    let m = try_receive pcb.engine pcb tag in
    let m =
      if m != Mailbox.no_message then m
      else begin
        pcb.engine.park_tag <- tag;
        park_as pcb E_recv
      end
    in
    if World.logging pcb.log then World.record pcb.log (L_recv m);
    m

let receive_timeout pcb ?tag ~timeout () =
  check_doomed pcb;
  check_duration "Engine.receive_timeout" timeout;
  match World.replay_next pcb.log with
  | Some (World.L_recv_opt r) -> r
  | Some _ -> raise (Replay_divergence "expected receive_timeout")
  | None ->
    let m = try_receive pcb.engine pcb tag in
    let r =
      if m != Mailbox.no_message then Some m
      else if timeout <= 0. then
        (* Poll-only: nothing acceptable is queued right now, report that
           immediately without parking. *)
        None
      else begin
        pcb.engine.park_tag <- tag;
        set_park_time pcb.engine timeout;
        park_as pcb E_recv_timed
      end
    in
    if World.logging pcb.log then World.record pcb.log (L_recv_opt r);
    r

let cpu_time_of t pid = Cpu.used t.cpu pid
let total_cpu_time t = Cpu.total t.cpu

let logical_of t pid =
  let pcb = pcb_of t pid in
  if pcb == t.no_pcb then None else Some pcb.logical

let name_of t pid =
  let pcb = pcb_of t pid in
  if pcb == t.no_pcb then None else Some pcb.name

(* The sentinel has neither: a lookup builds nothing. *)
let space_of t pid = (pcb_of t pid).space
let site_of t pid = (pcb_of t pid).site

(* A direct walk of the issued pids: a filter closure over [pid] would
   allocate per call. *)
let children_of t pid =
  let acc = ref [] in
  for i = Pid.Allocator.allocated t.alloc - 1 downto 0 do
    match Array.unsafe_get t.procs i with
    | { parent = Some p; pid = c; _ } when Pid.equal p pid -> acc := c :: !acc
    | _ -> ()
  done;
  !acc

let certain_of t pid =
  let pcb = pcb_of t pid in
  pcb != t.no_pcb && resolution t pcb = `Certain

let abort _ctx reason = raise (Abort_process reason)

let random_bits pcb =
  check_doomed pcb;
  match World.replay_next pcb.log with
  | Some (World.L_random v) -> v
  | Some _ -> raise (Replay_divergence "expected random")
  | None ->
    if pcb.rng == no_rng then
      pcb.rng <- Rng.stream ~seed:pcb.engine.root_seed ~key:(Pid.to_int pcb.pid);
    let v = Rng.bits64 pcb.rng in
    if World.logging pcb.log then World.record pcb.log (L_random v);
    v

let my_predicate ctx = ctx.predicate

let is_certain ctx = resolution ctx.engine ctx = `Certain

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
      List.iter wake_filled ws;
      true

  let is_filled iv = iv.value <> None
  let peek iv = iv.value

  let read ctx iv =
    disable_cloning ctx;
    match iv.value with
    | Some v -> v
    | None -> park_as ctx (E_fill iv)

  let read_timeout ctx iv ~timeout =
    check_duration "Engine.Ivar.read_timeout" timeout;
    disable_cloning ctx;
    match iv.value with
    | Some _ as r -> r
    | None when timeout <= 0. ->
      (* Poll-only: report the current state without parking. *)
      None
    | None ->
      set_park_time ctx.engine timeout;
      park_as ctx (E_fill_timed iv)
end
