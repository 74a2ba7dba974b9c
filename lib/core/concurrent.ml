type elimination = Sync_elim | Async_elim | No_elim

type sync_mode =
  | Local
  | Consensus of {
      nodes : int;
      crashed : int list;
      vote_delay : float;
      reply_timeout : float;
    }

type guard_placement =
  | Guard_in_child
  | Guard_before_spawn
  | Guard_at_sync
  | Guard_redundant

type placement = Local_spawn | Remote_spawn | Remote_on_demand

type degradation = Fail_block | Sequential_fallback

type policy = {
  elimination : elimination;
  sync : sync_mode;
  timeout : float;
  guards : guard_placement;
  placement : placement;
  degradation : degradation;
  sync_retries : int;
  sync_backoff : float;
}

let default_policy =
  {
    elimination = Sync_elim;
    sync = Local;
    timeout = 1e12;
    guards = Guard_in_child;
    placement = Local_spawn;
    degradation = Fail_block;
    sync_retries = 0;
    sync_backoff = 0.01;
  }

let describe policy =
  let elim =
    match policy.elimination with
    | Sync_elim -> "sync-elim"
    | Async_elim -> "async-elim"
    | No_elim -> "no-elim"
  in
  let sync =
    match policy.sync with
    | Local -> "local-latch"
    | Consensus { nodes; crashed; _ } ->
      if crashed = [] then Printf.sprintf "consensus(%d)" nodes
      else Printf.sprintf "consensus(%d,%d crashed)" nodes (List.length crashed)
  in
  let guards =
    match policy.guards with
    | Guard_in_child -> "guard-in-child"
    | Guard_before_spawn -> "guard-before-spawn"
    | Guard_at_sync -> "guard-at-sync"
    | Guard_redundant -> "guard-redundant"
  in
  let placement =
    match policy.placement with
    | Local_spawn -> "local"
    | Remote_spawn -> "remote"
    | Remote_on_demand -> "remote-on-demand"
  in
  (* Robustness knobs are appended only when non-default, so existing
     matrix labels (and altcheck's committed output) are unchanged. *)
  let extras =
    (if policy.sync_retries > 0 then
       [ Printf.sprintf "retry%d" policy.sync_retries ]
     else [])
    @
    match policy.degradation with
    | Fail_block -> []
    | Sequential_fallback -> [ "seq-fallback" ]
  in
  String.concat "/" ([ elim; sync; guards; placement ] @ extras)

type 'a report = {
  outcome : 'a Alt_block.outcome;
  winner : Pid.t option;
  children : Pid.t list;
  elapsed : float;
  setup_cost : float;
  spawned : int;
  selection_cost : float;
  wasted_cpu : float;
  child_cow_copies : int;
  sync_messages : int;
  attempted : int;
  degraded : bool;
}

(* The report of a block that decided nothing: no setup, no selection. *)
let failed_report ~reason ~children ~elapsed ~wasted_cpu ~sync_messages =
  {
    outcome = Alt_block.Block_failed reason;
    winner = None;
    children;
    elapsed;
    setup_cost = 0.;
    spawned = List.length children;
    selection_cost = 0.;
    wasted_cpu;
    child_cow_copies = 0;
    sync_messages;
    attempted = 0;
    degraded = false;
  }

type 'a latch_value =
  | Win of { index : int; pid : Pid.t; value : 'a }
  | All_failed_l

(* [Majority.acquire_retry]'s arguments, boxed once per consensus block
   rather than at every child's call. *)
type acquire = {
  reply_timeout : float;
  a_epoch : int option;
  a_deadline : float option;
  a_retries : int option;
  a_backoff : float option;
}

let no_acquire =
  { reply_timeout = 0.; a_epoch = None; a_deadline = None; a_retries = None;
    a_backoff = None }

(* One block's state. Each child's body is a closure over this record and
   its index, and one exit watcher serves every child: nothing else of the
   block is captured. *)
type 'a block = {
  eng : Engine.t;
  alts : 'a Alternative.t array;
  latch : 'a latch_value Engine.Ivar.t;
  mutable remaining : int;  (* children not yet exited *)
  (* Alternatives run to a verdict (value, declared failure, or crash), not
     eliminated mid-flight: what a recovery block may call "attempts". *)
  mutable attempted : int;
  (* Children whose consensus rounds ended undecided: "the synchronisation
     layer was unreachable", not "every alternative genuinely failed". *)
  mutable no_quorum : int;
  guard_in_child : bool;
  guard_at_sync : bool;
  remote : bool;
  consensus : Majority.t option;
  policy : policy;
  epoch : int;
  acquire : acquire;  (* [no_acquire] without a consensus group *)
  model : Cost_model.t;
  trace : Trace.t;  (* test [wants] first: build no event nobody reads *)
}

let child_body b i ctx =
  let alt = b.alts.(i) in
  if b.guard_in_child && not (alt.Alternative.guard ctx) then
    Engine.abort ctx "guard failed";
  let value =
    match alt.Alternative.body ctx with
    | v ->
      b.attempted <- b.attempted + 1;
      v
    | exception Alternative.Failed r ->
      b.attempted <- b.attempted + 1;
      Engine.abort ctx ("failed: " ^ r)
    | exception ((Engine.Process_killed _ | Engine.Abort_process _) as e) ->
      (* Eliminated (or self-aborted) mid-body: not an attempt. *)
      raise e
    | exception e ->
      b.attempted <- b.attempted + 1;
      raise e
  in
  Engine.charge_memory ctx;
  if b.guard_at_sync && not (alt.Alternative.guard ctx) then
    Engine.abort ctx "guard failed at sync";
  (* A remote child's synchronisation attempt crosses the network. *)
  if b.remote then Engine.delay ctx b.model.Cost_model.msg_latency;
  let me = Engine.self ctx in
  let won =
    match b.consensus with
    | None -> Engine.Ivar.try_fill b.latch (Win { index = i; pid = me; value })
    | Some maj -> (
      let a = b.acquire in
      match
        Majority.acquire_retry ctx maj ?epoch:a.a_epoch ?deadline:a.a_deadline
          ~reply_timeout:a.reply_timeout ?retries:a.a_retries ?backoff:a.a_backoff ()
      with
      | Majority.Granted ->
        ignore (Engine.Ivar.try_fill b.latch (Win { index = i; pid = me; value }));
        true
      | Majority.Denied -> false
      | Majority.No_quorum ->
        (* Not a loss: the decision was never made. No [Sync_late] is
           recorded — the at-most-once audit counts those as decided
           denials. *)
        b.no_quorum <- b.no_quorum + 1;
        Engine.abort ctx "no quorum reachable")
  in
  if not won then begin
    if Trace.wants b.trace Trace.Kind.sync_late then
      Trace.record b.trace ~time:(Engine.now b.eng)
        (Trace.Sync_late { pid = me; index = i });
    Engine.abort ctx "too late"
  end;
  if Trace.wants b.trace Trace.Kind.sync_won then
    Trace.record b.trace ~time:(Engine.now b.eng)
      (Trace.Sync_won { pid = me; index = i; epoch = b.epoch })

let child_exited b st =
  b.remaining <- b.remaining - 1;
  match st with
  | Engine.Exited_ok -> ()
  | Engine.Exited_failed _ | Engine.Crashed _ | Engine.Eliminated _ ->
    if b.remaining = 0 && not (Engine.Ivar.is_filled b.latch) then
      ignore (Engine.Ivar.try_fill b.latch All_failed_l)

(* Kill every open child but child [except] (-1: none), in pid order:
   at once, or [async]ly, from an event one message latency later. *)
let kill_open b pids open_ ~except ~reason ~async =
  for i = 0 to Array.length pids - 1 do
    if open_.(i) && i <> except then begin
      let pid = pids.(i) in
      if async then
        Engine.after b.eng ~delay:b.model.Cost_model.msg_latency (fun () ->
            Engine.kill b.eng pid ~reason)
      else Engine.kill b.eng pid ~reason
    end
  done

(* The parent issues [victims] kills; returns what that charged it. *)
let charge_kills ctx ~victims ~per_kill =
  let issue = float_of_int victims *. per_kill in
  if issue > 0. then (Engine.delay ctx issue; issue) else 0.

(* Sibling elimination of the [victims] open children but child [except]
   (-1: none); returns what it charged the parent. *)
let eliminate ctx b pids open_ ~per_kill ~victims ~except ~reason =
  match b.policy.elimination with
  | Sync_elim ->
    let charged = charge_kills ctx ~victims ~per_kill in
    kill_open b pids open_ ~except ~reason ~async:false;
    charged
  | Async_elim ->
    kill_open b pids open_ ~except ~reason ~async:true;
    0.
  | No_elim -> 0.

(* CPU burnt by every child but the winner, added in the order given:
   each caller passes its children in ascending pid order. *)
let wasted_cpu eng ~winner children =
  let acc = ref 0. and rest = ref children in
  while !rest != [] do
    let c = List.hd !rest in
    (match winner with
    | Some w when Pid.equal w c -> ()
    | _ -> acc := !acc +. Engine.cpu_time_of eng c);
    rest := List.tl !rest
  done;
  !acc

(* Child [i] of alternative [name] is ["name[i]"]; incarnation [e] of a
   supervised block's coordinator is ["alt-parent.e<e>"]. *)
let index_suffix = Names.indexed 16 (Printf.sprintf "[%d]")
let coordinator_name = Names.indexed 8 (Printf.sprintf "alt-parent.e%d")

(* [run] with every argument given: what a supervisor calls per
   incarnation, so that it boxes no option. *)
let run_block ctx ~policy ~borrowed ~epoch ~exclusive ~deadline alts =
  let eng = Engine.engine ctx in
  let model = Engine.model eng in
  let n = List.length alts in
  if n = 0 then invalid_arg "Concurrent.run: empty block";
  (match (borrowed, policy.sync) with
  | Some _, Local ->
    invalid_arg "Concurrent.run: ?consensus requires a Consensus sync policy"
  | _ -> ());
  let t0 = Engine.now_v ctx in
  let parent_pid = Engine.self ctx in
  let parent_pred = Engine.my_predicate ctx in
  let parent_space = Engine.space ctx in
  let alt_arr = Array.of_list alts in
  (* Pre-spawn guard evaluation happens serially in the parent; closed
     alternatives are never spawned. *)
  let open_ = Array.make n true in
  (match policy.guards with
  | Guard_before_spawn | Guard_redundant ->
    for i = 0 to n - 1 do
      open_.(i) <- alt_arr.(i).Alternative.guard ctx
    done
  | Guard_in_child | Guard_at_sync -> ());
  let spawned_count = Array.fold_left (fun a b -> if b then a + 1 else a) 0 open_ in
  if spawned_count = 0 then
    failed_report ~reason:"no open alternative" ~children:[]
      ~elapsed:(Engine.now_v ctx -. t0) ~wasted_cpu:0. ~sync_messages:0
  else begin
    let pids = Engine.fresh_pids eng n in
    (* A borrowed consensus group (coordinator recovery) outlives this
       incarnation: its durable grants are exactly what makes the
       at-most-once decision survive a coordinator restart, so the block
       must neither create nor shut it down. *)
    (* Consensus elision: when the caller proved (statically, via Lint)
       that at most one alternative can ever reach its synchronisation
       point successfully, the distributed 0-1 semaphore decides nothing
       — the sole possible winner is granted unconditionally — so the
       block may fall back to the local latch and skip the voter group
       entirely. Never applied to a borrowed group: durable grants are
       the coordinator-recovery machinery's, not ours to elide. *)
    let elide_consensus =
      exclusive
      && borrowed = None
      && match policy.sync with Consensus _ -> true | Local -> false
    in
    let owned_consensus =
      match (policy.sync, borrowed) with
      | Local, _ | Consensus _, Some _ -> None
      | Consensus _, None when elide_consensus -> None
      | Consensus { nodes; crashed; vote_delay; _ }, None ->
        Some (Majority.create eng ~nodes ~crashed ~vote_delay ())
    in
    let consensus = match borrowed with Some _ -> borrowed | None -> owned_consensus in
    (* Setup: one execution environment per open alternative. Local
       placement duplicates the page map copy-on-write; remote placement
       checkpoints the whole image and ships it (Smith & Ioannidis 1989),
       yielding private pages on the remote node. Both are performed by
       the (blocked) parent, so the cost is charged serially before the
       race begins. *)
    let checkpoint =
      match (policy.placement, parent_space) with
      | Remote_spawn, Some sp -> Some (Checkpoint.capture sp)
      | (Local_spawn | Remote_spawn | Remote_on_demand), _ -> None
    in
    (* On-demand children share the parent's frames but every
       copy-on-write fault also fetches the page over the network. *)
    let on_demand_model =
      if policy.placement <> Remote_on_demand then model
      else
        let page_copy = model.Cost_model.page_copy +. model.Cost_model.remote_per_page in
        { model with Cost_model.page_copy }
    in
    let setup_cost = ref 0. in
    let spaces = Array.make n None in
    for i = 0 to n - 1 do
      if open_.(i) then
        match (policy.placement, parent_space) with
        | Local_spawn, Some sp ->
          let child = Address_space.fork sp in
          setup_cost := !setup_cost +. Address_space.drain_cost child;
          spaces.(i) <- Some child
        | Local_spawn, None -> setup_cost := !setup_cost +. model.Cost_model.fork_base
        | Remote_spawn, Some _ ->
          let image = Option.get checkpoint in
          spaces.(i) <- Some (Checkpoint.restore (Engine.frame_store eng) model image);
          setup_cost := !setup_cost +. Checkpoint.transfer_cost model image
        | Remote_spawn, None ->
          setup_cost := !setup_cost +. model.Cost_model.remote_spawn_base
        | Remote_on_demand, Some sp ->
          (* No image travels at spawn: just the process state and one
             control round trip. *)
          let child = Address_space.fork ~model:on_demand_model sp in
          ignore (Address_space.drain_cost child);
          setup_cost :=
            !setup_cost +. model.Cost_model.fork_base +. model.Cost_model.msg_latency;
          spaces.(i) <- Some child
        | Remote_on_demand, None ->
          setup_cost :=
            !setup_cost +. model.Cost_model.fork_base +. model.Cost_model.msg_latency
    done;
    (* Every child has its own pages now; the image's frames go back to
       the pool. *)
    Option.iter Checkpoint.release checkpoint;
    if !setup_cost > 0. then Engine.delay ctx !setup_cost;
    let b =
      {
        eng;
        alts = alt_arr;
        latch = Engine.Ivar.create ();
        remaining = spawned_count;
        attempted = 0;
        no_quorum = 0;
        guard_in_child =
          (match policy.guards with
          | Guard_in_child | Guard_redundant -> true
          | Guard_before_spawn | Guard_at_sync -> false);
        guard_at_sync =
          (match policy.guards with
          | Guard_at_sync | Guard_redundant -> true
          | Guard_in_child | Guard_before_spawn -> false);
        remote =
          (match policy.placement with
          | Local_spawn -> false
          | Remote_spawn | Remote_on_demand -> true);
        consensus;
        policy;
        epoch;
        acquire =
          (match (consensus, policy.sync) with
          | Some _, Consensus { reply_timeout; _ } ->
            {
              reply_timeout;
              a_epoch = Some epoch;
              a_deadline = Some deadline;
              a_retries = Some policy.sync_retries;
              a_backoff = Some policy.sync_backoff;
            }
          | _ -> no_acquire);
        model;
        trace = Engine.trace eng;
      }
    in
    if elide_consensus && Trace.wants b.trace Trace.Kind.note then
      Trace.record b.trace ~time:(Engine.now eng)
        (Trace.Note "consensus elided: alternatives proven mutually exclusive");
    let parent = Some parent_pid in
    let children = ref [] in
    for i = n - 1 downto 0 do
      if open_.(i) then children := pids.(i) :: !children
    done;
    let children = !children in
    let rivals = if spawned_count = n then pids else Array.of_list children in
    let exited st = child_exited b st in
    for i = 0 to n - 1 do
      if open_.(i) then begin
        let pid =
          Engine.spawn_process eng ~pid:pids.(i) ~parent
            ~predicate:(Predicate.assume_alternative parent_pred ~self:pids.(i) ~rivals)
            ~space:spaces.(i) ~cloneable:false ~oblivious:false ~start_delay:0.
            ~name:(alt_arr.(i).Alternative.name ^ index_suffix i)
            ~site:None
            (fun ctx -> child_body b i ctx)
        in
        Engine.on_exit eng pid exited
      end
    done;
    (* alt_wait: rendezvous with the first successful child. The wait is
       bounded by the policy's own timeout and by whatever remains of the
       request deadline — a deadline-bound block must resolve (degrade or
       fail) the moment its budget runs out, not at the block timeout. *)
    let wait_budget =
      Float.min policy.timeout (Float.max 0. (deadline -. Engine.now_v ctx))
    in
    (* The deadline and a fill at the same virtual time fire in (time,
       stamp) order: a fill whose event was scheduled before this wait
       parked wins, one scheduled after it finds the wait already resumed
       with [None]. The latch cannot be filled by then, so [None] needs no
       second look. *)
    let decision = Engine.Ivar.read_timeout ctx b.latch ~timeout:wait_budget in
    let selection_cost = ref 0. in
    let per_kill =
      model.Cost_model.kill_per_sibling
      +. if b.remote then model.Cost_model.msg_latency else 0.
    in
    let degraded = ref false and winner = ref None in
    let outcome =
      match decision with
      | (Some All_failed_l | None)
        when policy.degradation = Sequential_fallback
             && (Option.is_none decision || b.no_quorum > 0) ->
        (* Graceful degradation: abandon speculation and run the block the
           way a sequential program would have. Children are killed {e
           before} any cost is charged (a charge suspends the parent, and a
           straggler could win the latch during the suspension); then the
           alternatives run one by one in the parent, against the parent's
           own sink state, exactly as {!Alt_block} would. *)
        degraded := true;
        let reason =
          if Option.is_none decision then "alt_wait timeout" else "consensus unreachable"
        in
        if Trace.wants b.trace Trace.Kind.degraded then
          Trace.record b.trace ~time:(Engine.now eng)
            (Trace.Degraded { parent = parent_pid; reason });
        kill_open b pids open_ ~except:(-1) ~reason:"degraded to sequential" ~async:false;
        selection_cost :=
          !selection_cost +. charge_kills ctx ~victims:spawned_count ~per_kill;
        let outcome = Alt_block.run_first ctx alts in
        (match outcome with
        | Alt_block.Selected { index; _ } -> b.attempted <- b.attempted + index + 1
        | Alt_block.Block_failed _ -> b.attempted <- b.attempted + n);
        outcome
      | Some (Win { index; pid; value }) ->
        (* Rendezvous first, before the parent can suspend: the winner is
           still alive (it fills the latch before exiting), so its page map
           is absorbed atomically here and its own exit releases nothing. *)
        if Engine.alive eng pid then Engine.preserve_space eng pid;
        (match (parent_space, spaces.(index)) with
        | Some psp, Some csp ->
          (* A remote winner's state must first be shipped back. The
             checkpoint/restart scheme has no dirty-page tracking, so the
             whole image travels; the on-demand scheme ships only the pages
             the winner privatised. *)
          if b.remote then begin
            let back =
              match policy.placement with
              | Remote_on_demand ->
                model.Cost_model.msg_latency
                +. float_of_int (Address_space.private_pages csp)
                   *. model.Cost_model.remote_per_page
              | Remote_spawn | Local_spawn ->
                Cost_model.remote_spawn_cost model
                  ~mapped_pages:(Address_space.mapped_pages csp)
            in
            selection_cost := !selection_cost +. back;
            Engine.delay ctx back
          end;
          Address_space.absorb ~parent:psp ~child:csp;
          if Trace.wants b.trace Trace.Kind.absorbed then
            Trace.record b.trace ~time:(Engine.now eng)
              (Trace.Absorbed { parent = parent_pid; child = pid });
          let c = Address_space.drain_cost psp in
          selection_cost := !selection_cost +. c;
          if c > 0. then Engine.delay ctx c
        | _ -> ());
        selection_cost :=
          !selection_cost
          +. eliminate ctx b pids open_ ~per_kill ~victims:(spawned_count - 1)
               ~except:index ~reason:"sibling elimination";
        winner := Some pid;
        Alt_block.Selected { index; value }
      | Some All_failed_l when b.no_quorum > 0 ->
        (* Children died reporting "no quorum reachable", not genuine
           failure: report the synchronisation outage, not a lie about the
           alternatives. *)
        Alt_block.Block_failed "consensus unreachable"
      | Some All_failed_l -> Alt_block.Block_failed "no alternative succeeded"
      | None ->
        selection_cost :=
          !selection_cost
          +. eliminate ctx b pids open_ ~per_kill ~victims:spawned_count
               ~except:(-1) ~reason:"alt_wait timeout";
        Alt_block.Block_failed "timeout"
    in
    Option.iter Majority.shutdown owned_consensus;
    (* Release loser address spaces that were never started or whose owner
       is already gone (live losers release at their own elimination). *)
    let child_cow_copies = ref 0 in
    for i = 0 to n - 1 do
      match spaces.(i) with
      | Some sp ->
        if (not (Engine.alive eng pids.(i)))
           && not (Page_map.released (Address_space.map sp))
        then Address_space.release sp;
        child_cow_copies := !child_cow_copies + Address_space.cow_copies sp
      | None -> ()
    done;
    {
      outcome;
      winner = !winner;
      children;
      elapsed = Engine.now_v ctx -. t0;
      setup_cost = !setup_cost;
      spawned = spawned_count;
      selection_cost = !selection_cost;
      wasted_cpu = wasted_cpu eng ~winner:!winner children;
      child_cow_copies = !child_cow_copies;
      sync_messages =
        (match consensus with Some m -> Majority.messages_sent m | None -> 0);
      attempted = b.attempted;
      degraded = !degraded;
    }
  end

let run ctx ?(policy = default_policy) ?consensus:borrowed ?(epoch = 0)
    ?(exclusive = false) ?(deadline = infinity) alts =
  run_block ctx ~policy ~borrowed ~epoch ~exclusive ~deadline alts

(* ------------------------------------------------------------------ *)
(* Coordinator recovery: a supervised block survives the death of its
   own coordinator (parent), the paper's remaining single point of
   failure once the latch is majority-consensus.

   The watchdog checkpoints the parent's sink state once, at block entry
   (alt_spawn); voters are spread across sites and OUTLIVE any one
   incarnation, so their durable grants carry the at-most-once decision
   across restarts. When an incarnation dies undecided, the watchdog
   reaps its orphaned alternatives, fences the voters to the next epoch
   (a stale orphan's in-flight acquire is denied; a grant it already held
   becomes void), restores the checkpoint on a surviving site, and
   launches the next incarnation there. *)

type 'a supervised_report = {
  sr_report : 'a report;
  sr_incarnations : int;
  sr_recoveries : (Pid.t * Pid.t * int) list;
  sr_epoch : int;
  sr_coordinator : Pid.t option;
  sr_site : string option;
  sr_space : Address_space.t option;
}

(* One supervised block's state. Only one incarnation is ever alive: the
   next is launched from the exit watcher of the one before, so the
   [cur_*] fields always describe the incarnation whose exit is next,
   and its epoch is the count of incarnations (a decided one launches no
   successor, so the deciding epoch is the last). Each incarnation's
   body and exit watcher close over this record and nothing else of the
   block. *)
type 'a supervisor = {
  s_eng : Engine.t;
  s_sites : Sites.t;
  s_policy : policy;
  s_consensus : Majority.t;
  s_borrowed : Majority.t option;  (* [Some s_consensus], boxed once *)
  s_alts : 'a Alternative.t list;
  s_deadline : float;
  s_max_restarts : int;
  s_avoid : string list;
  s_image : Checkpoint.image option;  (* the parent's sink state at entry *)
  mutable s_result : 'a report option;  (* the deciding incarnation's *)
  mutable s_incarnations : int;
  mutable s_recoveries : (Pid.t * Pid.t * int) list;  (* newest first *)
  mutable s_coordinators : Pid.t list;  (* newest first *)
  mutable cur_pid : Pid.t;
  mutable cur_space : Address_space.t option;
  mutable cur_ours : bool;  (* [cur_space] is a restore the supervisor made *)
}

let rec mem_string s = function
  | [] -> false
  | x :: rest -> String.equal x s || mem_string s rest

(* Placement prefers alive sites whose circuit breaker (if the caller
   runs one) has not been tripped; when every alive site is to be
   avoided, avoidance yields — serving a request on a suspect site
   beats not serving it at all. *)
let usable s i ~avoiding =
  (not (Sites.is_crashed_at s.s_sites i))
  && not
       (avoiding
       && match Sites.label s.s_sites i with
          | Some name -> mem_string name s.s_avoid
          | None -> false)

let count_usable s ~avoiding =
  let k = ref 0 in
  for i = 0 to Sites.count s.s_sites - 1 do
    if usable s i ~avoiding then incr k
  done;
  !k

(* The index of the [r]th usable site. *)
let rec nth_usable s ~avoiding r i =
  if usable s i ~avoiding then
    if r = 0 then i else nth_usable s ~avoiding (r - 1) (i + 1)
  else nth_usable s ~avoiding r (i + 1)

(* Incarnation [epoch]'s site index, -1 when every site is down. *)
let pick_site s epoch =
  let preferred = if s.s_avoid = [] then 0 else count_usable s ~avoiding:true in
  let avoiding = preferred > 0 in
  let k = if avoiding then preferred else count_usable s ~avoiding:false in
  if k = 0 then -1 else nth_usable s ~avoiding ((epoch - 1) mod k) 0

let coordinator_body s epoch ctx =
  s.s_result <-
    Some
      (run_block ctx ~policy:s.s_policy ~borrowed:s.s_borrowed ~epoch
         ~exclusive:false ~deadline:s.s_deadline s.s_alts)

let rec kill_orphans eng = function
  | [] -> ()
  | c :: rest ->
    Engine.kill eng c ~reason:"orphaned alternative";
    kill_orphans eng rest

let rec launch s ~epoch ~site ~space ~ours ~start_delay =
  let eng = s.s_eng in
  s.s_incarnations <- s.s_incarnations + 1;
  let pid =
    Engine.spawn eng ?space ~cloneable:false ~name:(coordinator_name epoch)
      ?site:(Sites.label s.s_sites site) ~start_delay
      (fun ctx -> coordinator_body s epoch ctx)
  in
  if Option.is_some space then Engine.preserve_space eng pid;
  s.s_coordinators <- pid :: s.s_coordinators;
  s.cur_pid <- pid;
  s.cur_space <- space;
  s.cur_ours <- ours;
  Engine.on_exit eng pid (fun _ -> incarnation_exited s);
  pid

and incarnation_exited s =
  let eng = s.s_eng in
  if Option.is_none s.s_result then begin
    let pid = s.cur_pid in
    (* Died undecided. Reap the orphans first: an alternative must not
       keep running (let alone commit) into a dead block. *)
    kill_orphans eng (Engine.children_of eng pid);
    (* A restart past the request deadline could only deliver a late
       answer: spend the remaining budget on nothing and report the
       coordinator lost, honestly. *)
    if s.s_incarnations <= s.s_max_restarts && Engine.now eng < s.s_deadline then begin
      let epoch' = s.s_incarnations + 1 in
      let site' = pick_site s epoch' in
      if site' >= 0 (* else every site is down: nowhere to restart *) then begin
        Majority.fence s.s_consensus ~epoch:epoch';
        if s.cur_ours then Option.iter Address_space.release s.cur_space;
        let model = Engine.model eng in
        (* Restart cost: the checkpoint travels to the new site. *)
        let space', start_delay =
          match s.s_image with
          | Some img ->
            ( Some (Checkpoint.restore (Engine.frame_store eng) model img),
              Checkpoint.transfer_cost model img )
          | None -> (None, model.Cost_model.remote_spawn_base)
        in
        let pid' =
          launch s ~epoch:epoch' ~site:site' ~space:space'
            ~ours:(Option.is_some space') ~start_delay
        in
        s.s_recoveries <- (pid, pid', epoch') :: s.s_recoveries;
        if Trace.wants (Engine.trace eng) Trace.Kind.recovered then
          Trace.record (Engine.trace eng) ~time:(Engine.now eng)
            (Trace.Recovered { failed = pid; successor = pid'; epoch = epoch' })
      end
    end
  end

let run_supervised eng ?(policy = default_policy) ?space ?(max_restarts = 2)
    ?(deadline = infinity) ?(avoid_sites = []) ~sites alts =
  let consensus =
    match policy.sync with
    | Local ->
      invalid_arg "Concurrent.run_supervised: requires a Consensus sync policy"
    | Consensus { nodes; crashed; vote_delay; _ } ->
      Majority.create eng ~nodes ~crashed ~vote_delay ~sites:(Sites.names sites)
        ()
  in
  let t0 = Engine.now eng in
  let s =
    {
      s_eng = eng;
      s_sites = sites;
      s_policy = policy;
      s_consensus = consensus;
      s_borrowed = Some consensus;
      s_alts = alts;
      s_deadline = deadline;
      s_max_restarts = max_restarts;
      s_avoid = avoid_sites;
      s_image = (match space with Some sp -> Some (Checkpoint.capture sp) | None -> None);
      s_result = None;
      s_incarnations = 0;
      s_recoveries = [];
      s_coordinators = [];
      cur_pid = Pid.of_int (-1);
      cur_space = None;
      cur_ours = false;
    }
  in
  let site = pick_site s 1 in
  if site < 0 then invalid_arg "Concurrent.run_supervised: no alive site";
  ignore (launch s ~epoch:1 ~site ~space ~ours:false ~start_delay:0.);
  Engine.run eng;
  (* Quiescent: no incarnation is left to die, so the last restore is
     done. *)
  Option.iter Checkpoint.release s.s_image;
  Majority.shutdown consensus;
  let all_children =
    match s.s_coordinators with
    | [ pid ] -> Engine.children_of eng pid
    | coordinators -> List.concat_map (Engine.children_of eng) (List.rev coordinators)
  in
  let sr_report =
    match s.s_result with
    | Some r ->
      let w = wasted_cpu eng ~winner:r.winner all_children in
      if w = r.wasted_cpu then r else { r with wasted_cpu = w }
    | None ->
      (* No incarnation lived to decide: report the outage honestly (no
         phantom winner, no fabricated costs). *)
      failed_report ~reason:"coordinator lost" ~children:all_children
        ~elapsed:(Engine.now eng -. t0)
        ~wasted_cpu:(wasted_cpu eng ~winner:None all_children)
        ~sync_messages:(Majority.messages_sent consensus)
  in
  {
    sr_report;
    sr_incarnations = s.s_incarnations;
    sr_recoveries = List.rev s.s_recoveries;
    sr_epoch = s.s_incarnations;
    sr_coordinator = Some s.cur_pid;
    sr_site = Engine.site_of eng s.cur_pid;
    sr_space = s.cur_space;
  }

let run_toplevel eng ?policy ?space ?exclusive ?deadline alts =
  let result = ref None in
  let pid =
    Engine.spawn eng ?space ~cloneable:false ~name:"alt-parent" (fun ctx ->
        result := Some (run ctx ?policy ?exclusive ?deadline alts))
  in
  (* The caller owns the space it passed in and may inspect the absorbed
     state after the run. *)
  if Option.is_some space then Engine.preserve_space eng pid;
  Engine.run eng;
  match !result with
  | Some r ->
    (* The in-process report counts waste up to the parent's resumption;
       with asynchronous elimination the zombies keep burning CPU after
       that, so recount now that the simulation is quiescent. *)
    let w = wasted_cpu eng ~winner:r.winner r.children in
    if w = r.wasted_cpu then r else { r with wasted_cpu = w }
  | None -> failwith "Concurrent.run_toplevel: block did not complete"
