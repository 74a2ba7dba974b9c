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

type 'a latch_value =
  | Win of { index : int; pid : Pid.t; value : 'a }
  | All_failed_l

(* Build the child predicates: each alternative inherits the parent's
   assumptions, assumes it completes, and assumes its open siblings do not
   (section 3.3: "sibling rivalry taken to its extreme"). A closed one is
   never spawned, so its fate, never decided, must not be assumed. *)
let child_predicate parent_pred pids open_ i =
  let p = ref (Predicate.assume_completes parent_pred pids.(i)) in
  for j = 0 to Array.length pids - 1 do
    if j <> i && open_.(j) then p := Predicate.assume_fails !p pids.(j)
  done;
  !p

(* CPU burnt by every child but the winner, added in the order given:
   each caller passes its children in ascending pid order. *)
let wasted_cpu eng ~winner children =
  List.fold_left
    (fun acc c ->
      match winner with
      | Some w when Pid.equal w c -> acc
      | _ -> acc +. Engine.cpu_time_of eng c)
    0. children

(* Child [i] of alternative [name] is ["name[i]"]; incarnation [e] of a
   supervised block's coordinator is ["alt-parent.e<e>"]. *)
let index_suffix = Names.indexed 16 (Printf.sprintf "[%d]")
let coordinator_name = Names.indexed 8 (Printf.sprintf "alt-parent.e%d")

let run ctx ?(policy = default_policy) ?consensus:borrowed ?(epoch = 0)
    ?(exclusive = false) ?(deadline = infinity) alts =
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
  let guard_before =
    match policy.guards with
    | Guard_before_spawn | Guard_redundant -> true
    | Guard_in_child | Guard_at_sync -> false
  in
  let guard_in_child =
    match policy.guards with
    | Guard_in_child | Guard_redundant -> true
    | Guard_before_spawn | Guard_at_sync -> false
  in
  let guard_at_sync =
    match policy.guards with
    | Guard_at_sync | Guard_redundant -> true
    | Guard_in_child | Guard_before_spawn -> false
  in
  (* Pre-spawn guard evaluation happens serially in the parent; closed
     alternatives are never spawned. *)
  let open_ =
    Array.map
      (fun alt -> (not guard_before) || alt.Alternative.guard ctx)
      alt_arr
  in
  let spawned_count = Array.fold_left (fun a b -> if b then a + 1 else a) 0 open_ in
  if spawned_count = 0 then
    {
      outcome = Alt_block.Block_failed "no open alternative";
      winner = None;
      children = [];
      elapsed = Engine.now_v ctx -. t0;
      setup_cost = 0.;
      spawned = 0;
      selection_cost = 0.;
      wasted_cpu = 0.;
      child_cow_copies = 0;
      sync_messages = 0;
      attempted = 0;
      degraded = false;
    }
  else begin
    let pids = Array.of_list (Engine.fresh_pids eng n) in
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
    let consensus =
      match borrowed with Some m -> Some m | None -> owned_consensus
    in
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
      {
        model with
        Cost_model.page_copy =
          model.Cost_model.page_copy +. model.Cost_model.remote_per_page;
      }
    in
    let setup_cost = ref 0. in
    let spaces =
      Array.init n (fun i ->
          if not open_.(i) then None
          else
            match (policy.placement, parent_space) with
            | Local_spawn, Some sp ->
              let child = Address_space.fork sp in
              setup_cost := !setup_cost +. Address_space.drain_cost child;
              Some child
            | Local_spawn, None ->
              setup_cost := !setup_cost +. model.Cost_model.fork_base;
              None
            | Remote_spawn, Some _ ->
              let image = Option.get checkpoint in
              let child =
                Checkpoint.restore (Engine.frame_store eng) model image
              in
              setup_cost := !setup_cost +. Checkpoint.transfer_cost model image;
              Some child
            | Remote_spawn, None ->
              setup_cost :=
                !setup_cost +. model.Cost_model.remote_spawn_base;
              None
            | Remote_on_demand, Some sp ->
              (* No image travels at spawn: just the process state and one
                 control round trip. *)
              let child = Address_space.fork ~model:on_demand_model sp in
              ignore (Address_space.drain_cost child);
              setup_cost :=
                !setup_cost +. model.Cost_model.fork_base
                +. model.Cost_model.msg_latency;
              Some child
            | Remote_on_demand, None ->
              setup_cost :=
                !setup_cost +. model.Cost_model.fork_base
                +. model.Cost_model.msg_latency;
              None)
    in
    (* Every child has its own pages now; the image's frames go back to
       the pool. *)
    Option.iter Checkpoint.release checkpoint;
    if !setup_cost > 0. then Engine.delay ctx !setup_cost;
    let latch : 'a latch_value Engine.Ivar.t = Engine.Ivar.create () in
    let remaining = ref spawned_count in
    (* Alternatives that ran their body to a verdict (value, declared
       failure, or crash) — as opposed to being eliminated mid-flight.
       This is what a recovery block may honestly call "attempts". *)
    let attempted = ref 0 in
    (* Children whose consensus rounds ended undecided (no quorum
       reachable): distinguishes "every alternative genuinely failed" from
       "the synchronisation layer was unreachable". *)
    let no_quorum_seen = ref 0 in
    (* Callers test [wants] for the kind first: an event no subscriber
       reads is not worth building. *)
    let trace = Engine.trace eng in
    let tr e = Trace.record trace ~time:(Engine.now eng) e in
    if elide_consensus && Trace.wants trace Trace.Kind.note then
      tr (Trace.Note "consensus elided: alternatives proven mutually exclusive");
    let remote =
      match policy.placement with
      | Remote_spawn | Remote_on_demand -> true
      | Local_spawn -> false
    in
    Array.iteri
      (fun i alt ->
        if open_.(i) then begin
          let body child_ctx =
            if guard_in_child && not (alt.Alternative.guard child_ctx) then
              Engine.abort child_ctx "guard failed";
            let value =
              try
                let v = alt.Alternative.body child_ctx in
                incr attempted;
                v
              with
              | Alternative.Failed r ->
                incr attempted;
                Engine.abort child_ctx ("failed: " ^ r)
              | (Engine.Process_killed _ | Engine.Abort_process _) as e ->
                (* Eliminated (or self-aborted) mid-body: not an attempt. *)
                raise e
              | e ->
                incr attempted;
                raise e
            in
            Engine.charge_memory child_ctx;
            if guard_at_sync && not (alt.Alternative.guard child_ctx) then
              Engine.abort child_ctx "guard failed at sync";
            (* A remote child's synchronisation attempt crosses the
               network. *)
            if remote then Engine.delay child_ctx model.Cost_model.msg_latency;
            let me = Engine.self child_ctx in
            let verdict =
              match consensus with
              | None ->
                if Engine.Ivar.try_fill latch (Win { index = i; pid = me; value })
                then `Won
                else `Late
              | Some maj ->
                let reply_timeout =
                  match policy.sync with
                  | Consensus { reply_timeout; _ } -> reply_timeout
                  | Local -> assert false
                in
                (match
                   Majority.acquire_retry child_ctx maj ~epoch ~deadline
                     ~reply_timeout ~retries:policy.sync_retries
                     ~backoff:policy.sync_backoff ()
                 with
                | Majority.Granted ->
                  ignore
                    (Engine.Ivar.try_fill latch (Win { index = i; pid = me; value }));
                  `Won
                | Majority.Denied -> `Late
                | Majority.No_quorum -> `No_quorum)
            in
            match verdict with
            | `Won ->
              if Trace.wants trace Trace.Kind.sync_won then
                tr (Trace.Sync_won { pid = me; index = i; epoch })
            | `Late ->
              if Trace.wants trace Trace.Kind.sync_late then
                tr (Trace.Sync_late { pid = me; index = i });
              Engine.abort child_ctx "too late"
            | `No_quorum ->
              (* Not a loss: the decision was never made. No [Sync_late]
                 is recorded — the at-most-once audit counts those as
                 decided denials. *)
              incr no_quorum_seen;
              Engine.abort child_ctx "no quorum reachable"
          in
          let pid =
            Engine.spawn eng ~pid:pids.(i) ~parent:parent_pid
              ~predicate:(child_predicate parent_pred pids open_ i)
              ?space:spaces.(i) ~cloneable:false
              ~name:(alt.Alternative.name ^ index_suffix i)
              body
          in
          Engine.on_exit eng pid (fun st ->
              decr remaining;
              match st with
              | Engine.Exited_ok -> ()
              | Engine.Exited_failed _ | Engine.Crashed _ | Engine.Eliminated _ ->
                if !remaining = 0 && not (Engine.Ivar.is_filled latch) then
                  ignore (Engine.Ivar.try_fill latch All_failed_l))
        end)
      alt_arr;
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
    let decision = Engine.Ivar.read_timeout ctx latch ~timeout:wait_budget in
    let selection_cost = ref 0. in
    let per_kill =
      model.Cost_model.kill_per_sibling
      +. if remote then model.Cost_model.msg_latency else 0.
    in
    let eliminate ~except ~reason =
      let victims =
        Array.to_list pids
        |> List.filteri (fun i _ -> open_.(i))
        |> List.filter (fun pid -> not (Option.equal Pid.equal (Some pid) except))
      in
      match policy.elimination with
      | Sync_elim ->
        let issue = float_of_int (List.length victims) *. per_kill in
        if issue > 0. then begin
          Engine.delay ctx issue;
          selection_cost := !selection_cost +. issue
        end;
        List.iter (fun pid -> Engine.kill eng pid ~reason) victims
      | Async_elim ->
        List.iter
          (fun pid ->
            Engine.after eng ~delay:model.Cost_model.msg_latency (fun () ->
                Engine.kill eng pid ~reason))
          victims
      | No_elim -> ()
    in
    let degraded = ref false in
    (* Graceful degradation: abandon speculation and run the block the way
       a sequential program would have. Children are killed {e before} any
       cost is charged (a charge suspends the parent, and a straggler could
       win the latch during the suspension); then the alternatives run one
       by one in the parent, against the parent's own sink state, exactly
       as {!Alt_block} would. *)
    let degrade reason =
      degraded := true;
      if Trace.wants trace Trace.Kind.degraded then
        tr (Trace.Degraded { parent = parent_pid; reason });
      let victims =
        Array.to_list pids |> List.filteri (fun i _ -> open_.(i))
      in
      List.iter
        (fun pid -> Engine.kill eng pid ~reason:"degraded to sequential")
        victims;
      let issue = float_of_int (List.length victims) *. per_kill in
      if issue > 0. then begin
        Engine.delay ctx issue;
        selection_cost := !selection_cost +. issue
      end;
      let outcome = Alt_block.run_first ctx alts in
      let tried =
        match outcome with
        | Alt_block.Selected { index; _ } -> index + 1
        | Alt_block.Block_failed _ -> List.length alts
      in
      attempted := !attempted + tried;
      (outcome, None)
    in
    let outcome, winner =
      match decision with
      | Some All_failed_l
        when !no_quorum_seen > 0 && policy.degradation = Sequential_fallback ->
        degrade "consensus unreachable"
      | None when policy.degradation = Sequential_fallback ->
        degrade "alt_wait timeout"
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
          (match policy.placement with
          | Remote_spawn ->
            let back =
              Cost_model.remote_spawn_cost model
                ~mapped_pages:(Address_space.mapped_pages csp)
            in
            selection_cost := !selection_cost +. back;
            Engine.delay ctx back
          | Remote_on_demand ->
            let dirty = Address_space.private_pages csp in
            let back =
              model.Cost_model.msg_latency
              +. (float_of_int dirty *. model.Cost_model.remote_per_page)
            in
            selection_cost := !selection_cost +. back;
            Engine.delay ctx back
          | Local_spawn -> ());
          Address_space.absorb ~parent:psp ~child:csp;
          if Trace.wants trace Trace.Kind.absorbed then
            tr (Trace.Absorbed { parent = parent_pid; child = pid });
          let c = Address_space.drain_cost psp in
          selection_cost := !selection_cost +. c;
          if c > 0. then Engine.delay ctx c
        | _ -> ());
        eliminate ~except:(Some pid) ~reason:"sibling elimination";
        (Alt_block.Selected { index; value }, Some pid)
      | Some All_failed_l when !no_quorum_seen > 0 ->
        (* Children died reporting "no quorum reachable", not genuine
           failure: report the synchronisation outage, not a lie about the
           alternatives. *)
        (Alt_block.Block_failed "consensus unreachable", None)
      | Some All_failed_l -> (Alt_block.Block_failed "no alternative succeeded", None)
      | None ->
        eliminate ~except:None ~reason:"alt_wait timeout";
        (Alt_block.Block_failed "timeout", None)
    in
    Option.iter Majority.shutdown owned_consensus;
    (* Release loser address spaces that were never started or whose owner
       is already gone (live losers release at their own elimination). *)
    Array.iteri
      (fun i sp ->
        match sp with
        | Some sp
          when (not (Engine.alive eng pids.(i)))
               && not (Page_map.released (Address_space.map sp)) ->
          Address_space.release sp
        | _ -> ())
      spaces;
    let children = Array.to_list pids |> List.filteri (fun i _ -> open_.(i)) in
    let child_cow_copies =
      Array.fold_left
        (fun acc sp ->
          match sp with Some sp -> acc + Address_space.cow_copies sp | None -> acc)
        0 spaces
    in
    {
      outcome;
      winner;
      children;
      elapsed = Engine.now_v ctx -. t0;
      setup_cost = !setup_cost;
      spawned = spawned_count;
      selection_cost = !selection_cost;
      wasted_cpu = wasted_cpu eng ~winner children;
      child_cow_copies;
      sync_messages =
        (match consensus with Some m -> Majority.messages_sent m | None -> 0);
      attempted = !attempted;
      degraded = !degraded;
    }
  end

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
  let model = Engine.model eng in
  let t0 = Engine.now eng in
  let image = Option.map Checkpoint.capture space in
  let tr e = Trace.record (Engine.trace eng) ~time:(Engine.now eng) e in
  let result = ref None in
  let incarnations = ref 0 in
  let recoveries = ref [] in
  let coordinators = ref [] in  (* (pid, its space, space is ours) newest first *)
  (* Placement prefers alive sites whose circuit breaker (if the caller
     runs one) has not been tripped; when every alive site is to be
     avoided, avoidance yields — serving a request on a suspect site
     beats not serving it at all. *)
  let pick_site epoch =
    match Sites.alive_sites sites with
    | [] -> None
    | alive ->
      let usable =
        match List.filter (fun s -> not (List.mem s avoid_sites)) alive with
        | [] -> alive
        | preferred -> preferred
      in
      Some (List.nth usable ((epoch - 1) mod List.length usable))
  in
  let rec launch ~epoch ~site ~space_now ~ours ~start_delay =
    incr incarnations;
    let pid =
      Engine.spawn eng ?space:space_now ~cloneable:false
        ~name:(coordinator_name epoch)
        ~site ~start_delay
        (fun ctx ->
          result := Some (epoch, run ctx ~policy ~consensus ~epoch ~deadline alts))
    in
    if Option.is_some space_now then Engine.preserve_space eng pid;
    coordinators := (pid, space_now, ours) :: !coordinators;
    Engine.on_exit eng pid (fun _st ->
        if !result = None then begin
          (* Died undecided. Reap the orphans first: an alternative must
             not keep running (let alone commit) into a dead block. *)
          List.iter
            (fun c -> Engine.kill eng c ~reason:"orphaned alternative")
            (Engine.children_of eng pid);
          (* A restart past the request deadline could only deliver a
             late answer: spend the remaining budget on nothing and
             report the coordinator lost, honestly. *)
          if !incarnations <= max_restarts && Engine.now eng < deadline
          then begin
            let epoch' = epoch + 1 in
            match pick_site epoch' with
            | None -> () (* every site is down: nowhere to restart *)
            | Some site' ->
              Majority.fence consensus ~epoch:epoch';
              if ours then Option.iter Address_space.release space_now;
              let space' =
                Option.map
                  (fun img ->
                    Checkpoint.restore (Engine.frame_store eng) model img)
                  image
              in
              (* Restart cost: the checkpoint travels to the new site. *)
              let start_delay =
                match image with
                | Some img -> Checkpoint.transfer_cost model img
                | None -> model.Cost_model.remote_spawn_base
              in
              let pid' =
                launch ~epoch:epoch' ~site:site' ~space_now:space'
                  ~ours:(Option.is_some space') ~start_delay
              in
              recoveries := (pid, pid', epoch') :: !recoveries;
              if Trace.wants (Engine.trace eng) Trace.Kind.recovered then
                tr (Trace.Recovered { failed = pid; successor = pid'; epoch = epoch' })
          end
        end);
    pid
  in
  (match pick_site 1 with
  | None -> invalid_arg "Concurrent.run_supervised: no alive site"
  | Some site ->
    ignore (launch ~epoch:1 ~site ~space_now:space ~ours:false ~start_delay:0.));
  Engine.run eng;
  (* Quiescent: no incarnation is left to die, so the last restore is
     done. *)
  Option.iter Checkpoint.release image;
  Majority.shutdown consensus;
  let final_pid, final_space =
    match !coordinators with
    | (pid, sp, _) :: _ -> (Some pid, sp)
    | [] -> (None, None)
  in
  let all_children =
    List.concat_map
      (fun (pid, _, _) -> Engine.children_of eng pid)
      (List.rev !coordinators)
  in
  let sr_epoch, sr_report =
    match !result with
    | Some (epoch, r) ->
      (epoch, { r with wasted_cpu = wasted_cpu eng ~winner:r.winner all_children })
    | None ->
      (* No incarnation lived to decide: report the outage honestly (no
         phantom winner, no fabricated costs). *)
      ( !incarnations,
        {
          outcome = Alt_block.Block_failed "coordinator lost";
          winner = None;
          children = all_children;
          elapsed = Engine.now eng -. t0;
          setup_cost = 0.;
          spawned = List.length all_children;
          selection_cost = 0.;
          wasted_cpu = wasted_cpu eng ~winner:None all_children;
          child_cow_copies = 0;
          sync_messages = Majority.messages_sent consensus;
          attempted = 0;
          degraded = false;
        } )
  in
  {
    sr_report;
    sr_incarnations = !incarnations;
    sr_recoveries = List.rev !recoveries;
    sr_epoch;
    sr_coordinator = final_pid;
    sr_site = Option.bind final_pid (Engine.site_of eng);
    sr_space = final_space;
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
    { r with wasted_cpu = wasted_cpu eng ~winner:r.winner r.children }
  | None -> failwith "Concurrent.run_toplevel: block did not complete"
