type scenario = {
  sc_name : string;
  uses_source : bool;
  source_script : string list;
  prepare : Engine.t -> Address_space.t -> unit;
  alts :
    Engine.t -> seed:int -> source:Source.t option -> int Alternative.t list;
  sc_exclusive : bool;
}

type run = {
  engine : Engine.t;
  space : Address_space.t;
  source : Source.t option;
  report : int Concurrent.report;
  supervised : (Sites.t * int Concurrent.supervised_report) option;
  policy : Concurrent.policy;
  scenario : scenario;
  seed : int;
  alts_count : int;
  writes : Race.writes;
  history : History.t;
  sanitizer : Sanitizer.t option;
}

let viol rr check detail =
  Report.violation check ~scenario:rr.scenario.sc_name
    ~policy:(Concurrent.describe rr.policy) ~seed:rr.seed detail

(* An unsupervised block is epoch 0 and never recovers. *)
let deciding_epoch rr =
  match rr.supervised with
  | None -> 0
  | Some (_, sr) -> sr.Concurrent.sr_epoch

(* Coordinators a recovery fenced off: their wins and rendezvous are void. *)
let fenced_coordinators rr =
  match rr.supervised with
  | None -> []
  | Some (_, sr) ->
    List.map (fun (failed, _, _) -> failed) sr.Concurrent.sr_recoveries

(* Every alternative of every incarnation. The report lists the deciding
   incarnation's (all of them when none decided). *)
let block_children rr =
  let own = rr.report.Concurrent.children in
  List.filter
    (fun c -> not (List.exists (Pid.equal c) own))
    (List.concat_map (Engine.children_of rr.engine) (fenced_coordinators rr))
  @ own

(* ------------------------------------------------------------------ *)
(* Running a block: the one runner, for the oracle and the server.     *)

type mode =
  | Racing of { exclusive : bool; budget : float }
  | Supervised of {
      sites : Sites.t;
      max_restarts : int;
      budget : float;
      avoid_sites : unit -> string list;
    }
  | Sequential

type block = {
  bl_space : Address_space.t;
  bl_source : Source.t option;
  bl_alts : int Alternative.t list;
  mutable bl_report : int Concurrent.report;
  mutable bl_supervised : int Concurrent.supervised_report option;
}

let mk_engine ?(record = false) seed =
  Engine.create ~model:Cost_model.att_3b2 ~seed ~trace:record ()

(* The report of a block that is staged but has not run. *)
let unrun =
  { Concurrent.outcome = Alt_block.Block_failed "not run"; winner = None;
    children = []; elapsed = 0.; setup_cost = 0.; spawned = 0;
    selection_cost = 0.; wasted_cpu = 0.; child_cow_copies = 0;
    sync_messages = 0; attempted = 0; degraded = false }

(* The one staging step, and the only caller of [scenario.prepare] and
   [scenario.alts]. *)
let stage ?sanitizer ?source_name engine scenario ~seed =
  let space =
    Address_space.create (Engine.frame_store engine) (Engine.model engine)
  in
  scenario.prepare engine space;
  ignore (Address_space.drain_cost space);
  let source =
    if not scenario.uses_source then None
    else begin
      let name =
        match source_name with Some n -> n | None -> scenario.sc_name ^ "-tty"
      in
      let s = Source.create engine ~name in
      Source.feed s scenario.source_script;
      Some s
    end
  in
  (match (sanitizer, source) with
  | Some sz, Some src -> Sanitizer.observe_source sz src
  | _ -> ());
  let alts = scenario.alts engine ~seed ~source in
  {
    bl_space = space;
    bl_source = source;
    bl_alts = alts;
    bl_report = unrun;
    bl_supervised = None;
  }

(* Ladder rung 2: first-fit sequential execution in a root process. The
   report claims no winner, children or sync traffic and flags itself
   degraded, the shape [check_report] demands of a sequential fallback. *)
let run_sequential engine ~space alts =
  let outcome = ref None in
  let t0 = Engine.now engine in
  let pid =
    Engine.spawn engine ~space ~cloneable:false ~name:"alt-seq" (fun ctx ->
        outcome := Some (Alt_block.run_first ctx alts))
  in
  Engine.preserve_space engine pid;
  Engine.run engine;
  match !outcome with
  | None -> failwith "Invariants.run_block: sequential block did not complete"
  | Some outcome ->
    {
      unrun with
      Concurrent.outcome;
      elapsed = Engine.now engine -. t0;
      attempted =
        (match outcome with
        | Alt_block.Selected { index; _ } -> index + 1
        | Alt_block.Block_failed _ -> List.length alts);
      degraded = true;
    }

(* A budget of [infinity] is no deadline, and boxes nothing. *)
let deadline engine budget =
  if budget < infinity then Some (Engine.now engine +. budget) else None

let run_block ?sanitizer ?source_name engine scenario mode ~policy ~seed =
  let b = stage ?sanitizer ?source_name engine scenario ~seed in
  let space = b.bl_space and alts = b.bl_alts in
  (try
     match mode with
     | Racing { exclusive; budget } ->
       b.bl_report <-
         Concurrent.run_toplevel engine ~policy ~space
           ?exclusive:(if exclusive then Some true else None)
           ?deadline:(deadline engine budget) alts
     | Supervised { sites; max_restarts; budget; avoid_sites } ->
       let sr =
         Concurrent.run_supervised engine ~policy ~space ~max_restarts
           ?deadline:(deadline engine budget) ~avoid_sites:(avoid_sites ())
           ~sites alts
       in
       b.bl_report <- sr.Concurrent.sr_report;
       b.bl_supervised <- Some sr
     | Sequential -> b.bl_report <- run_sequential engine ~space alts
   with e ->
     (* The root died: nothing reads the space again. *)
     Address_space.release space;
     raise e);
  b

let run_scenario ?record ?faults ?sites ?(sanitize = false) ?mode scenario
    ~policy ~seed =
  let engine = mk_engine ?record seed in
  (* The monitors must see every Spawned event and page write, and a
     fault plan hooks the engine before anything is spawned. *)
  let history = History.attach (Engine.trace engine) in
  let sanitizer = if sanitize then Some (Sanitizer.attach engine) else None in
  let topology = Option.map (fun names -> Sites.create engine ~names) sites in
  Option.iter (fun plan -> Faultplan.install ?sites:topology plan engine) faults;
  let writes = Race.record (Engine.frame_store engine) in
  let mode =
    match (topology, mode) with
    | None, None -> Racing { exclusive = false; budget = infinity }
    | None, Some ((Racing _ | Sequential) as mode) -> mode
    | Some sites, None ->
      Supervised
        { sites; max_restarts = 2; budget = infinity; avoid_sites = (fun () -> []) }
    | _, Some _ ->
      invalid_arg "Invariants.run_scenario: a supervised block takes ~sites"
  in
  let b = run_block ?sanitizer engine scenario mode ~policy ~seed in
  let space, supervised =
    match (topology, b.bl_supervised) with
    | Some sites, Some sr ->
      (Option.value sr.Concurrent.sr_space ~default:b.bl_space, Some (sites, sr))
    | _ -> (b.bl_space, None)
  in
  {
    engine;
    space;
    source = b.bl_source;
    report = b.bl_report;
    supervised;
    policy;
    scenario;
    seed;
    alts_count = List.length b.bl_alts;
    writes;
    history;
    sanitizer;
  }

(* ------------------------------------------------------------------ *)
(* At-most-once synchronisation.                                       *)

let check_at_most_once rr h =
  let out = ref [] in
  let add d = out := viol rr Report.At_most_once d :: !out in
  let epoch = deciding_epoch rr in
  let fenced = fenced_coordinators rr in
  let all_wins = History.sync_wins h in
  (* The latch is 0-1 within one incarnation, whatever the sites did. *)
  List.iter
    (fun e ->
      match List.filter (fun (_, _, e') -> e' = e) all_wins with
      | _ :: _ :: _ as ws ->
        add
          (Printf.sprintf
             "%d Sync_won events within epoch %d: the at-most-once latch \
              fired more than once"
             (List.length ws) e)
      | _ -> ())
    (List.sort_uniq Int.compare (List.map (fun (_, _, e) -> e) all_wins));
  (* A win in an epoch a recovery fenced is void: only the deciding
     incarnation's win speaks for the block. *)
  let wins = List.filter (fun (_, _, e) -> e = epoch) all_wins in
  let lates = History.sync_lates h in
  let winner = rr.report.Concurrent.winner in
  (if rr.report.Concurrent.degraded then begin
     (* The block abandoned speculation: the at-most-once obligation is
        that {e nothing} won — every child must have been prevented from
        committing before the sequential fallback ran. *)
     if wins <> [] then
       add
         "Sync_won recorded although the block degraded to sequential \
          execution";
     match winner with
     | Some w ->
       add
         (Format.asprintf
            "a degraded block reported %a as a speculative winner" Pid.pp w)
     | None -> ()
   end
   else
  match rr.report.Concurrent.outcome with
  | Alt_block.Selected { index; _ } -> (
    match wins with
    | [ (pid, i, _) ] ->
      if not (Option.equal Pid.equal (Some pid) winner) then
        add
          (Format.asprintf
             "Sync_won by %a but the report names %s as the winner" Pid.pp pid
             (match winner with
             | Some w -> Format.asprintf "%a" Pid.pp w
             | None -> "nobody"));
      if i <> index then
        add
          (Printf.sprintf
             "Sync_won for alternative %d but the outcome selected %d" i index)
    | [] ->
      add
        (Printf.sprintf "outcome is Selected but epoch %d recorded no Sync_won"
           epoch)
    | _ -> ())
  | Alt_block.Block_failed _ ->
    if wins <> [] then
      add "Sync_won recorded although the block reported failure");
  List.iter
    (fun (pid, _, _) ->
      if List.exists (fun (p, _) -> Pid.equal p pid) lates then
        add
          (Format.asprintf "%a both won and lost the synchronisation" Pid.pp
             pid))
    all_wins;
  let rec dup_late = function
    | [] -> ()
    | (pid, _) :: rest ->
      if List.exists (fun (p, _) -> Pid.equal p pid) rest then
        add
          (Format.asprintf "%a was told \"too late\" more than once" Pid.pp pid);
      dup_late (List.filter (fun (p, _) -> not (Pid.equal p pid)) rest)
  in
  dup_late lates;
  let children = block_children rr in
  List.iter
    (fun (pid, _) ->
      if not (List.exists (Pid.equal pid) children) then
        add
          (Format.asprintf "Sync_late for %a, which is not a block child"
             Pid.pp pid)
      else if Option.equal Pid.equal (Some pid) winner then
        add (Format.asprintf "the winner %a was also told \"too late\"" Pid.pp pid))
    lates;
  let absorbs =
    List.filter
      (fun (parent, _) -> not (List.exists (Pid.equal parent) fenced))
      (History.absorbs h)
  in
  if List.length absorbs > 1 then
    add
      (Printf.sprintf "%d Absorbed rendezvous in one block"
         (List.length absorbs));
  (match (absorbs, winner) with
  | (_, child) :: _, Some w when not (Pid.equal child w) ->
    add
      (Format.asprintf "absorbed %a's pages but the winner is %a" Pid.pp child
         Pid.pp w)
  | (_, child) :: _, None ->
    add (Format.asprintf "absorbed %a's pages without a winner" Pid.pp child)
  | _ -> ());
  (match (rr.report.Concurrent.outcome, winner) with
  | Alt_block.Selected _, Some w
    when Engine.space_of rr.engine w <> None && absorbs = [] ->
    add "the winner owned an address space but no Absorbed rendezvous happened"
  | _ -> ());
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Transparency: compare against a fresh sequential run.               *)

let sequential_reference scenario ~seed ~indices =
  let engine = mk_engine seed in
  let { bl_space = space; bl_source = source; bl_alts = alts; _ } =
    stage engine scenario ~seed
  in
  let outcome = ref None in
  let pid =
    Engine.spawn engine ~space ~cloneable:false ~name:"seq-ref" (fun ctx ->
        let chosen = List.filteri (fun i _ -> List.mem i indices) alts in
        outcome := Some (Alt_block.run_first ctx chosen))
  in
  Engine.preserve_space engine pid;
  Engine.run engine;
  (!outcome, space, source)

let source_lines = function
  | None -> []
  | Some s -> List.map (fun (_, _, l) -> l) (Source.output s)

let check_transparency rr h =
  let v d = [ viol rr Report.Transparency d ] in
  let compare_state sspace ssource =
    let state_ok =
      Page_map.snapshot_equal
        (Address_space.map rr.space)
        (Address_space.map sspace)
    in
    (if state_ok then []
     else
       v
         "the surviving address space differs from a sequential execution \
          of the winning alternative alone")
    @
    let cl = source_lines rr.source and sl = source_lines ssource in
    if cl = sl then []
    else
      v
        (Printf.sprintf
           "source output differs from the sequential reference: [%s] vs [%s]"
           (String.concat "; " cl) (String.concat "; " sl))
  in
  match rr.report.Concurrent.outcome with
  | Alt_block.Block_failed "timeout" | Alt_block.Block_failed "consensus unreachable"
    ->
    (* The block gave up on the race (deadline, or the synchronisation
       layer was unreachable); there is no sequential counterpart to
       compare against. *)
    []
  | Alt_block.Block_failed _
    when History.faulted h ->
    (* An injected fault (dropped message, killed child, ...) may honestly
       fail a block that would succeed sequentially: availability is
       sacrificed, not transparency. What must {e never} happen — and is
       still checked below — is a faulted block {e selecting} a result
       that differs from the sequential semantics. *)
    []
  | Alt_block.Block_failed _ -> (
    let indices = List.init rr.alts_count Fun.id in
    match sequential_reference rr.scenario ~seed:rr.seed ~indices with
    | Some (Alt_block.Selected { index; _ }), _, _ ->
      v
        (Printf.sprintf
           "the block failed although a sequential execution selects \
            alternative %d"
           index)
    | Some (Alt_block.Block_failed _), sspace, ssource ->
      compare_state sspace ssource
    | None, _, _ -> v "sequential reference execution did not complete"
  )
  | Alt_block.Selected { index; value } when rr.report.Concurrent.degraded -> (
    (* The sequential fallback tried the alternatives in order, so the
       reference is a plain first-fit run over all of them — and the
       surviving state must still be indistinguishable from it. *)
    let indices = List.init rr.alts_count Fun.id in
    match sequential_reference rr.scenario ~seed:rr.seed ~indices with
    | Some (Alt_block.Selected { index = index'; value = value' }), sspace, ssource
      ->
      (if index' <> index || value' <> value then
         v
           (Printf.sprintf
              "degraded block selected alternative %d (value %d) but a \
               sequential execution selects %d (value %d)"
              index value index' value')
       else [])
      @ compare_state sspace ssource
    | Some (Alt_block.Block_failed _), _, _ ->
      v
        (Printf.sprintf
           "degraded block selected alternative %d but a sequential \
            execution fails"
           index)
    | None, _, _ -> v "sequential reference execution did not complete")
  | Alt_block.Selected { index; value } -> (
    match sequential_reference rr.scenario ~seed:rr.seed ~indices:[ index ] with
    | Some (Alt_block.Selected { index = 0; value = value' }), sspace, ssource
      ->
      (if value' <> value then
         v
           (Printf.sprintf
              "winning alternative %d returned %d concurrently but %d \
               sequentially"
              index value value')
       else [])
      @ compare_state sspace ssource
    | Some _, _, _ ->
      v
        (Printf.sprintf
           "winning alternative %d fails when re-executed alone" index)
    | None, _, _ -> v "sequential reference execution did not complete")

(* ------------------------------------------------------------------ *)
(* World soundness.                                                    *)

let check_world rr h =
  let out = ref [] in
  let add d = out := viol rr Report.World d :: !out in
  List.iter
    (fun (dest, dest_pred, m) ->
      if Predicate.conflicts dest_pred m.Message.predicate then
        add
          (Format.asprintf
             "%a accepted a message from %a whose predicate %s conflicts \
              with its own %s"
             Pid.pp dest Pid.pp m.Message.sender
             (Predicate.to_string m.Message.predicate)
             (Predicate.to_string dest_pred)))
    (History.accepts h);
  let fate_tbl = Hashtbl.create 16 in
  List.iter
    (fun (pid, fate) ->
      match Hashtbl.find_opt fate_tbl pid with
      | None -> Hashtbl.replace fate_tbl pid fate
      | Some f when f = fate -> ()
      | Some _ ->
        add (Format.asprintf "contradictory fates recorded for %a" Pid.pp pid))
    (History.fates h);
  List.iter
    (fun (pid, reason) ->
      if reason = "dead world" then
        let eliminated =
          List.exists
            (fun s ->
              match History.classify_exit s with
              | History.Eliminated_exit _ -> true
              | _ -> false)
            (History.exits_of h pid)
        in
        if not eliminated then
          add
            (Format.asprintf
               "%a belonged to a falsified world but was never eliminated"
               Pid.pp pid))
    (History.kills h);
  (* A winner that never settles keeps its gated source output
     buffered for ever. *)
  (match rr.report.Concurrent.winner with
  | Some w
    when Fate_registry.fate (Engine.registry rr.engine) w <> Some Predicate.Completed ->
    add (Format.asprintf "winner %a is not recorded completed at quiescence" Pid.pp w)
  | _ -> ());
  let live = Engine.live_count rr.engine in
  if live <> 0 then
    add (Printf.sprintf "%d processes still live at quiescence" live);
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Elimination bookkeeping.                                            *)

let too_late_exit h pid =
  List.exists
    (fun s -> History.classify_exit s = History.Failed_exit "too late")
    (History.exits_of h pid)

let check_elimination rr h =
  let out = ref [] in
  let add d = out := viol rr Report.Elimination d :: !out in
  let children = block_children rr in
  let winner = rr.report.Concurrent.winner in
  (* An ok exit is legitimate only for a child that won some epoch's
     synchronisation: the final winner, or a winner whose incarnation was
     fenced before it could answer (its effects died with it). *)
  let won_some c =
    List.exists (fun (p, _, _) -> Pid.equal p c) (History.sync_wins h)
  in
  if rr.report.Concurrent.spawned <> List.length rr.report.Concurrent.children
  then
    add
      (Printf.sprintf "report claims %d spawned alternatives but lists %d"
         rr.report.Concurrent.spawned
         (List.length rr.report.Concurrent.children));
  List.iter
    (fun c ->
      (match History.exits_of h c with
      | [ st ] -> (
        let is_winner = Option.equal Pid.equal (Some c) winner in
        (match History.classify_exit st with
        | History.Ok_exit ->
          if not (won_some c) then
            add
              (Format.asprintf
                 "alternative %a exited ok without winning a synchronisation: \
                  a second alternative's effects survived"
                 Pid.pp c)
        | _ ->
          if is_winner then
            add (Format.asprintf "the winner %a exited %S" Pid.pp c st));
        if rr.policy.Concurrent.elimination = Concurrent.No_elim then
          match History.classify_exit st with
          | History.Eliminated_exit "sibling elimination"
          | History.Eliminated_exit "alt_wait timeout" ->
            add
              (Format.asprintf
                 "the policy issues no eliminations, yet %a exited %S" Pid.pp
                 c st)
          | _ -> ())
      | [] ->
        add
          (Format.asprintf
             "child %a has no Exited event: the alternative leaked past the \
              block"
             Pid.pp c)
      | l ->
        add (Format.asprintf "child %a exited %d times" Pid.pp c (List.length l)));
      if Engine.status rr.engine c = None then
        add
          (Format.asprintf "child %a has no exit status at quiescence" Pid.pp c))
    children;
  let lates = History.sync_lates h in
  List.iter
    (fun (pid, _) ->
      if not (too_late_exit h pid) then
        add
          (Format.asprintf
             "%a lost the synchronisation but did not abort with \"too late\""
             Pid.pp pid))
    lates;
  List.iter
    (fun c ->
      if
        too_late_exit h c
        && not (List.exists (fun (p, _) -> Pid.equal p c) lates)
      then
        add
          (Format.asprintf "%a aborted \"too late\" without a Sync_late event"
             Pid.pp c))
    children;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Overhead accounting.                                                *)

let check_accounting rr h =
  let out = ref [] in
  let add d = out := viol rr Report.Accounting d :: !out in
  let rep = rr.report in
  let winner = rep.Concurrent.winner in
  let expected_waste =
    List.fold_left
      (fun acc c ->
        if Option.equal Pid.equal (Some c) winner then acc
        else acc +. Engine.cpu_time_of rr.engine c)
      0. rep.Concurrent.children
  in
  if
    Float.abs (rep.Concurrent.wasted_cpu -. expected_waste)
    > 1e-9 +. (1e-9 *. Float.abs expected_waste)
  then
    add
      (Printf.sprintf
         "wasted_cpu %.9f does not reconcile with the engine's per-child \
          CPU ledger %.9f"
         rep.Concurrent.wasted_cpu expected_waste);
  (match rr.policy.Concurrent.sync with
  | Concurrent.Local ->
    if rep.Concurrent.sync_messages <> 0 then
      add
        (Printf.sprintf "local latch reports %d sync messages"
           rep.Concurrent.sync_messages);
    let stray =
      History.count_sent_tag h ~tag:"vote_req"
      + History.count_sent_tag h ~tag:"vote_rep"
    in
    if stray <> 0 then
      add
        (Printf.sprintf
           "%d consensus protocol messages traced under the local latch" stray)
  | Concurrent.Consensus _ ->
    let live_voter pid =
      match History.name_of h pid with
      | Some n ->
        String.starts_with ~prefix:"voter" n
        && not (String.ends_with ~suffix:"(crashed)" n)
      | None -> false
    in
    let expected =
      History.count_accept_tag h ~tag:"vote_req" ~dest_ok:live_voter
      + History.count_sent_tag h ~tag:"vote_rep"
    in
    if rep.Concurrent.sync_messages <> expected then
      add
        (Printf.sprintf
           "report counts %d sync messages but the trace accounts for %d"
           rep.Concurrent.sync_messages expected));
  (match rr.policy.Concurrent.placement with
  | Concurrent.Local_spawn ->
    let quiescent =
      List.fold_left
        (fun acc c ->
          match Engine.space_of rr.engine c with
          | Some sp -> acc + Address_space.cow_copies sp
          | None -> acc)
        0 rep.Concurrent.children
    in
    let store_total = Frame_store.cow_copies (Engine.frame_store rr.engine) in
    (* A degraded parent re-runs alternatives inline: Alt_block.attempt
       forks the parent's own space, so post-fork writes charge
       copy-on-write faults to the parent, not to any child. In a
       non-degraded run the parent's counter is the absorbed winner's
       (Page_map.absorb folds the child's count into the parent), already
       present in the children's sum — counting it again would double it.
       A degraded run absorbed no winner, so the parent's counter is
       exactly its own inline faults. *)
    let parent_copies =
      if rep.Concurrent.degraded then Address_space.cow_copies rr.space else 0
    in
    if rep.Concurrent.child_cow_copies > quiescent then
      add
        (Printf.sprintf
           "report counts %d child copy-on-write faults but the children's \
            maps account for only %d"
           rep.Concurrent.child_cow_copies quiescent);
    if quiescent + parent_copies <> store_total then
      add
        (Printf.sprintf
           "children's (%d) and parent's (%d) copy-on-write counters do \
            not reconcile with the frame store's total (%d)"
           quiescent parent_copies store_total)
  | Concurrent.Remote_spawn | Concurrent.Remote_on_demand -> ());
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Recovery: the supervised report, the trace and the topology agree.  *)

let check_recovery rr h (sites, sr) =
  let out = ref [] in
  let add d = out := viol rr Report.Accounting d :: !out in
  if History.recoveries h <> sr.Concurrent.sr_recoveries then
    add "the trace's Recovered events do not match the supervised report";
  let sorted = List.sort compare in
  if sorted (History.site_crashes h) <> sorted (Sites.crashed_sites sites) then
    add "traced Site_crashed events do not match the topology's crashed set";
  List.rev !out

(* ------------------------------------------------------------------ *)
(* The default scenarios.                                              *)

let page_size_of sp = (Address_space.model sp).Cost_model.page_size

(* Every served request builds one of these blocks, so its alternative
   names come from tables rather than a format interpreter. *)
let ctr_name = Names.indexed 3 (Printf.sprintf "ctr%d")
let guarded_name = Names.indexed 3 (Printf.sprintf "g%d")
let winner_line = Names.indexed 3 (Printf.sprintf "winner=%d")
let tty_name = Names.indexed 2 (Printf.sprintf "tty%d")
let all_fail_name = Names.indexed 2 (Printf.sprintf "f%d")

let counters =
  let prepare _eng sp =
    let p = page_size_of sp in
    Address_space.set_int sp ~addr:0 100;
    Address_space.set_int sp ~addr:p 200;
    Address_space.set_string sp ~addr:(2 * p) "baseline"
  in
  let alts _eng ~seed ~source:_ =
    List.init 3 (fun i ->
        Alternative.make
          ~name:(ctr_name i)
          (fun ctx ->
            let sp = Option.get (Engine.space ctx) in
            let p = page_size_of sp in
            let rng = Rng.create ~seed:((seed * 97) + i) in
            Engine.delay ctx (0.002 +. Rng.float rng 0.02);
            (* Racing read-modify-write of the shared counters: every
               sibling must privatise these pages copy-on-write. *)
            let v0 = Address_space.get_int sp ~addr:0 in
            Address_space.set_int sp ~addr:0 (v0 + i + 1);
            Address_space.set_int sp ~addr:p (((seed + i) * 7) land 0xffff);
            Address_space.set_int sp
              ~addr:((10 + i) * p)
              ((i * 1000) + (seed land 0xff));
            Engine.charge_memory ctx;
            (100 * i) + (seed land 0xfff)))
  in
  { sc_name = "counters"; uses_source = false; source_script = []; prepare;
    alts; sc_exclusive = false }

let guarded =
  let prepare _eng sp = Address_space.set_int sp ~addr:0 7 in
  let alts _eng ~seed ~source:_ =
    let n = 3 in
    let open_i = seed mod n in
    let failing_i = (open_i + 1) mod n in
    let closed_i = (open_i + 2) mod n in
    List.init n (fun i ->
        Alternative.make
          ~name:(guarded_name i)
          ~guard:(fun _ -> i <> closed_i)
          (fun ctx ->
            let sp = Option.get (Engine.space ctx) in
            let p = page_size_of sp in
            let rng = Rng.create ~seed:((seed * 53) + i) in
            Engine.delay ctx (0.001 +. Rng.float rng 0.01);
            if i = failing_i then raise (Alternative.Failed "rejected");
            Address_space.set_int sp ~addr:0 (seed + i);
            Address_space.set_string sp ~addr:(3 * p)
              (winner_line i);
            Engine.charge_memory ctx;
            (10 * i) + (seed mod 100)))
  in
  { sc_name = "guarded"; uses_source = false; source_script = []; prepare;
    alts; sc_exclusive = true }

let teletype =
  let prepare _eng sp = Address_space.set_int sp ~addr:0 1 in
  let alts _eng ~seed ~source =
    let src = Option.get source in
    List.init 2 (fun i ->
        Alternative.make
          ~name:(tty_name i)
          (fun ctx ->
            let sp = Option.get (Engine.space ctx) in
            let p = page_size_of sp in
            let rng = Rng.create ~seed:((seed * 131) + i) in
            Engine.delay ctx (0.002 +. Rng.float rng 0.01);
            let line = Source.read ctx src in
            Source.write ctx src (Printf.sprintf "alt%d saw %s" i line);
            Address_space.set_string sp ~addr:(4 * p) line;
            Engine.charge_memory ctx;
            i + String.length line))
  in
  {
    sc_name = "teletype";
    uses_source = true;
    source_script = [ "alpha"; "beta" ];
    prepare;
    alts;
    sc_exclusive = false;
  }

let all_fail =
  let prepare _eng sp = Address_space.set_string sp ~addr:0 "untouched" in
  let alts _eng ~seed ~source:_ =
    List.init 2 (fun i ->
        Alternative.make
          ~name:(all_fail_name i)
          (fun ctx ->
            let sp = Option.get (Engine.space ctx) in
            let rng = Rng.create ~seed:((seed * 17) + i) in
            Engine.delay ctx (0.001 +. Rng.float rng 0.005);
            (* Scratch write on a shared page: discarded with the loser. *)
            Address_space.set_int sp ~addr:64 (i + seed);
            Engine.charge_memory ctx;
            raise (Alternative.Failed "no result")))
  in
  { sc_name = "all-fail"; uses_source = false; source_script = []; prepare;
    alts; sc_exclusive = true }

let default_scenarios = [ counters; guarded; teletype; all_fail ]

let find_scenario name =
  List.find_opt (fun s -> String.equal s.sc_name name) default_scenarios

(* ------------------------------------------------------------------ *)
(* Per-request report checks.

   The serving layer answers each admitted request with a block report;
   these checks audit one report's self-consistency without an event
   history (a served block attaches no [History]: the checkers above need
   [run_scenario]'s instrumentation). They are a sound subset of the
   post-mortem classes: any violation here implies the corresponding
   replay checker would find one too. *)

(* A violation built and pushed onto [out]. The checks below accumulate
   newest first in a local [ref] that no closure captures, so a clean
   report allocates nothing. *)
let flag out cls ~scenario ~policy ~seed d =
  Report.violation cls ~scenario ~policy:(Concurrent.describe policy) ~seed d :: out

let rec mem_pid p = function [] -> false | q :: rest -> Pid.equal p q || mem_pid p rest

(* [rep]'s violations, newest first, pushed onto [out]. *)
let report_violations ~scenario ~policy ~seed (rep : _ Concurrent.report) out =
  let out = ref out in
  if rep.Concurrent.spawned <> List.length rep.Concurrent.children then
    out :=
      flag !out Report.Elimination ~scenario ~policy ~seed
        (Printf.sprintf "report claims %d spawned alternatives but lists %d"
           rep.Concurrent.spawned
           (List.length rep.Concurrent.children));
  (match (rep.Concurrent.outcome, rep.Concurrent.winner) with
  | _, Some w when rep.Concurrent.degraded ->
    out :=
      flag !out Report.At_most_once ~scenario ~policy ~seed
        (Format.asprintf "a degraded block reported %a as a speculative winner"
           Pid.pp w)
  | Alt_block.Selected _, Some w ->
    if not (mem_pid w rep.Concurrent.children) then
      out :=
        flag !out Report.At_most_once ~scenario ~policy ~seed
          (Format.asprintf "the winner %a is not a block child" Pid.pp w)
  | Alt_block.Selected _, None ->
    if not rep.Concurrent.degraded then
      out :=
        flag !out Report.At_most_once ~scenario ~policy ~seed
          "outcome is Selected but the report names no winner"
  | Alt_block.Block_failed _, Some w ->
    out :=
      flag !out Report.At_most_once ~scenario ~policy ~seed
        (Format.asprintf "a failed block reported %a as its winner" Pid.pp w)
  | Alt_block.Block_failed _, None -> ());
  if rep.Concurrent.wasted_cpu < 0. then
    out :=
      flag !out Report.Accounting ~scenario ~policy ~seed
        (Printf.sprintf "negative wasted_cpu %.9f" rep.Concurrent.wasted_cpu);
  if rep.Concurrent.elapsed < 0. then
    out :=
      flag !out Report.Accounting ~scenario ~policy ~seed
        (Printf.sprintf "negative elapsed %.9f" rep.Concurrent.elapsed);
  (match policy.Concurrent.sync with
  | Concurrent.Local ->
    if rep.Concurrent.sync_messages <> 0 then
      out :=
        flag !out Report.Accounting ~scenario ~policy ~seed
          (Printf.sprintf "local latch reports %d sync messages"
             rep.Concurrent.sync_messages)
  | Concurrent.Consensus _ -> ());
  !out

let check_report ~scenario ~policy ~seed rep =
  List.rev (report_violations ~scenario ~policy ~seed rep [])

(* Recovery [i] (from 0) must fence to epoch [i + 2]. *)
let rec fence_violations ~scenario ~policy ~seed i recoveries out =
  match recoveries with
  | [] -> out
  | (_, _, epoch) :: rest ->
    let out =
      if epoch = i + 2 then out
      else
        flag out Report.At_most_once ~scenario ~policy ~seed
          (Printf.sprintf "recovery %d fenced to epoch %d, expected %d" i epoch (i + 2))
    in
    fence_violations ~scenario ~policy ~seed (i + 1) rest out

(* The supervised variant: audit the inner report, then the recovery
   bookkeeping — a recovered request must look like exactly what it is,
   one epoch-fenced incarnation per restart, never a winner invented by
   a dead coordinator. *)
let check_supervised_report ~scenario ~policy ~seed
    (sr : _ Concurrent.supervised_report) =
  let out = ref (report_violations ~scenario ~policy ~seed sr.Concurrent.sr_report []) in
  let recoveries = List.length sr.Concurrent.sr_recoveries in
  if sr.Concurrent.sr_incarnations < 1 then
    out :=
      flag !out Report.Elimination ~scenario ~policy ~seed
        "supervised block launched no incarnation";
  if sr.Concurrent.sr_incarnations <> recoveries + 1 then
    out :=
      flag !out Report.Elimination ~scenario ~policy ~seed
        (Printf.sprintf "%d incarnations but %d recoveries"
           sr.Concurrent.sr_incarnations recoveries);
  if sr.Concurrent.sr_epoch <> sr.Concurrent.sr_incarnations then
    out :=
      flag !out Report.At_most_once ~scenario ~policy ~seed
        (Printf.sprintf
           "report epoch %d is not the last incarnation's (%d): a stale \
            incarnation answered through the fence"
           sr.Concurrent.sr_epoch sr.Concurrent.sr_incarnations);
  out := fence_violations ~scenario ~policy ~seed 0 sr.Concurrent.sr_recoveries !out;
  (match (sr.Concurrent.sr_report.Concurrent.outcome,
          sr.Concurrent.sr_coordinator) with
  | Alt_block.Selected _, None ->
    out :=
      flag !out Report.At_most_once ~scenario ~policy ~seed
        "a decided supervised block has no final coordinator"
  | _ -> ());
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Everything.                                                         *)

let check_all ({ history = h; _ } as rr) =
  let policy = Concurrent.describe rr.policy in
  check_at_most_once rr h @ check_transparency rr h @ check_world rr h
  @ check_elimination rr h
  (* Trace-level accounting sums over one incarnation; a supervised block
     is audited by its report and its recovery record instead. *)
  @ (match rr.supervised with
    | None -> check_accounting rr h
    | Some ((_, sr) as s) ->
      check_supervised_report ~scenario:rr.scenario.sc_name ~policy:rr.policy
        ~seed:rr.seed sr
      @ check_recovery rr h s)
  @ Race.check_isolation rr.writes rr.engine
      ~children:rr.report.Concurrent.children ~scenario:rr.scenario.sc_name
      ~policy ~seed:rr.seed
  @
  match rr.source with
  | Some s ->
    Race.check_sources s ~scenario:rr.scenario.sc_name ~policy ~seed:rr.seed
  | None -> []

let run_checked ?record ?faults ?sites ?sanitize ?mode scenario ~policy ~seed =
  let rr =
    run_scenario ?record ?faults ?sites ?sanitize ?mode scenario ~policy ~seed
  in
  let vs = check_all rr in
  match rr.sanitizer with
  | None -> (rr, vs)
  | Some sz ->
    (* The post-mortem checkers are the sanitizer's oracle: on every cell
       the streaming verdict must agree with the replay verdict. Agreement
       contributes nothing, so clean sweeps stay byte-identical; a
       divergence is a finding of its own class (exit code 17). *)
    Sanitizer.detach sz;
    let policy_s = Concurrent.describe policy in
    ( rr,
      vs
      @ Sanitizer.crosscheck sz ~oracle:vs ~scenario:scenario.sc_name
          ~policy:policy_s ~seed )

(* ------------------------------------------------------------------ *)
(* The policy matrix.                                                  *)

let policy_matrix =
  let eliminations =
    [ Concurrent.Sync_elim; Concurrent.Async_elim; Concurrent.No_elim ]
  in
  let syncs =
    [
      Concurrent.Local;
      Concurrent.Consensus
        { nodes = 3; crashed = []; vote_delay = 0.0002; reply_timeout = 0.5 };
    ]
  in
  let guards =
    [
      Concurrent.Guard_in_child;
      Concurrent.Guard_before_spawn;
      Concurrent.Guard_at_sync;
      Concurrent.Guard_redundant;
    ]
  in
  List.concat_map
    (fun elimination ->
      List.concat_map
        (fun sync ->
          List.map
            (fun g ->
              { Concurrent.default_policy with elimination; sync; guards = g })
            guards)
        syncs)
    eliminations
