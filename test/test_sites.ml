(* Tests for the site/topology layer: placement, site crashes, partitions
   and healing, epoch fencing, and coordinator recovery — plus the
   robustness satellites that ride along (kill idempotency, poll-only
   timeouts, consensus-retry determinism under site faults). *)

let check = Alcotest.check

let mk ?(seed = 42) () =
  Engine.create ~seed ~model:Cost_model.hp_9000_350 ()

(* ------------------------------------------------------------------ *)
(* Placement                                                          *)
(* ------------------------------------------------------------------ *)

let test_create_validations () =
  let eng = mk () in
  Alcotest.check_raises "no sites" (Invalid_argument "Sites.create: no sites")
    (fun () -> ignore (Sites.create eng ~names:[]));
  Alcotest.check_raises "duplicate site"
    (Invalid_argument "Sites.create: duplicate site \"a\"") (fun () ->
      ignore (Sites.create eng ~names:[ "a"; "b"; "a" ]))

let test_placement () =
  let eng = mk () in
  let sites = Sites.create eng ~names:[ "a"; "b" ] in
  check
    Alcotest.(list string)
    "names in declaration order" [ "a"; "b" ] (Sites.names sites);
  (* Explicit placement wins. *)
  let explicit = Engine.spawn eng ~site:"b" (fun _ -> ()) in
  (* A child adopts its parent's site. *)
  let child = ref None in
  let parent =
    Engine.spawn eng ~site:"b" (fun ctx ->
        child :=
          Some
            (Engine.spawn (Engine.engine ctx) ~parent:(Engine.self ctx)
               (fun _ -> ())))
  in
  (* Parentless processes without an explicit site are spread around. *)
  let p0 = Engine.spawn eng (fun _ -> ()) in
  let p1 = Engine.spawn eng (fun _ -> ()) in
  Engine.run eng;
  check
    Alcotest.(option string)
    "explicit site wins" (Some "b") (Sites.site_of sites explicit);
  check
    Alcotest.(option string)
    "child inherits parent's site" (Some "b")
    (Sites.site_of sites (Option.get !child));
  (match (Sites.site_of sites p0, Sites.site_of sites p1) with
  | Some a, Some b when a <> b -> ()
  | placed ->
    Alcotest.failf "round-robin should spread parentless pids: %s / %s"
      (Option.value ~default:"-" (fst placed))
      (Option.value ~default:"-" (snd placed)));
  (* [members] reports everything ever placed there, dead included, and
     rejects unknown sites. *)
  check Alcotest.bool "explicit is a member of b" true
    (List.mem explicit (Sites.members sites "b"));
  check Alcotest.bool "parent is a member of b" true
    (List.mem parent (Sites.members sites "b"));
  Alcotest.check_raises "unknown site"
    (Invalid_argument "Sites.members: unknown site \"zz\"") (fun () ->
      ignore (Sites.members sites "zz"))

(* ------------------------------------------------------------------ *)
(* Crashes                                                            *)
(* ------------------------------------------------------------------ *)

let test_crash_kills_residents () =
  let eng = mk () in
  let sites = Sites.create eng ~names:[ "a"; "b" ] in
  let victim = Engine.spawn eng ~site:"a" (fun ctx -> Engine.delay ctx 10.) in
  let survivor = Engine.spawn eng ~site:"b" (fun ctx -> Engine.delay ctx 10.) in
  let finished = ref false in
  Engine.after eng ~delay:1. (fun () ->
      Sites.crash sites "a";
      Sites.crash sites "a" (* idempotent *);
      finished := true);
  Engine.run eng;
  check Alcotest.bool "crash ran" true !finished;
  check Alcotest.bool "site a crashed" true (Sites.is_crashed sites "a");
  check Alcotest.(list string) "alive sites" [ "b" ] (Sites.alive_sites sites);
  check
    Alcotest.(list string)
    "crashed sites" [ "a" ] (Sites.crashed_sites sites);
  (match Engine.status eng victim with
  | Some (Engine.Eliminated reason) ->
    check Alcotest.string "kill reason names the site" "site a crashed" reason
  | st ->
    Alcotest.failf "victim should be eliminated, got %s"
      (match st with None -> "still alive" | Some _ -> "another status"));
  check Alcotest.bool "survivor unaffected" true
    (match Engine.status eng survivor with
    | Some Engine.Exited_ok -> true
    | _ -> false);
  check Alcotest.int "exactly one Site_crashed traced" 1
    (Trace.count (Engine.trace eng) ~f:(function
      | Trace.Site_crashed { site } -> site = "a"
      | _ -> false));
  Alcotest.check_raises "unknown site"
    (Invalid_argument "Sites.crash: unknown site \"zz\"") (fun () ->
      Sites.crash sites "zz")

(* ------------------------------------------------------------------ *)
(* Partitions                                                         *)
(* ------------------------------------------------------------------ *)

let test_partition_validations () =
  let eng = mk () in
  let sites = Sites.create eng ~names:[ "a"; "b"; "c" ] in
  Alcotest.check_raises "empty group"
    (Invalid_argument "Sites.partition: empty site group") (fun () ->
      Sites.partition sites ~left:[] ~right:[ "a" ]);
  Alcotest.check_raises "overlapping groups"
    (Invalid_argument "Sites.partition: site \"a\" on both sides of the cut")
    (fun () -> Sites.partition sites ~left:[ "a"; "b" ] ~right:[ "a" ])

let test_partition_drops_and_heal_restores () =
  let eng = mk () in
  let sites = Sites.create eng ~names:[ "a"; "b" ] in
  Sites.partition sites ~left:[ "a" ] ~right:[ "b" ];
  check Alcotest.bool "link cut" true (Sites.partitioned sites "a" "b");
  check Alcotest.bool "cut is symmetric" true (Sites.partitioned sites "b" "a");
  let got = ref [] in
  let recv =
    Engine.spawn eng ~site:"b" (fun ctx ->
        let rec loop () =
          match Engine.receive_timeout ctx ~timeout:0.4 () with
          | None -> ()
          | Some m ->
            got := m.Message.payload :: !got;
            loop ()
        in
        loop ())
  in
  (* The sender keeps retrying across the heal: sends launched while the
     cut is up are dropped at delivery, the first one after the heal gets
     through. *)
  ignore
    (Engine.spawn eng ~site:"a" (fun ctx ->
         for i = 1 to 8 do
           Engine.send ctx recv (Payload.Int i);
           Engine.delay ctx 0.05
         done));
  Engine.after eng ~delay:0.125 (fun () ->
      Sites.heal sites ~left:[ "a" ] ~right:[ "b" ]);
  Engine.run eng;
  check Alcotest.bool "link restored" false (Sites.partitioned sites "a" "b");
  (match List.rev !got with
  | [] -> Alcotest.fail "nothing delivered after the heal"
  | Payload.Int first :: _ ->
    if first < 3 then
      Alcotest.failf "message %d crossed the cut before the heal" first
  | _ -> Alcotest.fail "unexpected payload");
  let dropped =
    Trace.count (Engine.trace eng) ~f:(function
      | Trace.Injected { kind = "partition-drop"; _ } -> true
      | _ -> false)
  in
  check Alcotest.bool "drops traced" true (dropped >= 1);
  check Alcotest.int "exactly one Partitioned traced" 1
    (Trace.count (Engine.trace eng) ~f:(function
      | Trace.Partitioned _ -> true
      | _ -> false));
  check Alcotest.int "exactly one Healed traced" 1
    (Trace.count (Engine.trace eng) ~f:(function
      | Trace.Healed _ -> true
      | _ -> false))

(* ------------------------------------------------------------------ *)
(* Satellite: Engine.kill is idempotent                               *)
(* ------------------------------------------------------------------ *)

let test_kill_idempotent () =
  let eng = mk () in
  let p = Engine.spawn eng (fun ctx -> Engine.delay ctx 1.) in
  Engine.after eng ~delay:0.1 (fun () -> Engine.kill eng p ~reason:"first");
  Engine.after eng ~delay:0.1 (fun () -> Engine.kill eng p ~reason:"second");
  Engine.run eng;
  (match Engine.status eng p with
  | Some (Engine.Eliminated "first") -> ()
  | _ -> Alcotest.fail "first kill should win, second should be a no-op");
  (* Killing an already-dead pid after the run is a no-op too. *)
  Engine.kill eng p ~reason:"third";
  check Alcotest.bool "status unchanged" true
    (Engine.status eng p = Some (Engine.Eliminated "first"))

let test_kill_after_natural_exit () =
  let eng = mk () in
  let p = Engine.spawn eng (fun _ -> ()) in
  Engine.after eng ~delay:0.5 (fun () -> Engine.kill eng p ~reason:"late") ;
  Engine.run eng;
  check Alcotest.bool "natural exit preserved" true
    (Engine.status eng p = Some Engine.Exited_ok)

let test_kill_racing_natural_exit () =
  (* The kill lands at the very virtual instant the body finishes. Whichever
     way the tie breaks, it must break the same way every run, without an
     exception, and later kills must not rewrite the outcome. *)
  let run_once () =
    let eng = mk ~seed:11 () in
    let p = Engine.spawn eng (fun ctx -> Engine.delay ctx 0.2) in
    Engine.after eng ~delay:0.2 (fun () -> Engine.kill eng p ~reason:"race");
    Engine.run eng;
    Engine.kill eng p ~reason:"post-race";
    match Engine.status eng p with
    | Some Engine.Exited_ok -> "ok"
    | Some (Engine.Eliminated r) -> "eliminated: " ^ r
    | Some _ -> "other"
    | None -> "alive"
  in
  let first = run_once () in
  check Alcotest.bool "decided" true (first = "ok" || first = "eliminated: race");
  check Alcotest.string "deterministic tie-break" first (run_once ())

(* ------------------------------------------------------------------ *)
(* Satellite: timeout 0. is a pure poll                               *)
(* ------------------------------------------------------------------ *)

let test_receive_timeout_zero_polls () =
  let eng = mk () in
  let results = ref [] in
  let recv =
    Engine.spawn eng (fun ctx ->
        let t0 = Engine.now_v ctx in
        let empty = Engine.receive_timeout ctx ~timeout:0. () in
        results := ("empty poll is None", empty = None) :: !results;
        results :=
          ("empty poll burned no time", Engine.now_v ctx = t0) :: !results;
        (* Let the sender's message arrive, then poll it out. *)
        Engine.delay ctx 0.1;
        let t1 = Engine.now_v ctx in
        let queued = Engine.receive_timeout ctx ~timeout:0. () in
        results := ("queued poll is Some", queued <> None) :: !results;
        results :=
          ("queued poll burned no time", Engine.now_v ctx = t1) :: !results)
  in
  ignore
    (Engine.spawn eng (fun ctx -> Engine.send ctx recv (Payload.Int 1)));
  Engine.run eng;
  check Alcotest.int "all polls ran" 4 (List.length !results);
  List.iter (fun (what, ok) -> check Alcotest.bool what true ok) !results

let test_ivar_read_timeout_zero_polls () =
  let eng = mk () in
  let iv = Engine.Ivar.create () in
  let results = ref [] in
  ignore
    (Engine.spawn eng (fun ctx ->
         let t0 = Engine.now_v ctx in
         let empty = Engine.Ivar.read_timeout ctx iv ~timeout:0. in
         results := ("unfilled poll is None", empty = None) :: !results;
         ignore (Engine.Ivar.try_fill iv 7);
         let filled = Engine.Ivar.read_timeout ctx iv ~timeout:0. in
         results := ("filled poll reads it", filled = Some 7) :: !results;
         results :=
           ("polling burned no time", Engine.now_v ctx = t0) :: !results));
  Engine.run eng;
  check Alcotest.int "all polls ran" 3 (List.length !results);
  List.iter (fun (what, ok) -> check Alcotest.bool what true ok) !results

(* ------------------------------------------------------------------ *)
(* Satellite: acquire_retry under site faults                         *)
(* ------------------------------------------------------------------ *)

let test_acquire_retry_deterministic_under_partition () =
  (* The requester's site is cut off from a voter majority at block start
     and healed mid-backoff: the first round(s) end [No_quorum], a later
     round wins. The whole dance — verdict and finish time — must be
     byte-identical across reruns of the same seed. *)
  let run_once () =
    let eng = mk ~seed:5 () in
    let sites = Sites.create eng ~names:[ "a"; "b"; "c" ] in
    let m = Majority.create eng ~nodes:3 ~sites:[ "a"; "b"; "c" ] () in
    Sites.partition sites ~left:[ "a" ] ~right:[ "b"; "c" ];
    let out = ref "unfinished" in
    ignore
      (Engine.spawn eng ~site:"a" (fun ctx ->
           let verdict =
             Majority.acquire_retry ctx m ~reply_timeout:0.05 ~retries:3
               ~backoff:0.02 ()
           in
           out :=
             Printf.sprintf "%s@%.9f"
               (match verdict with
               | Majority.Granted -> "granted"
               | Majority.Denied -> "denied"
               | Majority.No_quorum -> "no-quorum")
               (Engine.now_v ctx);
           Majority.shutdown m));
    Engine.after eng ~delay:0.12 (fun () ->
        Sites.heal sites ~left:[ "a" ] ~right:[ "b"; "c" ]);
    Engine.run eng;
    !out
  in
  let first = run_once () in
  check Alcotest.bool "eventually granted" true
    (String.length first >= 7 && String.sub first 0 7 = "granted");
  check Alcotest.string "same seed, byte-identical outcome" first (run_once ())

let test_denied_returns_without_consuming_retries () =
  (* Once a majority has explicitly denied, retrying cannot help; the
     verdict must come back without burning any of the (here enormous)
     backoff delays. *)
  let eng = mk () in
  let m = Majority.create eng ~nodes:3 () in
  let r2_verdict = ref Majority.No_quorum and r2_elapsed = ref infinity in
  ignore
    (Engine.spawn eng (fun ctx ->
         ignore (Majority.acquire_retry ctx m ~reply_timeout:1. ())));
  ignore
    (Engine.spawn eng ~start_delay:0.5 (fun ctx ->
         let t0 = Engine.now_v ctx in
         r2_verdict :=
           Majority.acquire_retry ctx m ~reply_timeout:1. ~retries:5
             ~backoff:100. ();
         r2_elapsed := Engine.now_v ctx -. t0;
         Majority.shutdown m));
  Engine.run eng;
  check Alcotest.bool "denied" true (!r2_verdict = Majority.Denied);
  check Alcotest.bool "no backoff burned" true (!r2_elapsed < 1.)

(* ------------------------------------------------------------------ *)
(* Epoch fencing                                                      *)
(* ------------------------------------------------------------------ *)

let test_stale_epoch_denied () =
  (* Regression for the fencing guard: without per-voter epoch floors a
     stale incarnation's request would be granted like any other. *)
  let eng = mk () in
  let m = Majority.create eng ~nodes:3 () in
  Majority.fence m ~epoch:2;
  let stale = ref Majority.No_quorum and current = ref Majority.No_quorum in
  ignore
    (Engine.spawn eng (fun ctx ->
         stale := Majority.acquire_retry ctx m ~epoch:1 ~reply_timeout:1. ()));
  ignore
    (Engine.spawn eng ~start_delay:0.5 (fun ctx ->
         current :=
           Majority.acquire_retry ctx m ~epoch:2 ~reply_timeout:1. ();
         Majority.shutdown m));
  Engine.run eng;
  check Alcotest.bool "below-floor request denied" true
    (!stale = Majority.Denied);
  check Alcotest.bool "current epoch acquirable" true
    (!current = Majority.Granted)

let test_fence_voids_stale_grants () =
  let eng = mk () in
  let m = Majority.create eng ~nodes:3 () in
  let old = ref Majority.No_quorum and next = ref Majority.No_quorum in
  ignore
    (Engine.spawn eng (fun ctx ->
         old := Majority.acquire_retry ctx m ~epoch:1 ~reply_timeout:1. ()));
  Engine.after eng ~delay:0.5 (fun () -> Majority.fence m ~epoch:2);
  ignore
    (Engine.spawn eng ~start_delay:1. (fun ctx ->
         next :=
           Majority.acquire_retry ctx m ~epoch:2 ~reply_timeout:1. ();
         Majority.shutdown m));
  Engine.run eng;
  check Alcotest.bool "epoch-1 incarnation won first" true
    (!old = Majority.Granted);
  check Alcotest.bool "fence voids the dead incarnation's grant" true
    (!next = Majority.Granted)

(* ------------------------------------------------------------------ *)
(* Coordinator recovery                                               *)
(* ------------------------------------------------------------------ *)

let consensus_policy =
  {
    Concurrent.default_policy with
    Concurrent.sync =
      Concurrent.Consensus
        { nodes = 3; crashed = []; vote_delay = 0.; reply_timeout = 0.5 };
    timeout = 30.;
    sync_retries = 2;
    sync_backoff = 0.02;
  }

let test_supervised_clean_run () =
  let eng = mk () in
  let sites = Sites.create eng ~names:[ "s0"; "s1"; "s2" ] in
  let alts = [ Alternative.make (fun _ -> 42) ] in
  let rr = Concurrent.run_supervised eng ~policy:consensus_policy ~sites alts in
  check Alcotest.int "one incarnation" 1 rr.Concurrent.sr_incarnations;
  check Alcotest.int "epoch 1" 1 rr.Concurrent.sr_epoch;
  check Alcotest.bool "no recoveries" true (rr.Concurrent.sr_recoveries = []);
  check Alcotest.(option string) "runs on the first site" (Some "s0")
    rr.Concurrent.sr_site;
  match rr.Concurrent.sr_report.Concurrent.outcome with
  | Alt_block.Selected { value = 42; _ } -> ()
  | _ -> Alcotest.fail "expected Selected 42"

let test_coordinator_site_crash_recovers () =
  (* Crash the site hosting coordinator, children, and one voter mid-run.
     The watchdog must fence to epoch 2, restart from the checkpoint on a
     surviving site, and commit exactly one winner. *)
  let eng = mk ~seed:7 () in
  let sites = Sites.create eng ~names:[ "s0"; "s1"; "s2" ] in
  let alts =
    [
      Alternative.make ~name:"slow" (fun ctx ->
          Engine.delay ctx 1.;
          42);
    ]
  in
  Engine.after eng ~delay:0.5 (fun () -> Sites.crash sites "s0");
  let rr = Concurrent.run_supervised eng ~policy:consensus_policy ~sites alts in
  check Alcotest.int "two incarnations" 2 rr.Concurrent.sr_incarnations;
  check Alcotest.int "deciding epoch" 2 rr.Concurrent.sr_epoch;
  (match rr.Concurrent.sr_recoveries with
  | [ (_failed, _successor, 2) ] -> ()
  | _ -> Alcotest.fail "expected exactly one recovery, to epoch 2");
  (* Incarnation e lands on the (e-1) mod n-th surviving site: with s0
     dead the survivors are [s1; s2] and epoch 2 picks s2 — away from the
     crash either way. *)
  check Alcotest.(option string) "restarted away from the dead site"
    (Some "s2") rr.Concurrent.sr_site;
  (match rr.Concurrent.sr_report.Concurrent.outcome with
  | Alt_block.Selected { value = 42; _ } -> ()
  | _ -> Alcotest.fail "expected Selected 42");
  (* At-most-once across incarnations: one winner epoch-wide. *)
  let wins_in_final_epoch =
    Trace.count (Engine.trace eng) ~f:(function
      | Trace.Sync_won { epoch = 2; _ } -> true
      | _ -> false)
  in
  check Alcotest.int "one Sync_won in the deciding epoch" 1 wins_in_final_epoch;
  check Alcotest.int "one Recovered traced" 1
    (Trace.count (Engine.trace eng) ~f:(function
      | Trace.Recovered { epoch = 2; _ } -> true
      | _ -> false));
  check Alcotest.int "everything reaped" 0 (Engine.live_count eng)

let test_restored_incarnation_stays_tracked () =
  (* Every write an alternative makes reaches the frame store's
     observers: the run's isolation recorder and the sanitizer. A
     recovered coordinator runs in a space restored from the checkpoint;
     the writes of the children forked from it must be recorded too. The
     cell is one whose epoch-2 children use CPU. *)
  let cell =
    List.find
      (fun c ->
        let d = Campaign.describe_cell c in
        String.starts_with ~prefix:"counters/crash-coordinator/" d
        && String.ends_with ~suffix:"/retry2/seed 1" d)
      (Array.to_list (Campaign.cells Campaign.sites))
  in
  let run =
    Invariants.run_scenario
      ~faults:(cell.Campaign.cl_campaign.Campaign.plan ~seed:cell.Campaign.cl_seed)
      ~sites:Campaign.site_names cell.Campaign.cl_scenario
      ~policy:cell.Campaign.cl_policy ~seed:cell.Campaign.cl_seed
  in
  let eng = run.Invariants.engine in
  let _, rr = Option.get run.Invariants.supervised in
  let successor =
    match rr.Concurrent.sr_recoveries with
    | [ (_, successor, 2) ] -> successor
    | _ -> Alcotest.fail "expected exactly one recovery, to epoch 2"
  in
  let children = Engine.children_of eng successor in
  check Alcotest.bool "epoch 2 spawned children" true (children <> []);
  List.iter
    (fun c ->
      match Engine.space_of eng c with
      | None -> Alcotest.fail "an epoch-2 child has no address space"
      | Some sp ->
        check Alcotest.bool
          (Format.asprintf "epoch-2 child %a recorded its writes" Pid.pp c)
          true
          (Race.written run.Invariants.writes sp <> []))
    children

(* ------------------------------------------------------------------ *)
(* The topology against a reference model                              *)
(* ------------------------------------------------------------------ *)

(* The list-and-hash-table topology the index-based one replaced, kept
   as the reference: members in a table of refs, crashed sites in a
   table, cuts as a list of normalised unordered pairs, and each pid's
   site in a table of its own. *)
module Ref_topology = struct
  type t = {
    names : string array;
    members : (string, Pid.t list ref) Hashtbl.t;
    crashed : (string, unit) Hashtbl.t;
    mutable cuts : (string * string) list;
    mutable rr : int;
    site : (Pid.t, string) Hashtbl.t;
  }

  let create names =
    {
      names = Array.of_list names;
      members = Hashtbl.create 8;
      crashed = Hashtbl.create 4;
      cuts = [];
      rr = 0;
      site = Hashtbl.create 16;
    }

  let place t pid ~parent ~explicit =
    let site =
      match explicit with
      | Some s -> Some s
      | None -> (
        match Option.bind parent (Hashtbl.find_opt t.site) with
        | Some s -> Some s
        | None ->
          let s = t.names.(t.rr mod Array.length t.names) in
          t.rr <- t.rr + 1;
          Some s)
    in
    Option.iter
      (fun s ->
        Hashtbl.replace t.site pid s;
        match Hashtbl.find_opt t.members s with
        | Some l -> l := pid :: !l
        | None -> Hashtbl.replace t.members s (ref [ pid ]))
      site

  let members t s =
    match Hashtbl.find_opt t.members s with
    | None -> []
    | Some l -> List.sort_uniq Pid.compare !l

  let is_crashed t s = Hashtbl.mem t.crashed s
  let crash t s = Hashtbl.replace t.crashed s ()
  let norm a b = if String.compare a b <= 0 then (a, b) else (b, a)

  let cross left right =
    List.concat_map (fun l -> List.map (fun r -> norm l r) right) left

  let partition t ~left ~right =
    t.cuts <- t.cuts @ List.filter (fun p -> not (List.mem p t.cuts)) (cross left right)

  let heal t ~left ~right =
    let gone = cross left right in
    t.cuts <- List.filter (fun p -> not (List.mem p gone)) t.cuts

  let partitioned t a b = List.mem (norm a b) t.cuts

  let delivers t ~sender ~dest =
    let ss = Hashtbl.find_opt t.site sender and ds = Hashtbl.find_opt t.site dest in
    let crashed_end = function Some s -> is_crashed t s | None -> false in
    if crashed_end ss || crashed_end ds then false
    else
      match (ss, ds) with
      | Some a, Some b when (not (String.equal a b)) && partitioned t a b -> false
      | _ -> true
end

(* An operation on a topology of [n] sites; its ints are taken modulo
   what they index. *)
type topo_op =
  | Spawn_explicit of int
  | Spawn_inherited of int  (* the parent: an earlier pid *)
  | Spawn_round_robin
  | Crash of int
  | Partition of int  (* a bitmask: the left group *)
  | Heal of int

let show_topo_op = function
  | Spawn_explicit i -> Printf.sprintf "explicit %d" i
  | Spawn_inherited i -> Printf.sprintf "inherited %d" i
  | Spawn_round_robin -> "round-robin"
  | Crash i -> Printf.sprintf "crash %d" i
  | Partition m -> Printf.sprintf "partition %d" m
  | Heal m -> Printf.sprintf "heal %d" m

let gen_topo_op =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun i -> Spawn_explicit i) (int_bound 7));
        (3, map (fun i -> Spawn_inherited i) (int_bound 63));
        (3, return Spawn_round_robin);
        (1, map (fun i -> Crash i) (int_bound 7));
        (2, map (fun m -> Partition m) (int_bound 31));
        (2, map (fun m -> Heal m) (int_bound 31));
      ])

let arb_topology =
  QCheck.make
    ~print:(fun (n, ops) ->
      Printf.sprintf "%d sites: %s" n (String.concat "; " (List.map show_topo_op ops)))
    QCheck.Gen.(pair (int_range 1 5) (list_size (int_range 1 40) gen_topo_op))

(* Run the operations on both topologies, comparing every query after
   each step. Two processes spawned before the topology have no site. *)
let topology_agrees (n, ops) =
  let eng = Engine.create ~trace:false () in
  let names = List.init n (Printf.sprintf "n%d") in
  let siteless = [ Engine.spawn eng ignore; Engine.spawn eng ignore ] in
  let sites = Sites.create eng ~names in
  let model = Ref_topology.create names in
  let pids = ref siteless in
  let spawn ?parent ?site () =
    let pid = Engine.spawn eng ?parent ?site ignore in
    Ref_topology.place model pid ~parent ~explicit:site;
    pids := !pids @ [ pid ]
  in
  let split m =
    ( List.filteri (fun i _ -> m land (1 lsl i) <> 0) names,
      List.filteri (fun i _ -> m land (1 lsl i) = 0) names )
  in
  let fail fmt = Printf.ksprintf (fun m -> QCheck.Test.fail_report m) fmt in
  let agrees () =
    List.iter
      (fun s ->
        if Sites.members sites s <> Ref_topology.members model s then
          fail "members %s" s;
        if Sites.is_crashed sites s <> Ref_topology.is_crashed model s then
          fail "is_crashed %s" s;
        List.iter
          (fun s' ->
            if Sites.partitioned sites s s' <> Ref_topology.partitioned model s s' then
              fail "partitioned %s %s" s s')
          names)
      names;
    if Sites.alive_sites sites
       <> List.filter (fun s -> not (Ref_topology.is_crashed model s)) names
    then fail "alive_sites";
    if Sites.crashed_sites sites <> List.filter (Ref_topology.is_crashed model) names
    then fail "crashed_sites";
    List.iter
      (fun a ->
        if Sites.site_of sites a <> Hashtbl.find_opt model.Ref_topology.site a then
          fail "site_of %s" (Pid.to_string a);
        List.iter
          (fun b ->
            if Sites.delivers sites ~sender:a ~dest:b
               <> Ref_topology.delivers model ~sender:a ~dest:b
            then fail "delivers %s -> %s" (Pid.to_string a) (Pid.to_string b))
          !pids)
      !pids
  in
  List.iter
    (fun op ->
      (match op with
      | Spawn_explicit i -> spawn ~site:(List.nth names (i mod n)) ()
      | Spawn_inherited i -> spawn ~parent:(List.nth !pids (i mod List.length !pids)) ()
      | Spawn_round_robin -> spawn ()
      | Crash i ->
        let s = List.nth names (i mod n) in
        Sites.crash sites s;
        Ref_topology.crash model s
      | Partition m | Heal m -> (
        match split m with
        | [], _ | _, [] -> ()
        | left, right -> (
          match op with
          | Partition _ ->
            Sites.partition sites ~left ~right;
            Ref_topology.partition model ~left ~right
          | _ ->
            Sites.heal sites ~left ~right;
            Ref_topology.heal model ~left ~right)));
      agrees ())
    ops;
  true

let prop_topology_model =
  QCheck.Test.make ~name:"topology agrees with the list model" ~count:500
    arb_topology topology_agrees

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)
(* ------------------------------------------------------------------ *)

(* Words per operation of [op] ([Alloc_words]) on a warm engine (a first
   run of 64 grows its tables), with the two sites "a" and "b" installed
   or none. *)
let words_per ~topology ~n op =
  let eng = Engine.create ~trace:false () in
  if topology then ignore (Sites.create eng ~names:[ "a"; "b" ]);
  op eng 64;
  Alloc_words.of_run (fun () -> op eng n) /. float_of_int n

let one = Payload.int 1

(* [n] messages between a process on "a" and one on "b" (round-robin
   placement puts them there), each only receiving and replying. *)
let cross_site_hops eng n =
  let pong =
    Engine.spawn eng ~cloneable:false (fun ctx ->
        for _ = 1 to n / 2 do
          let m = Engine.receive ctx () in
          Engine.send ctx m.Message.sender one
        done)
  in
  ignore
    (Engine.spawn eng ~cloneable:false (fun ctx ->
         for _ = 1 to n / 2 do
           Engine.send ctx pong one;
           ignore (Engine.receive ctx ())
         done));
  Engine.run eng

(* [n] spawns, a third each placed explicitly, inherited from the
   parent and round-robin: [n / 3] parents on "b", each spawning one
   child, and as many parentless processes. *)
let placements eng n =
  for _ = 1 to n / 3 do
    ignore
      (Engine.spawn eng ~cloneable:false ~site:"b" (fun ctx ->
           ignore (Engine.spawn (Engine.engine ctx) ~parent:(Engine.self ctx) ignore)));
    ignore (Engine.spawn eng ~cloneable:false ignore);
    Engine.run eng
  done

(* What a healthy topology adds to each operation of [op]: the
   difference between two runs of the same program, so the engine's own
   words cancel. A delivery verdict compares preboxed site labels and
   reads two arrays, so it adds nothing; a placement adds its membership
   cell (3 words with OCaml 5.1.1). The ceilings reject a verdict built
   from local closures and pair tuples (11 words per message) and a
   placement through [Option.bind] and a hash table (14 per spawn). *)
let topology_words op =
  words_per ~topology:true ~n:3000 op -. words_per ~topology:false ~n:3000 op

let test_topology_alloc name op ceiling () =
  let w = topology_words op in
  if w > ceiling then Alcotest.failf "%s: %.2f words, ceiling %.2f" name w ceiling

let () =
  Alcotest.run "sites"
    [
      ( "placement",
        [
          Alcotest.test_case "create validations" `Quick test_create_validations;
          Alcotest.test_case "placement rules" `Quick test_placement;
        ] );
      ( "faults",
        [
          Alcotest.test_case "crash kills residents" `Quick
            test_crash_kills_residents;
          Alcotest.test_case "partition validations" `Quick
            test_partition_validations;
          Alcotest.test_case "partition drops, heal restores" `Quick
            test_partition_drops_and_heal_restores;
        ] );
      ( "kill",
        [
          Alcotest.test_case "kill is idempotent" `Quick test_kill_idempotent;
          Alcotest.test_case "kill after natural exit" `Quick
            test_kill_after_natural_exit;
          Alcotest.test_case "kill racing natural exit" `Quick
            test_kill_racing_natural_exit;
        ] );
      ( "polling",
        [
          Alcotest.test_case "receive_timeout 0 polls" `Quick
            test_receive_timeout_zero_polls;
          Alcotest.test_case "ivar read_timeout 0 polls" `Quick
            test_ivar_read_timeout_zero_polls;
        ] );
      ( "consensus under site faults",
        [
          Alcotest.test_case "acquire_retry deterministic under partition"
            `Quick test_acquire_retry_deterministic_under_partition;
          Alcotest.test_case "denied consumes no retries" `Quick
            test_denied_returns_without_consuming_retries;
          Alcotest.test_case "stale epoch denied" `Quick test_stale_epoch_denied;
          Alcotest.test_case "fence voids stale grants" `Quick
            test_fence_voids_stale_grants;
        ] );
      ( "model", [ QCheck_alcotest.to_alcotest prop_topology_model ] );
      ( "alloc",
        [
          Alcotest.test_case "cross-site delivery on healthy sites" `Quick
            (test_topology_alloc "cross-site delivery, per message" cross_site_hops 0.05);
          Alcotest.test_case "placement" `Quick
            (test_topology_alloc "placement, per spawn" placements 3.15);
        ] );
      ( "coordinator recovery",
        [
          Alcotest.test_case "clean supervised run" `Quick
            test_supervised_clean_run;
          Alcotest.test_case "site crash recovers on a survivor" `Quick
            test_coordinator_site_crash_recovers;
          Alcotest.test_case "restored incarnation stays tracked" `Quick
            test_restored_incarnation_stays_tracked;
        ] );
    ]
