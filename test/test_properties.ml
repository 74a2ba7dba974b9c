(* Randomised end-to-end properties of the whole system:

   - the engine is deterministic (same seed, same behaviour);
   - concurrent execution is transparent (final state indistinguishable
     from a sequential execution of the winner alone);
   - multiple worlds are consistent (observers only ever see the winning
     timeline);
   - the consensus semaphore is exclusive under arbitrary timing and
     minority crashes;
   - replica quorums commit the majority value exactly when one exists. *)

let in_process ?space eng f =
  let result = ref None in
  let pid =
    Engine.spawn eng ?space ~cloneable:false ~name:"prop-root" (fun ctx ->
        result := Some (f ctx))
  in
  if Option.is_some space then Engine.preserve_space eng pid;
  Engine.run eng;
  match !result with
  | Some r -> r
  | None -> failwith "prop-root did not complete"

(* ------------------------------------------------------------------ *)
(* Determinism: a pseudo-random mesh of processes delaying and pinging
   each other must behave identically across runs.                     *)

type mesh_spec = { procs : int; rounds : int; seed : int; cores : int }

let mesh_arb =
  QCheck.make
    ~print:(fun s ->
      Printf.sprintf "{procs=%d; rounds=%d; seed=%d; cores=%d}" s.procs
        s.rounds s.seed s.cores)
    QCheck.Gen.(
      let* procs = int_range 2 6 in
      let* rounds = int_range 1 5 in
      let* seed = int_range 0 10_000 in
      let* cores = int_range 0 3 in
      return { procs; rounds; seed; cores })

let run_mesh spec =
  let cores = if spec.cores = 0 then Engine.Infinite else Engine.Cores spec.cores in
  let eng = Engine.create ~cores ~seed:spec.seed ~trace:true () in
  let pids = Array.to_list (Engine.fresh_pids eng spec.procs) in
  let arr = Array.of_list pids in
  List.iteri
    (fun i pid ->
      ignore
        (Engine.spawn eng ~pid ~name:(Printf.sprintf "m%d" i) (fun ctx ->
             let rng = Rng.create ~seed:(spec.seed + i) in
             for _ = 1 to spec.rounds do
               Engine.delay ctx (Rng.float rng 0.5);
               let target = arr.(Rng.int rng spec.procs) in
               Engine.send ctx target (Payload.int i);
               (* Drain at most one pending message without blocking. *)
               ignore (Engine.receive_timeout ctx ~timeout:0.01 ())
             done)))
    pids;
  Engine.run eng;
  ( Engine.now eng,
    Engine.stats_events_processed eng,
    List.length (Trace.events (Engine.trace eng)),
    Engine.total_cpu_time eng )

let prop_engine_deterministic =
  QCheck.Test.make ~name:"engine runs are bit-deterministic" ~count:60 mesh_arb
    (fun spec -> run_mesh spec = run_mesh spec)

(* ------------------------------------------------------------------ *)
(* Transparency: racing randomly-writing alternatives leaves exactly the
   winner's state.                                                     *)

type race_spec = { alts : (float * (int * int) list) list (* cost, writes *) }

let race_arb =
  QCheck.make
    ~print:(fun s ->
      String.concat " | "
        (List.map
           (fun (c, ws) ->
             Printf.sprintf "%.2fs:%s" c
               (String.concat ","
                  (List.map (fun (a, v) -> Printf.sprintf "%d<-%d" a v) ws)))
           s.alts))
    QCheck.Gen.(
      let* n = int_range 1 5 in
      let* alts =
        list_repeat n
          (let* cost = float_range 0.1 5. in
           let* writes =
             list_size (int_range 1 6)
               (pair (int_range 0 7) (int_range 1 1000))
           in
           return (cost, writes))
      in
      return { alts })

let final_cells eng space =
  ignore eng;
  List.init 8 (fun i -> Address_space.get_int space ~addr:(i * 64))

let build_alt (cost, writes) =
  Alternative.make (fun ctx ->
      List.iter
        (fun (cell, v) ->
          match Engine.space ctx with
          | Some sp ->
            Address_space.set_int sp ~addr:(cell * 64) v;
            Engine.charge_memory ctx
          | None -> ())
        writes;
      Engine.delay ctx cost;
      cost)

let prop_concurrent_transparent =
  QCheck.Test.make ~name:"concurrent block == sequential winner (state)"
    ~count:100 race_arb (fun spec ->
      (* Concurrent run. *)
      let eng = Engine.create ~trace:false () in
      let space =
        Address_space.create (Engine.frame_store eng) (Engine.model eng)
      in
      let r =
        Concurrent.run_toplevel eng ~space (List.map build_alt spec.alts)
      in
      match r.Concurrent.outcome with
      | Alt_block.Block_failed _ -> false
      | Alt_block.Selected { index; _ } ->
        let concurrent_state = final_cells eng space in
        (* Sequential run of the winner alone. *)
        let eng2 = Engine.create ~trace:false () in
        let space2 =
          Address_space.create (Engine.frame_store eng2) (Engine.model eng2)
        in
        let _ =
          in_process ~space:space2 eng2 (fun ctx ->
              Alt_block.run_first ctx [ build_alt (List.nth spec.alts index) ])
        in
        let sequential_state = final_cells eng2 space2 in
        let costs = Array.of_list (List.map fst spec.alts) in
        concurrent_state = sequential_state
        && Float.abs (r.Concurrent.elapsed -. Stats.min costs) < 1e-9)

(* ------------------------------------------------------------------ *)
(* Worlds consistency: speculative children message an observer; only
   the winning child's message may ever be delivered into the surviving
   observer's history.                                                 *)

let worlds_arb =
  QCheck.make
    ~print:(fun (n, costs) ->
      Printf.sprintf "n=%d costs=[%s]" n
        (String.concat ";" (List.map (Printf.sprintf "%.2f") costs)))
    QCheck.Gen.(
      let* n = int_range 2 5 in
      let* costs = list_repeat n (float_range 0.1 4.) in
      return (n, costs))

let prop_worlds_observer_consistent =
  QCheck.Test.make ~name:"observers see only the winning timeline" ~count:80
    worlds_arb (fun (n, costs) ->
      let eng = Engine.create ~trace:false () in
      let seen = ref [] in
      let observer =
        (* Each world accumulates its own local history (reconstructed by
           replay in clones) and publishes it only on surviving to
           completion: eliminated worlds never publish. *)
        Engine.spawn eng ~name:"observer" (fun ctx ->
            let local = ref [] in
            let rec loop () =
              match Engine.receive_timeout ctx ~timeout:50. () with
              | Some m ->
                local := Payload.get_int m.Message.payload :: !local;
                loop ()
              | None -> ()
            in
            loop ();
            seen := List.rev !local :: !seen)
      in
      ignore observer;
      let alts =
        List.mapi
          (fun i cost ->
            Alternative.make (fun ctx ->
                Engine.send ctx observer (Payload.int i);
                Engine.delay ctx cost;
                i))
          costs
      in
      let r =
        in_process eng (fun ctx -> Concurrent.run ctx alts)
      in
      ignore n;
      match r.Concurrent.outcome with
      | Alt_block.Selected { index; _ } ->
        (* Exactly one observer world survives, and its entire visible
           history is the winner's single message. *)
        !seen = [ [ index ] ]
      | Alt_block.Block_failed _ -> false)

(* ------------------------------------------------------------------ *)
(* Consensus exclusivity under random timing and minority crashes.     *)

let consensus_arb =
  QCheck.make
    ~print:(fun (nodes, crashed, offsets) ->
      Printf.sprintf "nodes=%d crashed=[%s] offsets=[%s]" nodes
        (String.concat ";" (List.map string_of_int crashed))
        (String.concat ";" (List.map (Printf.sprintf "%.3f") offsets)))
    QCheck.Gen.(
      let* nodes = oneofl [ 3; 5; 7 ] in
      let max_crashed = (nodes - 1) / 2 in
      let* crash_count = int_range 0 max_crashed in
      let* crashed =
        map
          (fun l -> List.sort_uniq compare (List.map (fun x -> x mod nodes) l))
          (list_repeat crash_count (int_range 0 (nodes - 1)))
      in
      let* requesters = int_range 1 4 in
      let* offsets = list_repeat requesters (float_range 0. 0.02) in
      return (nodes, crashed, offsets))

let prop_consensus_exclusive =
  QCheck.Test.make ~name:"majority semaphore: exactly one owner" ~count:80
    consensus_arb (fun (nodes, crashed, offsets) ->
      let eng =
        Engine.create ~model:Cost_model.hp_9000_350 ~trace:false ()
      in
      let m = Majority.create eng ~nodes ~crashed () in
      let wins = ref 0 and done_ = ref 0 in
      List.iter
        (fun offset ->
          ignore
            (Engine.spawn eng ~start_delay:offset (fun ctx ->
                 if Majority.acquire_retry ctx m ~reply_timeout:1. () = Majority.Granted
                 then incr wins;
                 incr done_)))
        offsets;
      Engine.run eng;
      !done_ = List.length offsets && !wins = 1)

(* ------------------------------------------------------------------ *)
(* Replica quorums: the committed value is the strict-majority value
   exactly when one exists.                                            *)

let quorum_arb =
  QCheck.make
    ~print:(fun values ->
      String.concat ";" (List.map string_of_int values))
    QCheck.Gen.(list_size (int_range 1 7) (int_range 0 3))

let majority_of values =
  let n = List.length values in
  let need = (n / 2) + 1 in
  let tally = Hashtbl.create 4 in
  List.iter
    (fun v ->
      Hashtbl.replace tally v (1 + Option.value ~default:0 (Hashtbl.find_opt tally v)))
    values;
  Hashtbl.fold (fun v c acc -> if c >= need then Some v else acc) tally None

let prop_quorum_matches_majority =
  QCheck.Test.make ~name:"replica quorum commits the majority value iff it exists"
    ~count:100 quorum_arb (fun values ->
      let eng = Engine.create ~trace:false () in
      let vals = Array.of_list values in
      let idx = ref (-1) in
      let q =
        in_process eng (fun ctx ->
            Replicate.run_quorum ctx ~replicas:(Array.length vals) (fun rctx ->
                (* Hand each replica its scripted answer; identical delays
                   keep every answer in play until the tally decides. *)
                incr idx;
                let v = vals.(!idx) in
                Engine.delay rctx 0.1;
                v))
      in
      match (majority_of values, q.Replicate.value) with
      | Some v, Some w -> v = w
      | None, None -> true
      | Some _, None ->
        (* The quorum may stop early once a majority is impossible among
           the remaining answers — but a true majority value must never be
           missed. It can only be missed if stragglers were eliminated
           after the decision; eliminating after "impossible" is only
           correct if the majority really was impossible. *)
        false
      | None, Some _ -> false)

(* ------------------------------------------------------------------ *)
(* Predicate algebra laws. The lint analyzer and the message-acceptance
   path both lean on [implies]/[conflicts]/[conjoin] being a well-behaved
   partial order over assumption sets; check the laws on random
   predicates (pids drawn from a shared small pool, so opposite-side
   collisions — i.e. conflicts — actually occur).                       *)

let pred_arb =
  QCheck.make ~print:Predicate.to_string
    QCheck.Gen.(
      let pool lo hi = list_size (int_range 0 4) (int_range lo hi) in
      let* cs = pool 0 7 in
      let* fs = pool 0 7 in
      let cs = List.sort_uniq compare cs in
      let fs =
        List.filter (fun x -> not (List.mem x cs)) (List.sort_uniq compare fs)
      in
      return
        (Predicate.make
           ~must_complete:(List.map Pid.of_int cs)
           ~must_fail:(List.map Pid.of_int fs)))

let prop_implies_reflexive =
  QCheck.Test.make ~name:"implies is reflexive" ~count:200 pred_arb (fun q ->
      Predicate.implies q q)

let prop_implies_antisymmetric =
  QCheck.Test.make ~name:"implies is antisymmetric (under interning)"
    ~count:500
    (QCheck.pair pred_arb pred_arb)
    (fun (a, b) ->
      QCheck.assume (Predicate.implies a b && Predicate.implies b a);
      Predicate.equal a b)

let prop_implies_transitive =
  QCheck.Test.make ~name:"implies is transitive" ~count:500
    (QCheck.triple pred_arb pred_arb pred_arb)
    (fun (a, b, c) ->
      QCheck.assume (Predicate.implies a b && Predicate.implies b c);
      Predicate.implies a c)

let prop_conflicts_symmetric =
  QCheck.Test.make ~name:"conflicts is symmetric" ~count:500
    (QCheck.pair pred_arb pred_arb)
    (fun (a, b) -> Predicate.conflicts a b = Predicate.conflicts b a)

let prop_conjoin_is_join =
  QCheck.Test.make
    ~name:"conjoin is the least upper bound of non-conflicting predicates"
    ~count:500
    (QCheck.pair pred_arb pred_arb)
    (fun (a, b) ->
      QCheck.assume (not (Predicate.conflicts a b));
      let c = Predicate.conjoin a b in
      Predicate.implies c a && Predicate.implies c b
      && Predicate.equal c (Predicate.conjoin b a)
      && Predicate.equal (Predicate.conjoin a a) a)

let prop_assume_resolve_roundtrip =
  QCheck.Test.make ~name:"assume then resolve round-trips" ~count:500
    (QCheck.pair pred_arb (QCheck.int_range 20 27))
    (fun (q, n) ->
      let pid = Pid.of_int n in
      let stronger = Predicate.assume_completes q pid in
      Predicate.implies stronger q
      && (match Predicate.resolve stronger ~pid ~fate:Predicate.Completed with
         | Predicate.Simplified q' -> Predicate.equal q' q
         | _ -> false)
      &&
      match Predicate.resolve stronger ~pid ~fate:Predicate.Failed with
      | Predicate.Falsified -> true
      | _ -> false)

let () =
  Alcotest.run "properties"
    [
      ( "system properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_engine_deterministic;
            prop_concurrent_transparent;
            prop_worlds_observer_consistent;
            prop_consensus_exclusive;
            prop_quorum_matches_majority;
          ] );
      ( "predicate algebra",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_implies_reflexive;
            prop_implies_antisymmetric;
            prop_implies_transitive;
            prop_conflicts_symmetric;
            prop_conjoin_is_join;
            prop_assume_resolve_roundtrip;
          ] );
    ]
