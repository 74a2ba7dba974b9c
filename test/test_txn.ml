(* Tests for optimistic transactions over the paged store (section 3.1's
   transaction semantics, Kung & Robinson validation) and competing
   transaction groups (section 6). *)

let check = Alcotest.check

let mk_engine () = Engine.create ~trace:false ()

let in_process eng f =
  let result = ref None in
  ignore
    (Engine.spawn eng ~cloneable:false ~name:"txn-root" (fun ctx ->
         result := Some (f ctx)));
  Engine.run eng;
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "root did not complete"

let test_store_basics () =
  let eng = mk_engine () in
  let st = Txn.create_store eng ~records:8 in
  check Alcotest.int "initial value" 0 (Txn.get st ~key:3);
  check Alcotest.int "no commits" 0 (Txn.commits st);
  Alcotest.check_raises "records positive"
    (Invalid_argument "Txn.create_store: records must be positive") (fun () ->
      ignore (Txn.create_store eng ~records:0))

let test_commit_applies_writes () =
  let eng = mk_engine () in
  let st = Txn.create_store eng ~records:4 in
  let r =
    in_process eng (fun ctx ->
        Txn.with_txn ctx st (fun ctx t ->
            Txn.write ctx t ~key:0 10;
            Txn.write ctx t ~key:1 20))
  in
  check Alcotest.bool "committed" true (r = Ok ());
  check Alcotest.int "key 0" 10 (Txn.get st ~key:0);
  check Alcotest.int "key 1" 20 (Txn.get st ~key:1);
  check Alcotest.int "untouched key" 0 (Txn.get st ~key:2);
  check Alcotest.int "one commit" 1 (Txn.commits st)

let test_reads_own_writes () =
  let eng = mk_engine () in
  let st = Txn.create_store eng ~records:2 in
  ignore
    (in_process eng (fun ctx ->
         Txn.with_txn ctx st (fun ctx t ->
             Txn.write ctx t ~key:0 5;
             check Alcotest.int "internally consistent" 5 (Txn.read ctx t ~key:0))))

exception Rollback

(* A body that raises aborts its transaction. *)
let test_isolation_until_commit () =
  let eng = mk_engine () in
  let st = Txn.create_store eng ~records:2 in
  in_process eng (fun ctx ->
      match
        Txn.with_txn ctx st (fun ctx t ->
            Txn.write ctx t ~key:0 99;
            check Alcotest.int "uncommitted write invisible" 0 (Txn.get st ~key:0);
            raise Rollback)
      with
      | _ -> Alcotest.fail "the body raised"
      | exception Rollback ->
        check Alcotest.int "aborted write never lands" 0 (Txn.get st ~key:0))

let test_snapshot_isolation_reads () =
  let eng = mk_engine () in
  let st = Txn.create_store eng ~records:2 in
  ignore
    (in_process eng (fun ctx ->
         Txn.with_txn ctx st ~retries:0 (fun ctx t1 ->
             (* A later transaction commits a change. *)
             let r = Txn.with_txn ctx st (fun ctx t2 -> Txn.write ctx t2 ~key:0 7) in
             check Alcotest.bool "t2 commits" true (r = Ok ());
             (* t1 still sees its snapshot. *)
             check Alcotest.int "t1 reads the snapshot" 0 (Txn.read ctx t1 ~key:0))))

let test_write_write_conflict_detected () =
  let eng = mk_engine () in
  let st = Txn.create_store eng ~records:2 in
  let result =
    in_process eng (fun ctx ->
        Txn.with_txn ctx st ~retries:0 (fun ctx t1 ->
            let _ = Txn.read ctx t1 ~key:0 in
            let r =
              Txn.with_txn ctx st (fun ctx t2 ->
                  let v = Txn.read ctx t2 ~key:0 in
                  Txn.write ctx t2 ~key:0 (v + 1))
            in
            check Alcotest.bool "t2 commits first" true (r = Ok ());
            (* t1's read of key 0 is now stale. *)
            Txn.write ctx t1 ~key:0 100))
  in
  (match result with
  | Error { Txn.key = 0; read_version = 0; committed_version = 1 } -> ()
  | Error c -> Alcotest.failf "unexpected conflict on key %d" c.Txn.key
  | Ok () -> Alcotest.fail "lost update not prevented!");
  check Alcotest.int "t2's increment survives" 1 (Txn.get st ~key:0)

let test_blind_writes_do_not_conflict () =
  (* A transaction that never read the record it writes cannot be
     invalidated by other writers of that record. *)
  let eng = mk_engine () in
  let st = Txn.create_store eng ~records:2 in
  let r =
    in_process eng (fun ctx ->
        Txn.with_txn ctx st ~retries:0 (fun ctx t1 ->
            let r = Txn.with_txn ctx st (fun ctx t2 -> Txn.write ctx t2 ~key:0 1) in
            check Alcotest.bool "t2 ok" true (r = Ok ());
            Txn.write ctx t1 ~key:0 2))
  in
  check Alcotest.bool "blind write commits" true (r = Ok ());
  check Alcotest.int "last writer wins" 2 (Txn.get st ~key:0)

let test_finished_transactions_reject_use () =
  let eng = mk_engine () in
  let st = Txn.create_store eng ~records:1 in
  in_process eng (fun ctx ->
      match Txn.with_txn ctx st (fun _ t -> t) with
      | Error _ -> Alcotest.fail "an empty transaction commits"
      | Ok t ->
        Alcotest.check_raises "read after finish"
          (Invalid_argument "Txn: transaction already finished") (fun () ->
            ignore (Txn.read ctx t ~key:0)))

let test_key_range_checked () =
  let eng = mk_engine () in
  let st = Txn.create_store eng ~records:2 in
  ignore
    (in_process eng (fun ctx ->
         Txn.with_txn ctx st (fun ctx t ->
             Alcotest.check_raises "bad key" (Invalid_argument "Txn: key out of range")
               (fun () -> ignore (Txn.read ctx t ~key:2)))))

(* A transaction that commits an increment of record 0 from inside
   another's body. *)
let sabotage ctx st n =
  ignore
    (Txn.with_txn ctx st (fun ctx s ->
         let w = Txn.read ctx s ~key:0 in
         Txn.write ctx s ~key:0 (w + n)))

let test_with_txn_retries () =
  let eng = mk_engine () in
  let st = Txn.create_store eng ~records:1 in
  let attempts = ref 0 in
  let r =
    in_process eng (fun ctx ->
        Txn.with_txn ctx st ~retries:5 (fun ctx t ->
            incr attempts;
            let v = Txn.read ctx t ~key:0 in
            (* Interfere with ourselves on the first two attempts. *)
            if !attempts <= 2 then sabotage ctx st 10;
            Txn.write ctx t ~key:0 (v + 1);
            v))
  in
  check Alcotest.bool "eventually committed" true (match r with Ok _ -> true | _ -> false);
  check Alcotest.int "took three attempts" 3 !attempts;
  (* Two sabotages (+10 each) plus the successful increment. *)
  check Alcotest.int "final value" 21 (Txn.get st ~key:0)

let test_with_txn_exhausts_retries () =
  let eng = mk_engine () in
  let st = Txn.create_store eng ~records:1 in
  let r =
    in_process eng (fun ctx ->
        Txn.with_txn ctx st ~retries:2 (fun ctx t ->
            let v = Txn.read ctx t ~key:0 in
            sabotage ctx st 1;
            Txn.write ctx t ~key:0 (v + 100)))
  in
  check Alcotest.bool "gives up with the conflict" true
    (match r with Error _ -> true | Ok _ -> false)

let test_serializable_counter () =
  (* Many sequential with_txn increments are serializable: final value =
     number of commits. *)
  let eng = mk_engine () in
  let st = Txn.create_store eng ~records:1 in
  in_process eng (fun ctx ->
      for _ = 1 to 20 do
        match
          Txn.with_txn ctx st (fun ctx t ->
              let v = Txn.read ctx t ~key:0 in
              Txn.write ctx t ~key:0 (v + 1))
        with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "unexpected conflict"
      done);
  check Alcotest.int "20 increments" 20 (Txn.get st ~key:0)

(* ---------------- competing transactions ---------------- *)

let transfer name cost ~from_ ~to_ ~amount =
  {
    Txn.name;
    work =
      (fun ctx t ->
        let a = Txn.read ctx t ~key:from_ in
        let b = Txn.read ctx t ~key:to_ in
        Engine.delay ctx cost;
        Txn.write ctx t ~key:from_ (a - amount);
        Txn.write ctx t ~key:to_ (b + amount);
        amount);
  }

let test_race_commits_exactly_one () =
  let eng = mk_engine () in
  let st = Txn.create_store eng ~records:2 in
  (* Fund account 0. *)
  in_process eng (fun ctx ->
      ignore
        (Txn.with_txn ctx st (fun ctx t -> Txn.write ctx t ~key:0 100)));
  let eng2 = mk_engine () in
  ignore eng2;
  let outcome =
    in_process eng (fun ctx ->
        Txn.race ctx st
          [
            transfer "slow-path" 3.0 ~from_:0 ~to_:1 ~amount:30;
            transfer "fast-path" 1.0 ~from_:0 ~to_:1 ~amount:30;
          ])
  in
  (match outcome with
  | Alt_block.Selected { index = 1; value = 30 } -> ()
  | Alt_block.Selected { index; _ } -> Alcotest.failf "wrong winner %d" index
  | Alt_block.Block_failed m -> Alcotest.failf "failed: %s" m);
  (* Exactly one transfer took effect. *)
  check Alcotest.int "source debited once" 70 (Txn.get st ~key:0);
  check Alcotest.int "target credited once" 30 (Txn.get st ~key:1);
  check Alcotest.int "two commits total (funding + winner)" 2 (Txn.commits st)

let test_race_losers_leave_no_trace () =
  let eng = mk_engine () in
  let st = Txn.create_store eng ~records:3 in
  let outcome =
    in_process eng (fun ctx ->
        Txn.race ctx st
          [
            (* The slow competitor writes a record nobody else touches; its
               transaction must be aborted unseen. *)
            {
              Txn.name = "slow-scribbler";
              work =
                (fun ctx t ->
                  Txn.write ctx t ~key:2 777;
                  Engine.delay ctx 5.0;
                  0);
            };
            transfer "quick" 0.5 ~from_:0 ~to_:1 ~amount:1;
          ])
  in
  (match outcome with
  | Alt_block.Selected { index = 1; _ } -> ()
  | _ -> Alcotest.fail "quick must win");
  check Alcotest.int "loser's write discarded" 0 (Txn.get st ~key:2)

let test_race_failing_competitors () =
  let eng = mk_engine () in
  let st = Txn.create_store eng ~records:1 in
  let outcome =
    in_process eng (fun ctx ->
        Txn.race ctx st
          [
            {
              Txn.name = "broken";
              work = (fun _ _ -> raise (Alternative.Failed "bug"));
            };
            {
              Txn.name = "works";
              work =
                (fun ctx t ->
                  Engine.delay ctx 1.;
                  Txn.write ctx t ~key:0 5;
                  5);
            };
          ])
  in
  (match outcome with
  | Alt_block.Selected { index = 1; value = 5 } -> ()
  | _ -> Alcotest.fail "surviving competitor must win");
  check Alcotest.int "committed" 5 (Txn.get st ~key:0)

let test_race_all_fail () =
  let eng = mk_engine () in
  let st = Txn.create_store eng ~records:1 in
  let outcome =
    in_process eng (fun ctx ->
        Txn.race ctx st
          [
            { Txn.name = "a"; work = (fun _ _ -> raise (Alternative.Failed "x")) };
          ])
  in
  (match outcome with
  | Alt_block.Block_failed _ -> ()
  | _ -> Alcotest.fail "must fail");
  check Alcotest.int "no commits" 0 (Txn.commits st)

let test_begin_death_returns_snapshot () =
  (* A store of 80 pages: the snapshot fork costs 12 ms, and a process is
     killed 5 ms into that charge. A commit afterwards writes the store's
     pages in place, so a snapshot still sharing them would force a copy:
     one frame beyond the store's own. *)
  let model = Cost_model.hp_9000_350 in
  let eng = Engine.create ~model ~trace:false () in
  let st = Txn.create_store eng ~records:(320 * 1024 / 8) in
  let store_frames = Frame_store.live_frames (Engine.frame_store eng) in
  let pid =
    Engine.spawn eng ~cloneable:false ~name:"txn-root" (fun ctx ->
        ignore (Txn.with_txn ctx st (fun _ _ -> ())))
  in
  Engine.after eng ~delay:0.005 (fun () -> Engine.kill eng pid ~reason:"test kill");
  Engine.run eng;
  check Alcotest.bool "killed in begin_'s charge" true
    (Engine.status eng pid = Some (Engine.Eliminated "test kill"));
  let r =
    in_process eng (fun ctx -> Txn.with_txn ctx st (fun ctx t -> Txn.write ctx t ~key:0 1))
  in
  check Alcotest.bool "committed" true (r = Ok ());
  check Alcotest.int "frames beyond the store's" 0
    (Frame_store.live_frames (Engine.frame_store eng) - store_frames)

let prop_competing_increments_serialize =
  (* Run several racing groups back to back; each group commits exactly one
     increment, so the counter equals the number of groups. *)
  QCheck.Test.make ~name:"each racing group commits exactly once" ~count:40
    QCheck.(pair (int_range 1 8) (int_range 2 4))
    (fun (groups, competitors) ->
      let eng = mk_engine () in
      let st = Txn.create_store eng ~records:1 in
      in_process eng (fun ctx ->
          for g = 1 to groups do
            let comps =
              List.init competitors (fun i ->
                  {
                    Txn.name = Printf.sprintf "g%dc%d" g i;
                    work =
                      (fun ctx t ->
                        let v = Txn.read ctx t ~key:0 in
                        Engine.delay ctx (0.1 +. (0.1 *. float_of_int i));
                        Txn.write ctx t ~key:0 (v + 1);
                        v);
                  })
            in
            match Txn.race ctx st comps with
            | Alt_block.Selected _ -> ()
            | Alt_block.Block_failed m -> failwith m
          done);
      Txn.get st ~key:0 = groups && Txn.commits st = groups)

let () =
  Alcotest.run "txn"
    [
      ( "occ",
        [
          Alcotest.test_case "store basics" `Quick test_store_basics;
          Alcotest.test_case "commit applies writes" `Quick test_commit_applies_writes;
          Alcotest.test_case "reads own writes" `Quick test_reads_own_writes;
          Alcotest.test_case "isolation until commit" `Quick test_isolation_until_commit;
          Alcotest.test_case "snapshot reads" `Quick test_snapshot_isolation_reads;
          Alcotest.test_case "stale read detected" `Quick test_write_write_conflict_detected;
          Alcotest.test_case "blind writes pass" `Quick test_blind_writes_do_not_conflict;
          Alcotest.test_case "finished transactions reject use" `Quick
            test_finished_transactions_reject_use;
          Alcotest.test_case "key range" `Quick test_key_range_checked;
          Alcotest.test_case "with_txn retries" `Quick test_with_txn_retries;
          Alcotest.test_case "with_txn exhausts retries" `Quick
            test_with_txn_exhausts_retries;
          Alcotest.test_case "serializable counter" `Quick test_serializable_counter;
          Alcotest.test_case "a process killed in begin_ returns its snapshot" `Quick
            test_begin_death_returns_snapshot;
        ] );
      ( "competing",
        [
          Alcotest.test_case "exactly one commits" `Quick test_race_commits_exactly_one;
          Alcotest.test_case "losers leave no trace" `Quick test_race_losers_leave_no_trace;
          Alcotest.test_case "failing competitors" `Quick test_race_failing_competitors;
          Alcotest.test_case "all fail" `Quick test_race_all_fail;
          QCheck_alcotest.to_alcotest prop_competing_increments_serialize;
        ] );
    ]
