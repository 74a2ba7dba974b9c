(* Tests for the extension features: guard placement (section 3.2), remote
   placement of alternatives (section 5.1.2 / rfork), and transparent
   replication combined with alternatives (section 6). *)

let check = Alcotest.check
let cf = Alcotest.float 1e-9

let mk_engine ?(model = Cost_model.uniform ()) () =
  Engine.create ~model ~trace:false ()

let in_process ?space eng f =
  let result = ref None in
  let pid =
    Engine.spawn eng ?space ~cloneable:false ~name:"ext-root" (fun ctx ->
        result := Some (f ctx))
  in
  if Option.is_some space then Engine.preserve_space eng pid;
  Engine.run eng;
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "root did not complete"

(* Sink state at a fixed address of the calling process's space; a write
   charges its copy-on-write fault to the caller's clock. *)
let set_int ctx addr v =
  Address_space.set_int (Option.get (Engine.space ctx)) ~addr v;
  Engine.charge_memory ctx

let with_policy ?(guards = Concurrent.Guard_in_child)
    ?(placement = Concurrent.Local_spawn) () =
  { Concurrent.default_policy with guards; placement }

(* ---------------- guard placement ---------------- *)

let guarded_alts ~count_evals =
  [
    Alternative.make ~name:"closed"
      ~guard:(fun _ ->
        incr count_evals;
        false)
      (fun ctx ->
        Engine.delay ctx 0.1;
        "closed");
    Alternative.make ~name:"open"
      ~guard:(fun _ ->
        incr count_evals;
        true)
      (fun ctx ->
        Engine.delay ctx 1.;
        "open");
  ]

let test_guard_before_spawn_skips_closed () =
  let eng = mk_engine () in
  let evals = ref 0 in
  let r =
    in_process eng (fun ctx ->
        Concurrent.run ctx
          ~policy:(with_policy ~guards:Concurrent.Guard_before_spawn ())
          (guarded_alts ~count_evals:evals))
  in
  (match r.Concurrent.outcome with
  | Alt_block.Selected { index = 1; value = "open" } -> ()
  | _ -> Alcotest.fail "open alternative must win");
  check Alcotest.int "only the open one spawned" 1 r.Concurrent.spawned;
  check Alcotest.int "one child pid" 1 (List.length r.Concurrent.children);
  check Alcotest.int "guards evaluated once each, in the parent" 2 !evals

let test_guard_before_spawn_all_closed () =
  let eng = mk_engine () in
  let r =
    in_process eng (fun ctx ->
        Concurrent.run ctx
          ~policy:(with_policy ~guards:Concurrent.Guard_before_spawn ())
          [ Alternative.make ~guard:(fun _ -> false) (fun _ -> 0) ])
  in
  (match r.Concurrent.outcome with
  | Alt_block.Block_failed "no open alternative" -> ()
  | _ -> Alcotest.fail "expected immediate failure");
  check Alcotest.int "nothing spawned" 0 r.Concurrent.spawned;
  check cf "no time consumed" 0. r.Concurrent.elapsed

let test_guard_at_sync_runs_body_first () =
  (* With the guard at the sync point, the body of a closed alternative
     still executes (and wastes work) before being rejected. *)
  let eng = mk_engine () in
  let body_ran = ref false in
  let r =
    in_process eng (fun ctx ->
        Concurrent.run ctx
          ~policy:(with_policy ~guards:Concurrent.Guard_at_sync ())
          [
            Alternative.make ~name:"closed" ~guard:(fun _ -> false) (fun ctx ->
                body_ran := true;
                Engine.delay ctx 0.1;
                "closed");
            Alternative.fixed ~name:"open" ~cost:1. "open";
          ])
  in
  check Alcotest.bool "closed body ran" true !body_ran;
  match r.Concurrent.outcome with
  | Alt_block.Selected { value = "open"; _ } -> ()
  | _ -> Alcotest.fail "open must still win"

let test_guard_redundant_consistent () =
  let eng = mk_engine () in
  let evals = ref 0 in
  let r =
    in_process eng (fun ctx ->
        Concurrent.run ctx
          ~policy:(with_policy ~guards:Concurrent.Guard_redundant ())
          (guarded_alts ~count_evals:evals))
  in
  (match r.Concurrent.outcome with
  | Alt_block.Selected { value = "open"; _ } -> ()
  | _ -> Alcotest.fail "open must win");
  (* Closed guard evaluated once (before spawn, then skipped); open guard
     evaluated before spawn + in child + at sync = 3. *)
  check Alcotest.int "redundant evaluations" 4 !evals

let test_guard_in_child_spawns_all () =
  let eng = mk_engine () in
  let evals = ref 0 in
  let r =
    in_process eng (fun ctx ->
        Concurrent.run ctx ~policy:(with_policy ())
          (guarded_alts ~count_evals:evals))
  in
  check Alcotest.int "both spawned" 2 r.Concurrent.spawned

(* ---------------- remote placement ---------------- *)

let remote_setup_engine () =
  let model = Cost_model.distributed_lan in
  let eng = Engine.create ~model ~trace:false () in
  let space =
    Address_space.create ~size_hint:(70 * 1024) (Engine.frame_store eng) model
  in
  (eng, space)

let test_remote_setup_costs_rfork () =
  let eng, space = remote_setup_engine () in
  let r =
    in_process ~space eng (fun ctx ->
        Concurrent.run ctx
          ~policy:(with_policy ~placement:Concurrent.Remote_spawn ())
          [ Alternative.fixed ~cost:0.1 "a"; Alternative.fixed ~cost:0.2 "b" ])
  in
  (* Two rforks of a 70K image at ~1.0 s each. *)
  check Alcotest.bool "setup ~2x rfork" true
    (Float.abs (r.Concurrent.setup_cost -. 2.004) < 0.02);
  match r.Concurrent.outcome with
  | Alt_block.Selected { value = "a"; _ } -> ()
  | _ -> Alcotest.fail "fastest remote alternative must win"

let test_remote_state_ships_back () =
  let eng, space = remote_setup_engine () in
  Address_space.set_int space ~addr:0 0;
  let r =
    in_process ~space eng (fun ctx ->
        Concurrent.run ctx
          ~policy:(with_policy ~placement:Concurrent.Remote_spawn ())
          [
            Alternative.make (fun ctx ->
                set_int ctx 0 99;
                Engine.delay ctx 0.1;
                "writer");
          ])
  in
  (match r.Concurrent.outcome with
  | Alt_block.Selected { value = "writer"; _ } -> ()
  | _ -> Alcotest.fail "writer must win");
  check Alcotest.int "remote write visible after absorption" 99
    (Address_space.get_int space ~addr:0);
  (* Shipping the winner's image back is part of the selection cost. *)
  check Alcotest.bool "selection includes return transfer" true
    (r.Concurrent.selection_cost > 0.9)

let test_remote_children_have_private_pages () =
  let eng, space = remote_setup_engine () in
  let r =
    in_process ~space eng (fun ctx ->
        Concurrent.run ctx
          ~policy:(with_policy ~placement:Concurrent.Remote_spawn ())
          [
            Alternative.make (fun ctx ->
                (match Engine.space ctx with
                | Some sp ->
                  (* A remote image is fully private: no COW faults. *)
                  Address_space.touch sp ~addr:0 ~len:(70 * 1024);
                  Engine.charge_memory ctx
                | None -> ());
                Engine.delay ctx 0.01;
                "remote");
          ])
  in
  check Alcotest.int "no COW faults on a restored image" 0
    r.Concurrent.child_cow_copies

let test_remote_slower_than_local_for_small_work () =
  let run placement =
    let eng, space = remote_setup_engine () in
    (in_process ~space eng (fun ctx ->
         Concurrent.run ctx ~policy:(with_policy ~placement ())
           [ Alternative.fixed ~cost:0.05 0; Alternative.fixed ~cost:0.1 1 ]))
      .Concurrent.elapsed
  in
  check Alcotest.bool "rfork overhead dominates small computations" true
    (run Concurrent.Remote_spawn > 10. *. run Concurrent.Local_spawn)

let test_on_demand_setup_is_cheap () =
  let eng, space = remote_setup_engine () in
  let r =
    in_process ~space eng (fun ctx ->
        Concurrent.run ctx
          ~policy:(with_policy ~placement:Concurrent.Remote_on_demand ())
          [ Alternative.fixed ~cost:0.1 "a"; Alternative.fixed ~cost:0.2 "b" ])
  in
  (* No image ships at spawn: setup is two (fork + control round trip)s,
     far below the ~2 s of eager checkpointing. *)
  check Alcotest.bool "setup below 0.2 s" true (r.Concurrent.setup_cost < 0.2);
  match r.Concurrent.outcome with
  | Alt_block.Selected { value = "a"; _ } -> ()
  | _ -> Alcotest.fail "fastest must win"

let test_on_demand_faults_pay_network_prices () =
  let eng, space = remote_setup_engine () in
  let model = Cost_model.distributed_lan in
  let touch_pages = 5 in
  let r =
    in_process ~space eng (fun ctx ->
        Concurrent.run ctx
          ~policy:(with_policy ~placement:Concurrent.Remote_on_demand ())
          [
            Alternative.make (fun ctx ->
                (match Engine.space ctx with
                | Some sp ->
                  Address_space.touch sp ~addr:0
                    ~len:(touch_pages * model.Cost_model.page_size);
                  Engine.charge_memory ctx
                | None -> ());
                "toucher");
          ])
  in
  (match r.Concurrent.outcome with
  | Alt_block.Selected { value = "toucher"; _ } -> ()
  | _ -> Alcotest.fail "must win");
  (* Elapsed includes 5 faults at (copy + network fetch) each, charged to
     the child's clock. *)
  let per_fault = model.Cost_model.page_copy +. model.Cost_model.remote_per_page in
  check Alcotest.bool "faults priced with the network" true
    (r.Concurrent.elapsed > float_of_int touch_pages *. per_fault);
  check Alcotest.int "five pages privatised" touch_pages r.Concurrent.child_cow_copies

let test_on_demand_ships_back_only_dirty () =
  (* Compare selection costs: the eager scheme ships the whole 18-page
     image back; on-demand ships only the one dirty page. *)
  let run placement =
    let eng, space = remote_setup_engine () in
    Address_space.set_int space ~addr:0 0;
    (in_process ~space eng (fun ctx ->
         Concurrent.run ctx ~policy:(with_policy ~placement ())
           [
             Alternative.make (fun ctx ->
                 set_int ctx 0 1;
                 Engine.delay ctx 0.1;
                 ());
           ]))
      .Concurrent.selection_cost
  in
  check Alcotest.bool "on-demand return transfer much cheaper" true
    (run Concurrent.Remote_on_demand < 0.3 *. run Concurrent.Remote_spawn)

let test_on_demand_state_still_ships_back () =
  let eng, space = remote_setup_engine () in
  Address_space.set_int space ~addr:0 0;
  let r =
    in_process ~space eng (fun ctx ->
        Concurrent.run ctx
          ~policy:(with_policy ~placement:Concurrent.Remote_on_demand ())
          [
            Alternative.make (fun ctx ->
                set_int ctx 0 31;
                Engine.delay ctx 0.1;
                ());
          ])
  in
  (match r.Concurrent.outcome with
  | Alt_block.Selected _ -> ()
  | _ -> Alcotest.fail "must win");
  check Alcotest.int "winner write visible" 31
    (Address_space.get_int space ~addr:0)

(* ---------------- replication ---------------- *)

let test_quorum_unanimous () =
  let eng = mk_engine () in
  let q =
    in_process eng (fun ctx ->
        Replicate.run_quorum ctx ~replicas:3 (fun rctx ->
            Engine.delay rctx 0.1;
            42))
  in
  check Alcotest.bool "majority value" true (q.Replicate.value = Some 42);
  (* The quorum decides as soon as 2 of 3 agree; the third replica may be
     eliminated before answering. *)
  check Alcotest.bool "at least a majority agrees" true (q.Replicate.agreeing >= 2);
  check Alcotest.int "no crashes before the decision" 0 q.Replicate.crashed

let test_quorum_decides_at_majority_not_slowest () =
  let eng = mk_engine () in
  let elapsed = ref 0. in
  let q =
    in_process eng (fun ctx ->
        let t0 = Engine.now_v ctx in
        let q =
          Replicate.run_quorum ctx ~replicas:3 (fun rctx ->
              (* Replica speeds differ; pid parity gives 1, 2 or 3 s. *)
              let me = Pid.to_int (Engine.self rctx) mod 3 in
              Engine.delay rctx (1. +. float_of_int me);
              7)
        in
        elapsed := Engine.now_v ctx -. t0;
        q)
  in
  check Alcotest.bool "value" true (q.Replicate.value = Some 7);
  check Alcotest.bool "decided at the 2nd replica, not the 3rd" true
    (!elapsed < 2.9)

let test_quorum_masks_minority_wrong_values () =
  let eng = mk_engine () in
  let counter = ref 0 in
  let q =
    in_process eng (fun ctx ->
        Replicate.run_quorum ctx ~replicas:5 (fun rctx ->
            incr counter;
            let n = !counter in
            Engine.delay rctx 0.1;
            (* Two replicas are corrupted. *)
            if n <= 2 then 666 else 42))
  in
  check Alcotest.bool "majority masks the corruption" true
    (q.Replicate.value = Some 42)

let test_quorum_no_majority () =
  let eng = mk_engine () in
  let counter = ref 0 in
  let q =
    in_process eng (fun ctx ->
        Replicate.run_quorum ctx ~replicas:4 (fun rctx ->
            incr counter;
            let n = !counter in
            Engine.delay rctx 0.1;
            n (* all four disagree *)))
  in
  check Alcotest.bool "no value" true (q.Replicate.value = None);
  check Alcotest.int "largest group is 1" 1 q.Replicate.agreeing

let test_quorum_survives_minority_crashes () =
  let eng = mk_engine () in
  let counter = ref 0 in
  let q =
    in_process eng (fun ctx ->
        Replicate.run_quorum ctx ~replicas:5 (fun rctx ->
            incr counter;
            let n = !counter in
            Engine.delay rctx 0.1;
            if n <= 2 then failwith "replica node down" else 11))
  in
  check Alcotest.bool "3 of 5 suffice" true (q.Replicate.value = Some 11);
  check Alcotest.int "crashes counted" 2 q.Replicate.crashed

let test_quorum_validation () =
  let eng = mk_engine () in
  let raised = ref false in
  ignore
    (in_process eng (fun ctx ->
         try ignore (Replicate.run_quorum ctx ~replicas:0 (fun _ -> 0))
         with Invalid_argument _ -> raised := true));
  check Alcotest.bool "replicas >= 1 enforced" true !raised

let test_replicated_alternative_in_a_block () =
  (* Section 6's composition: replication inside, fastest-first across. A
     fast alternative whose replicas disagree fails its majority and loses
     to a slower but consistent one. *)
  let eng = mk_engine () in
  let flaky_counter = ref 0 in
  let flaky =
    Alternative.make ~name:"flaky-fast" (fun rctx ->
        incr flaky_counter;
        (* Every replica answers differently: no quorum. *)
        let n = !flaky_counter in
        Engine.delay rctx 0.1;
        n)
  in
  let steady =
    Alternative.make ~name:"steady-slow" (fun rctx ->
        Engine.delay rctx 1.0;
        42)
  in
  let r =
    in_process eng (fun ctx ->
        Concurrent.run ctx
          [
            Replicate.alternative ~replicas:3 flaky;
            Replicate.alternative ~replicas:3 steady;
          ])
  in
  match r.Concurrent.outcome with
  | Alt_block.Selected { index = 1; value = 42 } -> ()
  | Alt_block.Selected { index; _ } -> Alcotest.failf "wrong winner %d" index
  | Alt_block.Block_failed m -> Alcotest.failf "block failed: %s" m

let test_replicated_alternative_name_and_guard () =
  let alt =
    Replicate.alternative ~replicas:3
      (Alternative.make ~name:"base" ~guard:(fun _ -> false) (fun _ -> 0))
  in
  check Alcotest.string "name decorated" "base(x3)" alt.Alternative.name;
  let eng = mk_engine () in
  let r = in_process eng (fun ctx -> Concurrent.run ctx [ alt ]) in
  match r.Concurrent.outcome with
  | Alt_block.Block_failed _ -> ()
  | _ -> Alcotest.fail "guard must still gate the replicated alternative"

let () =
  Alcotest.run "extensions"
    [
      ( "guard placement",
        [
          Alcotest.test_case "before-spawn skips closed" `Quick
            test_guard_before_spawn_skips_closed;
          Alcotest.test_case "before-spawn, all closed" `Quick
            test_guard_before_spawn_all_closed;
          Alcotest.test_case "at-sync runs body first" `Quick
            test_guard_at_sync_runs_body_first;
          Alcotest.test_case "redundant evaluation count" `Quick
            test_guard_redundant_consistent;
          Alcotest.test_case "in-child spawns all" `Quick test_guard_in_child_spawns_all;
        ] );
      ( "remote placement",
        [
          Alcotest.test_case "setup costs rfork" `Quick test_remote_setup_costs_rfork;
          Alcotest.test_case "state ships back" `Quick test_remote_state_ships_back;
          Alcotest.test_case "private pages" `Quick test_remote_children_have_private_pages;
          Alcotest.test_case "rfork overhead vs small work" `Quick
            test_remote_slower_than_local_for_small_work;
          Alcotest.test_case "on-demand: cheap setup" `Quick test_on_demand_setup_is_cheap;
          Alcotest.test_case "on-demand: faults pay network" `Quick
            test_on_demand_faults_pay_network_prices;
          Alcotest.test_case "on-demand: dirty-only return" `Quick
            test_on_demand_ships_back_only_dirty;
          Alcotest.test_case "on-demand: state ships back" `Quick
            test_on_demand_state_still_ships_back;
        ] );
      ( "replication",
        [
          Alcotest.test_case "unanimous quorum" `Quick test_quorum_unanimous;
          Alcotest.test_case "decides at majority" `Quick
            test_quorum_decides_at_majority_not_slowest;
          Alcotest.test_case "masks minority wrong values" `Quick
            test_quorum_masks_minority_wrong_values;
          Alcotest.test_case "no majority" `Quick test_quorum_no_majority;
          Alcotest.test_case "survives minority crashes" `Quick
            test_quorum_survives_minority_crashes;
          Alcotest.test_case "validation" `Quick test_quorum_validation;
          Alcotest.test_case "replicated alternative in a block" `Quick
            test_replicated_alternative_in_a_block;
          Alcotest.test_case "name and guard preserved" `Quick
            test_replicated_alternative_name_and_guard;
        ] );
    ]
