(* Edge-case tests: the "too late" backup under lost eliminations, chained
   worlds and fates, kills inside protocols, and parser round trips. *)

let check = Alcotest.check
let cf = Alcotest.float 1e-9

let in_process ?space eng f =
  let result = ref None in
  let pid =
    Engine.spawn eng ?space ~cloneable:false ~name:"edge-root" (fun ctx ->
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

(* ---------------- lost eliminations: the too-late backup ----------- *)

let test_no_elim_at_most_once () =
  (* Every kill message is lost: losers run to completion and must be
     refused at synchronisation. *)
  let eng = Engine.create ~trace:true () in
  let policy = { Concurrent.default_policy with elimination = Concurrent.No_elim } in
  let commits = ref 0 in
  let r =
    in_process eng (fun ctx ->
        Concurrent.run ctx ~policy
          (List.init 4 (fun i ->
               Alternative.make (fun cctx ->
                   Engine.delay cctx (1. +. float_of_int i);
                   incr commits;
                   i))))
  in
  Engine.run eng;
  (match r.Concurrent.outcome with
  | Alt_block.Selected { index = 0; value = 0 } -> ()
  | _ -> Alcotest.fail "fastest must win");
  (* All four bodies ran to completion (nobody was killed)... *)
  check Alcotest.int "every loser ran to completion" 4 !commits;
  (* ...but only one synchronised; the rest were told "too late". *)
  let late =
    Trace.count (Engine.trace eng) ~f:(function
      | Trace.Sync_late _ -> true
      | _ -> false)
  in
  let won =
    Trace.count (Engine.trace eng) ~f:(function
      | Trace.Sync_won _ -> true
      | _ -> false)
  in
  check Alcotest.int "one winner" 1 won;
  check Alcotest.int "three refused" 3 late;
  check Alcotest.int "no processes left" 0 (Engine.live_count eng)

let test_no_elim_maximises_waste () =
  let run elimination =
    let eng = Engine.create ~trace:false () in
    let r =
      Concurrent.run_toplevel eng
        ~policy:{ Concurrent.default_policy with elimination }
        [ Alternative.fixed ~cost:1. 0; Alternative.fixed ~cost:10. 1 ]
    in
    r.Concurrent.wasted_cpu
  in
  let sync = run Concurrent.Sync_elim in
  let none = run Concurrent.No_elim in
  check cf "lost kills: loser burns its full 10s" 10. none;
  check Alcotest.bool "kills save most of it" true (sync < 2.)

let test_no_elim_state_stays_consistent () =
  (* Even with zombies running to completion, only the winner's memory is
     absorbed. *)
  let eng = Engine.create ~trace:false () in
  let space = Address_space.create (Engine.frame_store eng) (Engine.model eng) in
  Address_space.set_int space ~addr:0 0;
  let policy = { Concurrent.default_policy with elimination = Concurrent.No_elim } in
  let r =
    Concurrent.run_toplevel eng ~policy ~space
      [
        Alternative.make (fun ctx -> set_int ctx 0 1; Engine.delay ctx 1.; 1);
        Alternative.make (fun ctx -> set_int ctx 0 2; Engine.delay ctx 9.; 2);
      ]
  in
  (match r.Concurrent.outcome with
  | Alt_block.Selected { value = 1; _ } -> ()
  | _ -> Alcotest.fail "fast alternative must win");
  check Alcotest.int "zombie's write never lands" 1
    (Address_space.get_int space ~addr:0)

(* ---------------- chained speculation ---------------- *)

let test_second_order_worlds () =
  (* Two speculative senders message the same receiver: the receiver splits
     into (up to) four worlds; after both senders resolve, exactly one
     world survives with the consistent history. *)
  let eng = Engine.create ~trace:true () in
  let published = ref [] in
  let recv =
    Engine.spawn eng ~name:"recv" (fun ctx ->
        let local = ref [] in
        let rec loop () =
          match Engine.receive_timeout ctx ~timeout:30. () with
          | Some m ->
            local := Payload.get_int m.Message.payload :: !local;
            loop ()
          | None -> ()
        in
        loop ();
        published := List.sort compare !local :: !published)
  in
  let spawn_spec i ~succeeds =
    let pid = (Engine.fresh_pids eng 1).(0) in
    ignore
      (Engine.spawn eng ~pid
         ~predicate:(Predicate.make ~must_complete:[ pid ] ~must_fail:[])
         (fun ctx ->
           Engine.delay ctx (0.1 *. float_of_int (i + 1));
           Engine.send ctx recv (Payload.int i);
           Engine.delay ctx 1.;
           if not succeeds then Engine.abort ctx "speculation failed"))
  in
  spawn_spec 0 ~succeeds:true;
  spawn_spec 1 ~succeeds:false;
  Engine.run eng;
  check Alcotest.bool "one surviving history: exactly [0]" true
    (!published = [ [ 0 ] ]);
  check Alcotest.bool "at least two splits happened" true
    (Trace.count (Engine.trace eng) ~f:(function Trace.Split _ -> true | _ -> false)
     >= 2)

let test_deferred_fate_chain () =
  (* A's completion is deferred on B, whose completion is deferred on C. *)
  let eng = Engine.create ~trace:false () in
  let pids = Array.to_list (Engine.fresh_pids eng 2) in
  let b = List.nth pids 0 and c = List.nth pids 1 in
  let a =
    Engine.spawn eng ~predicate:(Predicate.make ~must_complete:[ b ] ~must_fail:[])
      (fun ctx -> Engine.delay ctx 0.1)
  in
  ignore
    (Engine.spawn eng ~pid:b
       ~predicate:(Predicate.make ~must_complete:[ c ] ~must_fail:[])
       (fun ctx -> Engine.delay ctx 0.2));
  ignore (Engine.spawn eng ~pid:c (fun ctx -> Engine.delay ctx 5.));
  Engine.run eng;
  let reg = Engine.registry eng in
  check Alcotest.bool "whole chain completed" true
    (Fate_registry.fate reg a = Some Predicate.Completed
    && Fate_registry.fate reg b = Some Predicate.Completed
    && Fate_registry.fate reg c = Some Predicate.Completed)

let test_kill_during_consensus () =
  (* A requester killed mid-protocol must not wedge the voters or leak the
     semaphore: a later requester can still acquire. *)
  let eng = Engine.create ~model:Cost_model.hp_9000_350 ~trace:false () in
  let m = Majority.create eng ~nodes:3 ~vote_delay:0.05 () in
  let got = ref false in
  let victim =
    Engine.spawn eng (fun ctx ->
        ignore (Majority.acquire_retry ctx m ~reply_timeout:5. ()))
  in
  ignore
    (Engine.spawn eng ~start_delay:0.01 (fun ctx ->
         Engine.kill (Engine.engine ctx) victim ~reason:"mid-protocol"));
  ignore
    (Engine.spawn eng ~start_delay:1. (fun ctx ->
         got := Majority.acquire_retry ctx m ~reply_timeout:5. () = Majority.Granted;
         Majority.shutdown m));
  Engine.run eng;
  (* The dead requester may already hold grants from quick voters; the
     protocol's guarantee is at-most-one, and the voters stay live. If the
     victim was granted first, the second requester is refused — either
     way no wedge and no double grant. *)
  check Alcotest.bool "second requester got a definite answer" true
    (!got || Majority.owner m <> None)

let test_message_to_self () =
  let eng = Engine.create ~trace:false () in
  let got = ref 0 in
  ignore
    (Engine.spawn eng (fun ctx ->
         Engine.send ctx (Engine.self ctx) (Payload.int 9);
         let m = Engine.receive ctx () in
         got := Payload.get_int m.Message.payload));
  Engine.run eng;
  check Alcotest.int "self-send delivered" 9 !got

let test_guard_exception_is_failure () =
  let eng = Engine.create ~trace:false () in
  let r =
    Concurrent.run_toplevel eng
      [
        Alternative.make ~guard:(fun _ -> failwith "guard crashed") (fun _ -> 0);
        Alternative.fixed ~cost:1. 1;
      ]
  in
  match r.Concurrent.outcome with
  | Alt_block.Selected { value = 1; _ } -> ()
  | _ -> Alcotest.fail "crashing guard must not poison the block"

(* ---------------- parser round trip ---------------- *)

let rec printable = function
  (* Terms whose printed form reparses to the same tree (no operator atoms
     in odd positions). *)
  | Term.Var _ | Term.Int _ -> true
  | Term.Atom a -> a <> "" && a.[0] >= 'a' && a.[0] <= 'z'
  | Term.Compound (f, args) ->
    f <> "" && f.[0] >= 'a' && f.[0] <= 'z' && Array.for_all printable args

let gen_printable_term =
  let open QCheck.Gen in
  sized
    (fix (fun self n ->
         if n <= 0 then
           oneof
             [
               map (fun i -> Term.Var i) (int_range 0 3);
               map (fun i -> Term.Int i) (int_range 0 99);
               oneofl [ Term.Atom "foo"; Term.Atom "bar"; Term.Atom "baz" ];
             ]
         else
           frequency
             [
               (1, map (fun i -> Term.Int i) (int_range 0 99));
               (1, oneofl [ Term.Atom "foo"; Term.Atom "bar" ]);
               ( 3,
                 map2
                   (fun f args -> Term.compound f args)
                   (oneofl [ "f"; "g"; "h" ])
                   (list_size (int_range 1 3) (self (n / 2))) );
               ( 1,
                 map
                   (fun elems -> Term.of_list elems)
                   (list_size (int_range 0 3) (self (n / 2))) );
             ]))

let prop_print_parse_roundtrip =
  QCheck.Test.make ~name:"printing then parsing is the identity (modulo var names)"
    ~count:300
    (QCheck.make ~print:Term.to_string gen_printable_term)
    (fun t ->
      QCheck.assume (printable t);
      let printed = Term.to_string t in
      let reparsed, _ = Parser.query printed in
      (* Variable indices may be renumbered; compare after canonical
         renumbering of both sides. *)
      let canon term =
        let map = Hashtbl.create 8 in
        let next = ref 0 in
        let rec go = function
          | Term.Var v ->
            let v' =
              match Hashtbl.find_opt map v with
              | Some x -> x
              | None ->
                let x = !next in
                incr next;
                Hashtbl.replace map v x;
                x
            in
            Term.Var v'
          | (Term.Atom _ | Term.Int _) as t -> t
          | Term.Compound (f, args) -> Term.Compound (f, Array.map go args)
        in
        go term
      in
      Term.equal (canon t) (canon reparsed))

let () =
  Alcotest.run "edge"
    [
      ( "too-late backup",
        [
          Alcotest.test_case "lost kills: at most once" `Quick test_no_elim_at_most_once;
          Alcotest.test_case "lost kills: waste maximised" `Quick
            test_no_elim_maximises_waste;
          Alcotest.test_case "lost kills: state consistent" `Quick
            test_no_elim_state_stays_consistent;
        ] );
      ( "chained speculation",
        [
          Alcotest.test_case "second-order worlds" `Quick test_second_order_worlds;
          Alcotest.test_case "deferred fate chain" `Quick test_deferred_fate_chain;
          Alcotest.test_case "kill during consensus" `Quick test_kill_during_consensus;
          Alcotest.test_case "message to self" `Quick test_message_to_self;
          Alcotest.test_case "crashing guard" `Quick test_guard_exception_is_failure;
        ] );
      ( "parser",
        [ QCheck_alcotest.to_alcotest prop_print_parse_roundtrip ] );
    ]
