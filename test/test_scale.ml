(* Scale and stress tests: the engine and the block machinery at sizes well
   beyond the unit tests, plus coverage for the remaining small API
   surfaces. *)

let check = Alcotest.check

let in_process ?space eng f =
  let result = ref None in
  let pid =
    Engine.spawn eng ?space ~cloneable:false ~name:"scale-root" (fun ctx ->
        result := Some (f ctx))
  in
  if Option.is_some space then Engine.preserve_space eng pid;
  Engine.run eng;
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "root did not complete"

let test_large_mesh_completes () =
  (* 150 processes, each pinging the next in a ring, three rounds. *)
  let eng = Engine.create ~trace:false () in
  let n = 150 in
  let pids = Engine.fresh_pids eng n in
  let received = ref 0 in
  Array.iteri
    (fun i pid ->
      ignore
        (Engine.spawn eng ~pid (fun ctx ->
             for r = 1 to 3 do
               Engine.send ctx pids.((i + 1) mod n) (Payload.int r);
               match Engine.receive_timeout ctx ~timeout:100. () with
               | Some _ -> incr received
               | None -> ()
             done)))
    pids;
  Engine.run eng;
  check Alcotest.int "every ping answered" (3 * n) !received;
  check Alcotest.int "all processes done" 0 (Engine.live_count eng)

let test_wide_alternative_block () =
  (* 64 alternatives; elapsed is the minimum cost; 63 eliminated. *)
  let eng = Engine.create ~trace:false () in
  let n = 64 in
  let r =
    Concurrent.run_toplevel eng
      (List.init n (fun i ->
           Alternative.fixed ~cost:(1. +. (0.1 *. float_of_int i)) i))
  in
  (match r.Concurrent.outcome with
  | Alt_block.Selected { index = 0; value = 0 } -> ()
  | _ -> Alcotest.fail "cheapest of 64 must win");
  check (Alcotest.float 1e-9) "min cost" 1. r.Concurrent.elapsed;
  check Alcotest.int "spawned all" n r.Concurrent.spawned

let test_deep_sequential_blocks () =
  (* 100 alternative blocks executed back to back in one process. *)
  let eng = Engine.create ~trace:false () in
  let total =
    in_process eng (fun ctx ->
        let acc = ref 0 in
        for i = 1 to 100 do
          match
            Concurrent.run ctx
              [ Alternative.fixed ~cost:0.2 i; Alternative.fixed ~cost:0.1 (2 * i) ]
          with
          | { Concurrent.outcome = Alt_block.Selected { value; _ }; _ } ->
            acc := !acc + value
          | _ -> Alcotest.fail "block failed"
        done;
        !acc)
  in
  (* The 0.1-cost alternative (value 2i) always wins. *)
  check Alcotest.int "sum of winners" (2 * 5050) total;
  check (Alcotest.float 1e-6) "100 x 0.1s" 10. (Engine.now eng)

let test_many_worlds_scale () =
  (* Ten speculative senders split one receiver into many worlds; exactly
     one history survives once all resolve. *)
  let eng = Engine.create ~trace:false () in
  let published = ref [] in
  let recv =
    Engine.spawn eng ~name:"recv" (fun ctx ->
        let local = ref 0 in
        let rec loop () =
          match Engine.receive_timeout ctx ~timeout:30. () with
          | Some m ->
            local := !local + Payload.get_int m.Message.payload;
            loop ()
          | None -> ()
        in
        loop ();
        published := !local :: !published)
  in
  let n = 10 in
  let winner = 6 in
  for i = 0 to n - 1 do
    let pid = (Engine.fresh_pids eng 1).(0) in
    ignore
      (Engine.spawn eng ~pid
         ~predicate:(Predicate.make ~must_complete:[ pid ] ~must_fail:[])
         (fun ctx ->
           Engine.delay ctx (0.1 *. float_of_int (i + 1));
           Engine.send ctx recv (Payload.int (1 lsl i));
           Engine.delay ctx 1.;
           if i <> winner then Engine.abort ctx "loses"))
  done;
  Engine.run eng;
  check Alcotest.(list int) "single surviving history: the winner's bit"
    [ 1 lsl winner ] !published

let test_deep_prolog_recursion () =
  let db = Database.with_prelude () in
  ignore
    (Database.add_program db
       "count(0, []). count(N, [N|T]) :- N > 0, M is N - 1, count(M, T).");
  match Solve.query db "count(400, L), length(L, Len)" with
  | Ok (sol :: _) ->
    check Alcotest.bool "400-deep recursion" true
      (List.assoc_opt "Len" sol = Some (Term.Int 400))
  | _ -> Alcotest.fail "deep recursion failed"

(* ---------------- residual API coverage ---------------- *)

let test_checkpoint_empty_space () =
  let model = Cost_model.uniform ~page_size:256 () in
  let sp = Address_space.create (Frame_store.create ~page_size:256) model in
  let image = Checkpoint.capture sp in
  check Alcotest.int "no pages" 0 (Checkpoint.mapped_pages image);
  let sp' =
    Checkpoint.restore (Frame_store.create ~page_size:256) model
      (Checkpoint.of_bytes (Checkpoint.to_bytes image))
  in
  check Alcotest.int "restored empty" 0 (Address_space.mapped_pages sp')

let test_schemes_distributions () =
  let rng = Rng.create ~seed:5 in
  let u =
    Schemes.generate ~rng ~inputs:100 ~alternatives:2 ~dist:(`Uniform (2., 4.))
      ~description:"u"
  in
  Array.iter
    (Array.iter (fun v ->
         if v < 2. || v >= 4. then Alcotest.fail "uniform out of range"))
    u.Schemes.times;
  let e =
    Schemes.generate ~rng ~inputs:100 ~alternatives:2 ~dist:(`Exponential 3.)
      ~description:"e"
  in
  Array.iter
    (Array.iter (fun v -> if v < 0. then Alcotest.fail "exponential negative"))
    e.Schemes.times

let () =
  Alcotest.run "scale"
    [
      ( "scale",
        [
          Alcotest.test_case "150-process ring" `Quick test_large_mesh_completes;
          Alcotest.test_case "64-way block" `Quick test_wide_alternative_block;
          Alcotest.test_case "100 sequential blocks" `Quick test_deep_sequential_blocks;
          Alcotest.test_case "ten speculative senders" `Quick test_many_worlds_scale;
          Alcotest.test_case "deep prolog recursion" `Quick test_deep_prolog_recursion;
        ] );
      ( "residual coverage",
        [
          Alcotest.test_case "empty checkpoint" `Quick test_checkpoint_empty_space;
          Alcotest.test_case "scheme distributions" `Quick test_schemes_distributions;
        ] );
    ]
