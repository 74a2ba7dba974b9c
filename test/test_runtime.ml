(* Tests for the simulation runtime: event queue, virtual time, processor
   sharing, IPC with predicate matching, multiple-worlds splitting, process
   elimination, fates. *)

let check = Alcotest.check
let cf = Alcotest.float 1e-9

(* ---------------- Event_queue ---------------- *)

(* The engine's pop: [min_time] for the time, then [pop_min]. *)
let eq_pop q =
  if Event_queue.is_empty q then None
  else
    let time = Event_queue.min_time q in
    Some (time, Event_queue.pop_min q)

let test_eq_order () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:3. "c";
  Event_queue.push q ~time:1. "a";
  Event_queue.push q ~time:2. "b";
  check Alcotest.int "size" 3 (Event_queue.size q);
  check Alcotest.(option (pair (float 0.) string)) "a first" (Some (1., "a")) (eq_pop q);
  check Alcotest.(option (pair (float 0.) string)) "b second" (Some (2., "b")) (eq_pop q);
  check Alcotest.(option (pair (float 0.) string)) "c third" (Some (3., "c")) (eq_pop q);
  check Alcotest.bool "empty" true (eq_pop q = None)

(* Regression for the pop leak: the heap array must not keep popped
   values reachable. Weak pointers observe exactly what the GC can still
   see — before the fix, pop left a live reference to every popped value
   in the vacated slot, so the weak slots survived a full major GC while
   the queue (and its capacity) stayed alive. *)
let test_eq_pop_clears_slots () =
  let q = Event_queue.create () in
  let weak = Weak.create 8 and messages = Weak.create 8 in
  for i = 0 to 7 do
    let v = ref (i * 11) in
    Weak.set weak i (Some v);
    Event_queue.push q ~time:(float_of_int i) v;
    let m = { Mailbox.no_message with Message.seq = i } in
    Weak.set messages i (Some m);
    Event_queue.push_message q ~time:(float_of_int i) m
  done;
  for _ = 0 to 7 do
    ignore (Event_queue.pop_min q);
    ignore (Event_queue.pop_message q)
  done;
  (* Keep the queue itself (and therefore its heap array) alive. *)
  Event_queue.push q ~time:99. (ref 0);
  Gc.full_major ();
  for i = 0 to 7 do
    if Weak.check weak i then
      Alcotest.failf "popped value %d is still referenced by the queue" i;
    if Weak.check messages i then
      Alcotest.failf "popped message %d is still referenced by the queue" i
  done;
  check Alcotest.int "queue still usable" 1 (Event_queue.size q)

let test_eq_clear_drops_references () =
  let q = Event_queue.create () in
  let weak = Weak.create 4 in
  for i = 0 to 3 do
    let v = ref i in
    Weak.set weak i (Some v);
    Event_queue.push q ~time:(float_of_int i) v
  done;
  Event_queue.reset q;
  Gc.full_major ();
  for i = 0 to 3 do
    if Weak.check weak i then
      Alcotest.failf "cleared value %d is still referenced by the queue" i
  done;
  (* The queue works after a reset. *)
  Event_queue.push q ~time:1. (ref 42);
  check Alcotest.int "size after reset+push" 1 (Event_queue.size q)

let test_eq_fifo_ties () =
  let q = Event_queue.create () in
  for i = 0 to 9 do
    Event_queue.push q ~time:1. i
  done;
  for i = 0 to 9 do
    match eq_pop q with
    | Some (_, v) -> check Alcotest.int "insertion order on ties" i v
    | None -> Alcotest.fail "queue exhausted early"
  done

let test_eq_peek_clear () =
  let q = Event_queue.create () in
  Alcotest.check_raises "min_time of empty"
    (Invalid_argument "Event_queue.min_time: empty queue")
    (fun () -> ignore (Event_queue.min_time q));
  Event_queue.push q ~time:5. ();
  check (Alcotest.float 0.) "min_time" 5. (Event_queue.min_time q);
  Event_queue.reset q;
  check Alcotest.bool "reset" true (Event_queue.is_empty q)

let test_eq_nan () =
  let q = Event_queue.create () in
  Alcotest.check_raises "NaN rejected" (Invalid_argument "Event_queue.push: NaN time")
    (fun () -> Event_queue.push q ~time:Float.nan ());
  Alcotest.check_raises "NaN slot rejected"
    (Invalid_argument "Event_queue.set_slot: NaN time")
    (fun () -> Event_queue.set_slot q ~time:Float.nan ());
  Alcotest.check_raises "NaN handle rejected"
    (Invalid_argument "Event_queue.set_handle: NaN time")
    (fun () -> Event_queue.set_handle q 0 ~time:Float.nan ());
  Alcotest.check_raises "NaN message rejected"
    (Invalid_argument "Event_queue.push_message: NaN time")
    (fun () -> Event_queue.push_message q ~time:Float.nan Mailbox.no_message)

let prop_eq_sorted =
  QCheck.Test.make ~name:"pop order is sorted by time" ~count:300
    QCheck.(list (float_range 0. 1000.))
    (fun times ->
      let q = Event_queue.create () in
      List.iter (fun t -> Event_queue.push q ~time:t ()) times;
      let rec drain last =
        match eq_pop q with
        | None -> true
        | Some (t, ()) -> t >= last && drain t
      in
      drain neg_infinity)

(* A model test: random push / push_message / set_slot / clear_slot /
   set_handle / clear_handle / min_time+pop / peek / reset sequences, times
   drawn from a few values so ties (slot and handles against the heap too)
   are common, against a list kept sorted by (time, stamp). Each pushed,
   slotted or handled value is its stamp, and each message's [seq]. The
   reference treats the slot and each handle the way a plain heap would:
   setting one cancels its previous entry and inserts a new one, clearing
   it cancels the entry, and pops skip cancelled entries. Every pop must
   also report the handle of the entry it removed and the kind of the
   earliest entry, and the pop of the other kind must refuse it. *)
type eq_op =
  | Push of float
  | Push_message of float
  | Set_slot of float
  | Clear_slot
  | Set_handle of int * float
  | Clear_handle of int
  | Pop_min
  | Peek
  | Reset

let eq_handles = 8

(* A message entry's value: its [seq] is set to the entry's stamp. *)
let eq_message =
  {
    Message.sender = Pid.of_int 0;
    dest = Pid.of_int 1;
    predicate = Predicate.empty;
    payload = Payload.Unit;
    tag = "";
    seq = 0;
    size = 0;
  }

(* Pushes outnumber pops and clears are rare, so the heap grows deep
   enough for a cleared handle's hole to need filling from below and from
   above. *)
let prop_eq_model =
  let time = QCheck.Gen.map (fun i -> float_of_int i /. 2.) (QCheck.Gen.int_range 0 8) in
  let gen =
    QCheck.Gen.(
      list_size (int_range 0 200)
        (frequency
           [
             (12, map (fun t -> Push t) time);
             (8, map (fun t -> Push_message t) time);
             (4, map (fun t -> Set_slot t) time);
             (2, return Clear_slot);
             (8, map2 (fun h t -> Set_handle (h, t)) (int_range 0 (eq_handles - 1)) time);
             (6, map (fun h -> Clear_handle h) (int_range 0 eq_handles));
             (8, return Pop_min);
             (2, return Peek);
             (1, return Reset);
           ]))
  in
  let print ops =
    String.concat " "
      (List.map
         (function
           | Push t -> Printf.sprintf "push(%g)" t
           | Push_message t -> Printf.sprintf "push_message(%g)" t
           | Set_slot t -> Printf.sprintf "set_slot(%g)" t
           | Clear_slot -> "clear_slot"
           | Set_handle (h, t) -> Printf.sprintf "set_handle(%d,%g)" h t
           | Clear_handle h -> Printf.sprintf "clear_handle(%d)" h
           | Pop_min -> "pop_min"
           | Peek -> "peek"
           | Reset -> "reset")
         ops)
  in
  QCheck.Test.make ~name:"model: a list sorted by (time, stamp)" ~count:1000
    (QCheck.make ~print gen) (fun ops ->
      let q = Event_queue.create () in
      (* Entries (time, stamp, live, handle), sorted by (time, stamp), with
         handle -1 for a push or the slot and -2 for a message, whose
         [seq] is its stamp; [slot] is the live flag of the latest slot
         entry, [handles.(h)] that of handle [h]'s latest. *)
      let model = ref [] and stamp = ref 0 and slot = ref (ref false) in
      let handles = Array.init (eq_handles + 1) (fun _ -> ref false) in
      let rec insert ((t, _, _, _) as e) = function
        | ((t', _, _, _) as e') :: rest when t' <= t -> e' :: insert e rest
        | l -> e :: l
      in
      let add ?(handle = -1) time =
        let live = ref true in
        model := insert (time, !stamp, live, handle) !model;
        incr stamp;
        live
      in
      (* Drop the cancelled entries at the front. *)
      let rec front () =
        match !model with
        | (_, _, live, _) :: rest when not !live ->
          model := rest;
          front ()
        | l -> l
      in
      let live_count () =
        List.length (List.filter (fun (_, _, live, _) -> !live) !model)
      in
      List.for_all
        (fun op ->
          let ok =
            match op with
            | Push time ->
              Event_queue.push q ~time !stamp;
              ignore (add time);
              true
            | Push_message time ->
              Event_queue.push_message q ~time { eq_message with Message.seq = !stamp };
              ignore (add ~handle:(-2) time);
              true
            | Set_slot time ->
              Event_queue.set_slot q ~time !stamp;
              !slot := false;
              slot := add time;
              true
            | Clear_slot ->
              Event_queue.clear_slot q;
              !slot := false;
              true
            | Set_handle (h, time) ->
              Event_queue.set_handle q h ~time !stamp;
              handles.(h) := false;
              handles.(h) <- add ~handle:h time;
              true
            | Clear_handle h ->
              Event_queue.clear_handle q h;
              handles.(h) := false;
              true
            | Pop_min -> (
              match front () with
              | [] -> (
                match Event_queue.pop_min q with
                | _ -> false
                | exception Invalid_argument _ -> not (Event_queue.message_first q))
              | (t, v, _, -2) :: rest -> (
                model := rest;
                let t' = Event_queue.min_time q in
                Event_queue.message_first q
                && (match Event_queue.pop_min q with
                   | _ -> false
                   | exception Invalid_argument _ -> true)
                &&
                let m = Event_queue.pop_message q in
                t' = t && m.Message.seq = v && Event_queue.popped_handle q = -1)
              | (t, v, _, h) :: rest ->
                model := rest;
                let t' = Event_queue.min_time q in
                (not (Event_queue.message_first q))
                && (match Event_queue.pop_message q with
                   | _ -> false
                   | exception Invalid_argument _ -> true)
                &&
                let v' = Event_queue.pop_min q in
                t' = t && v' = v && Event_queue.popped_handle q = h)
            | Peek -> (
              match front () with
              | [] -> Event_queue.is_empty q && not (Event_queue.message_first q)
              | (t, _, _, h) :: _ ->
                Event_queue.min_time q = t && Event_queue.message_first q = (h = -2))
            | Reset ->
              Event_queue.reset q;
              model := [];
              true
          in
          ok
          && Event_queue.size q = live_count ()
          && Event_queue.is_empty q = (live_count () = 0))
        ops)

(* ---------------- FIFO clocks ---------------- *)

(* A model test of the engine's FIFO-clock table against an association
   list: random sends on (sender, dest) pairs, forged destinations -1,
   [max_int] and [min_int] among them, and a sender [max_int]; a delay
   that holds a pair's clock back further, as [F_delay] does; advances of
   the time; and resets. Every send reads its pair's clock and schedules
   at the later of it and the time plus a latency, as the engine's send
   does. Without reclaiming, the table must return exactly the clock the
   list holds; with it, it may instead read a clock at or before the time
   as absent, which schedules the send at the same time. Eight senders
   by ten destinations outgrow the first capacity, so the table grows,
   and with reclaiming it also deletes and shifts pairs back. *)
type clock_op =
  | Send of int * int
  | Delay of int * int * float
  | Advance of float
  | Clock_reset

let clock_senders = [| 0; 1; 2; 3; 7; 40; 1000; max_int |]
let clock_dests = [| -1; 0; 1; 2; 3; 5; 40; 999; max_int; min_int |]

let prop_clock_model ~reclaim =
  let gen =
    QCheck.Gen.(
      list_size (int_range 0 400)
        (frequency
           [
             (12, map2 (fun s d -> Send (s, d)) (oneofa clock_senders) (oneofa clock_dests));
             ( 3,
               map3
                 (fun s d x -> Delay (s, d, float_of_int x))
                 (oneofa clock_senders) (oneofa clock_dests) (int_range 0 4) );
             (3, map (fun x -> Advance (float_of_int x /. 2.)) (int_range 0 6));
             (1, return Clock_reset);
           ]))
  in
  let print ops =
    String.concat " "
      (List.map
         (function
           | Send (s, d) -> Printf.sprintf "send(%d,%d)" s d
           | Delay (s, d, x) -> Printf.sprintf "delay(%d,%d,%g)" s d x
           | Advance x -> Printf.sprintf "advance(%g)" x
           | Clock_reset -> "reset")
         ops)
  in
  QCheck.Test.make
    ~name:
      (if reclaim then "model: FIFO clocks over an association list, reclaiming"
       else "model: FIFO clocks over an association list")
    ~count:500 (QCheck.make ~print gen) (fun ops ->
      let clock = Float.Array.make 2 0. in
      let t = Fifo_clock.create ~clock ~reclaim in
      let model = ref [] in
      let latency = 1. in
      (* One send on the pair, then [extra] more delay when a delay holds
         it back: whether the table read the list's clock. *)
      let send sender dest extra =
        let now = Float.Array.get clock Cpu.now_slot in
        let i = Fifo_clock.slot t ~sender ~dest in
        let got = Fifo_clock.get t i in
        let want = Option.value (List.assoc_opt (sender, dest) !model) ~default:neg_infinity in
        let at = Float.max want (now +. latency) in
        Fifo_clock.set t i at;
        let at =
          match extra with
          | None -> at
          | Some x ->
            let at = at +. x in
            Fifo_clock.set t (Fifo_clock.slot t ~sender ~dest) at;
            at
        in
        model := ((sender, dest), at) :: List.remove_assoc (sender, dest) !model;
        got = want || (reclaim && got = neg_infinity && want <= now)
      in
      List.for_all
        (function
          | Send (s, d) -> send s d None
          | Delay (s, d, x) -> send s d (Some x)
          | Advance x ->
            Float.Array.set clock Cpu.now_slot (Float.Array.get clock Cpu.now_slot +. x);
            true
          | Clock_reset ->
            Fifo_clock.reset t;
            model := [];
            true)
        ops)

let test_clock_negative_sender () =
  let t = Fifo_clock.create ~clock:(Float.Array.make 2 0.) ~reclaim:false in
  Alcotest.check_raises "a negative sender is refused"
    (Invalid_argument "Fifo_clock.slot: negative sender") (fun () ->
      ignore (Fifo_clock.slot t ~sender:(-1) ~dest:0))

(* ---------------- Engine basics ---------------- *)

let mk ?cores ?model ?(trace = false) () = Engine.create ?cores ?model ~trace ()

let test_delay_advances_clock () =
  let eng = mk () in
  let finish = ref 0. in
  ignore
    (Engine.spawn eng (fun ctx ->
         Engine.delay ctx 1.5;
         Engine.delay ctx 0.5;
         finish := Engine.now_v ctx));
  Engine.run eng;
  check cf "2s elapsed" 2.0 !finish;
  check cf "engine clock" 2.0 (Engine.now eng)

let test_zero_delay () =
  let eng = mk () in
  let ran = ref false in
  ignore
    (Engine.spawn eng (fun ctx ->
         Engine.delay ctx 0.;
         ran := true));
  Engine.run eng;
  check Alcotest.bool "zero delay completes" true !ran;
  check cf "no time passed" 0. (Engine.now eng)

let test_start_delay () =
  let eng = mk () in
  let t = ref 0. in
  ignore (Engine.spawn eng ~start_delay:3. (fun ctx -> t := Engine.now_v ctx));
  Engine.run eng;
  check cf "started late" 3. !t

let test_exit_statuses () =
  let eng = mk () in
  let ok = Engine.spawn eng (fun _ -> ()) in
  let failed = Engine.spawn eng (fun ctx -> Engine.abort ctx "nope") in
  let crashed = Engine.spawn eng (fun _ -> failwith "boom") in
  Engine.run eng;
  check Alcotest.bool "ok" true (Engine.status eng ok = Some Engine.Exited_ok);
  check Alcotest.bool "failed" true
    (Engine.status eng failed = Some (Engine.Exited_failed "nope"));
  (match Engine.status eng crashed with
  | Some (Engine.Crashed _) -> ()
  | _ -> Alcotest.fail "expected crash");
  check Alcotest.bool "none alive" true (Engine.live_count eng = 0)

let test_on_exit_watcher () =
  let eng = mk () in
  let seen = ref None in
  let pid = Engine.spawn eng (fun ctx -> Engine.delay ctx 1.) in
  Engine.on_exit eng pid (fun st -> seen := Some st);
  Engine.run eng;
  check Alcotest.bool "watcher fired" true (!seen = Some Engine.Exited_ok);
  (* Late registration fires immediately. *)
  let late = ref false in
  Engine.on_exit eng pid (fun _ -> late := true);
  check Alcotest.bool "late watcher immediate" true !late

let test_fresh_pids_and_spawn_pid () =
  let eng = mk () in
  let pids = Array.to_list (Engine.fresh_pids eng 3) in
  check Alcotest.int "three pids" 3 (List.length pids);
  let p0 = List.hd pids in
  ignore (Engine.spawn eng ~pid:p0 (fun _ -> ()));
  Alcotest.check_raises "reuse rejected"
    (Invalid_argument "Engine.spawn: pid already in use") (fun () ->
      ignore (Engine.spawn eng ~pid:p0 (fun _ -> ())))

(* A pid the engine never issued is refused: accepted, it would collide
   with the allocator's own pid later and break an unrelated spawn. *)
let test_spawn_unissued_pid () =
  let eng = mk () in
  List.iter
    (fun n ->
      Alcotest.check_raises
        (Printf.sprintf "pid %d rejected" n)
        (Invalid_argument "Engine.spawn: pid not issued by this engine")
        (fun () -> ignore (Engine.spawn eng ~pid:(Pid.of_int n) (fun _ -> ()))))
    [ 2; -1; 1_000_000 ];
  let plain = List.init 3 (fun _ -> Pid.to_int (Engine.spawn eng (fun _ -> ()))) in
  check Alcotest.(list int) "allocator pids unaffected" [ 0; 1; 2 ] plain

let test_run_for () =
  let eng = mk () in
  let steps = ref 0 in
  ignore
    (Engine.spawn eng (fun ctx ->
         for _ = 1 to 10 do
           Engine.delay ctx 1.;
           incr steps
         done));
  Engine.run_for eng 3.5;
  check Alcotest.int "stopped mid-run" 3 !steps;
  Engine.run eng;
  check Alcotest.int "resumable" 10 !steps

(* ---------------- CPU model ---------------- *)

let run_workers cores works =
  let eng = mk ~cores () in
  let finishes = Array.make (List.length works) 0. in
  List.iteri
    (fun i w ->
      ignore
        (Engine.spawn eng (fun ctx ->
             Engine.delay ctx w;
             finishes.(i) <- Engine.now_v ctx)))
    works;
  Engine.run eng;
  (eng, finishes)

let test_cpu_infinite () =
  let _, f = run_workers Engine.Infinite [ 1.; 1.; 1. ] in
  Array.iter (fun t -> check cf "all at 1s" 1. t) f

let test_cpu_single_core_sharing () =
  let _, f = run_workers (Engine.Cores 1) [ 1.; 1.; 1. ] in
  Array.iter (fun t -> check cf "PS: all at 3s" 3. t) f

let test_cpu_two_cores () =
  let _, f = run_workers (Engine.Cores 2) [ 1.; 1.; 1. ] in
  Array.iter (fun t -> check cf "3 tasks on 2 cores: 1.5s" 1.5 t) f

let test_cpu_unequal_work () =
  (* 1 core: works 1 and 2. Both run at rate 1/2 until t=2 (short done),
     then the long one runs alone: 2 + 1 = 3. *)
  let _, f = run_workers (Engine.Cores 1) [ 1.; 2. ] in
  check cf "short at 2" 2. f.(0);
  check cf "long at 3" 3. f.(1)

let test_cpu_time_accounting () =
  let eng, _ = run_workers (Engine.Cores 1) [ 1.; 1. ] in
  check cf "total cpu = total work" 2. (Engine.total_cpu_time eng)

let test_cpu_excess_cores () =
  let _, f = run_workers (Engine.Cores 8) [ 1.; 1. ] in
  Array.iter (fun t -> check cf "no contention" 1. t) f

(* Bit-exact pin of the processor-sharing scheduler. Serving runs on
   [Infinite] cores, so no digest covers finite ones: this table records
   every completion time (%h) and every pid's [cpu_time_of] under three
   core counts, through overlapping delays, a pid delaying again after
   its first slice, a kill in the middle of a slice, and a sender whose
   two same-instant sends straddle that kill. A reschedule pushes one
   tick event even when the tick time is unchanged; skipping it would let
   the second send join the first's delivery batch and move
   [stats_events_processed]. *)
let cpu_schedule_table cores =
  let eng = mk ~cores () in
  let log = Buffer.create 256 in
  let note fmt = Printf.bprintf log fmt in
  let worker name ?(start_delay = 0.) works =
    Engine.spawn eng ~start_delay (fun ctx ->
        List.iter
          (fun w ->
            Engine.delay ctx w;
            note "%s %h\n" name (Engine.now_v ctx))
          works)
  in
  let a = worker "a" [ 1.0; 0.3 ] in
  let b = worker "b" ~start_delay:0.25 [ 0.7 ] in
  let victim = worker "victim" [ 2.0 ] in
  let c = worker "c" [ 0.1; 0.1; 0.1; 1. /. 3. ] in
  let d = worker "d" ~start_delay:0.5 [ 0.45 ] in
  let recv =
    Engine.spawn eng (fun ctx ->
        for _ = 1 to 2 do
          let m = Engine.receive ctx () in
          note "recv %d %h\n" (Payload.get_int m.Message.payload)
            (Engine.now_v ctx)
        done)
  in
  let sender =
    Engine.spawn eng ~start_delay:0.6 (fun ctx ->
        Engine.send ctx recv (Payload.int 1);
        Engine.kill eng victim ~reason:"mid-slice";
        Engine.send ctx recv (Payload.int 2))
  in
  Engine.run eng;
  List.iter
    (fun (name, pid) -> note "cpu %s %h\n" name (Engine.cpu_time_of eng pid))
    [ ("a", a); ("b", b); ("victim", victim); ("c", c); ("d", d);
      ("recv", recv); ("sender", sender) ];
  note "total %h now %h events %d\n" (Engine.total_cpu_time eng)
    (Engine.now eng) (Engine.stats_events_processed eng);
  Buffer.contents log

let test_cpu_schedule_pinned () =
  List.iter
    (fun (label, cores, expected) ->
      check Alcotest.string label expected (cpu_schedule_table cores))
    [
      ( "cores 1",
        Engine.Cores 1,
        "c 0x1.4444444444445p-2\n" ^
        "recv 1 0x1.3333333333333p-1\n" ^
        "recv 2 0x1.3333333333333p-1\n" ^
        "c 0x1.792c5f92c5f93p-1\n" ^
        "c 0x1.22fc962fc963p+0\n" ^
        "d 0x1.28f5c28f5c28fp+1\n" ^
        "c 0x1.375c28f5c28f6p+1\n" ^
        "b 0x1.5dc28f5c28f5cp+1\n" ^
        "a 0x1.797e4b17e4b18p+1\n" ^
        "a 0x1.9fe4b17e4b17ep+1\n" ^
        "cpu a 0x1.4ccccccccccccp+0\n" ^
        "cpu b 0x1.6666666666666p-1\n" ^
        "cpu victim 0x1.53a06d3a06d39p-3\n" ^
        "cpu c 0x1.4444444444444p-1\n" ^
        "cpu d 0x1.cccccccccccccp-2\n" ^
        "cpu recv 0x0p+0\n" ^
        "cpu sender 0x0p+0\n" ^
        "total 0x1.9fe4b17e4b17ep+1 now 0x1.9fe4b17e4b17ep+1 events 17\n" );
      ( "cores 2",
        Engine.Cores 2,
        "c 0x1.3333333333334p-3\n" ^
        "c 0x1.4444444444445p-2\n" ^
        "c 0x1.0aaaaaaaaaaabp-1\n" ^
        "recv 1 0x1.3333333333333p-1\n" ^
        "recv 2 0x1.3333333333333p-1\n" ^
        "c 0x1.340da740da741p+0\n" ^
        "d 0x1.5da740da740dbp+0\n" ^
        "b 0x1.7da740da740dbp+0\n" ^
        "a 0x1.9fc962fc962fdp+0\n" ^
        "a 0x1.ec962fc962fcap+0\n" ^
        "cpu a 0x1.4cccccccccccdp+0\n" ^
        "cpu b 0x1.6666666666667p-1\n" ^
        "cpu victim 0x1.53a06d3a06d39p-2\n" ^
        "cpu c 0x1.4444444444444p-1\n" ^
        "cpu d 0x1.ccccccccccccep-2\n" ^
        "cpu recv 0x0p+0\n" ^
        "cpu sender 0x0p+0\n" ^
        "total 0x1.b51eb851eb852p+1 now 0x1.ec962fc962fcap+0 events 17\n" );
      ( "infinite",
        Engine.Infinite,
        "c 0x1.999999999999ap-4\n" ^
        "c 0x1.999999999999ap-3\n" ^
        "c 0x1.3333333333334p-2\n" ^
        "recv 1 0x1.3333333333333p-1\n" ^
        "recv 2 0x1.3333333333333p-1\n" ^
        "c 0x1.4444444444444p-1\n" ^
        "b 0x1.e666666666666p-1\n" ^
        "d 0x1.e666666666666p-1\n" ^
        "a 0x1p+0\n" ^
        "a 0x1.4cccccccccccdp+0\n" ^
        "cpu a 0x1.4cccccccccccdp+0\n" ^
        "cpu b 0x1.6666666666666p-1\n" ^
        "cpu victim 0x1.3333333333333p-1\n" ^
        "cpu c 0x1.4444444444444p-1\n" ^
        "cpu d 0x1.cccccccccccccp-2\n" ^
        "cpu recv 0x0p+0\n" ^
        "cpu sender 0x0p+0\n" ^
        "total 0x1.d777777777778p+1 now 0x1.4cccccccccccdp+0 events 16\n" );
    ]

let test_cores_rejected () =
  List.iter
    (fun c ->
      Alcotest.check_raises
        (Printf.sprintf "Cores %d" c)
        (Invalid_argument "Engine.create: cores must be at least 1")
        (fun () -> ignore (Engine.create ~cores:(Engine.Cores c) ())))
    [ 0; -1 ]

(* A slice a tick has collected but not yet resumed must not resume a
   process killed in between. [a] and [b] finish their 1 s delays on the
   same tick, and [a] (the lower pid, so resumed first) kills [b]. [b]
   catches [Process_killed] and delays 5 s, parking again before the tick
   reaches its old slice: that slice must leave the new park alone. *)
let stale_slice_table cores =
  let eng = mk ~cores () in
  let log = Buffer.create 64 in
  (match Array.to_list (Engine.fresh_pids eng 2) with
  | [ a; b ] ->
    ignore
      (Engine.spawn eng ~pid:a (fun ctx ->
           Engine.delay ctx 1.0;
           Engine.kill eng b ~reason:"stale"));
    ignore
      (Engine.spawn eng ~pid:b (fun ctx ->
           (try Engine.delay ctx 1.0
            with Engine.Process_killed _ -> Engine.delay ctx 5.0);
           Printf.bprintf log "b %h\n" (Engine.now_v ctx)))
  | _ -> assert false);
  Engine.run eng;
  Printf.bprintf log "events %d\n" (Engine.stats_events_processed eng);
  Buffer.contents log

let test_cpu_stale_slice () =
  check Alcotest.string "infinite" "b 0x1.8p+2\nevents 4\n"
    (stale_slice_table Engine.Infinite);
  check Alcotest.string "cores 1" "b 0x1.cp+2\nevents 4\n"
    (stale_slice_table (Engine.Cores 1))

(* Model: the engine's processor sharing against a plain-list reference.
   A generated program has up to 6 processes. Each starts after a delay,
   runs a list of delays and, after some of them, kills another process
   directly or through [Engine.after]; some victims catch
   [Process_killed] and delay once more. More kills come from
   [Engine.after] at set-up. The reference runs the same program over a
   list of (pid, remaining) tasks, with the CPU's formulas applied at the
   same points, and its own (time, stamp) event order: every push and
   every tick reschedule takes the next stamp, as [Event_queue] does. *)
type cpu_kill = Direct of int | After of float * int

type cpu_proc = {
  start : float;
  steps : (float * cpu_kill option) list;
  catch : float option;
}

type cpu_prog = { procs : cpu_proc array; kills : (float * int) list }

let cpu_prog_to_string p =
  let kill = function
    | Direct v -> Printf.sprintf " kill %d" v
    | After (x, v) -> Printf.sprintf " after %h kill %d" x v
  in
  let proc i pr =
    Printf.sprintf "p%d start %h [%s]%s" i pr.start
      (String.concat "; "
         (List.map
            (fun (d, k) -> Printf.sprintf "%h%s" d (Option.fold ~none:"" ~some:kill k))
            pr.steps))
      (Option.fold ~none:"" ~some:(Printf.sprintf " catch %h") pr.catch)
  in
  String.concat "\n"
    (List.mapi proc (Array.to_list p.procs)
    @ List.map (fun (x, v) -> Printf.sprintf "after %h kill %d" x v) p.kills)

let cpu_prog_gen =
  let open QCheck.Gen in
  (* Zero, equal and tiny delays, so that completions coincide and land
     on either side of the tick's 1e-12 threshold. *)
  let dur =
    frequency
      [
        ( 6,
          oneofl [ 0.; 0.25; 0.5; 1.0; 1e-13; 1e-12; 3e-12; 0.1; 1. /. 3.; 0.7 ] );
        (1, float_range 0. 2.);
      ]
  in
  int_range 1 6 >>= fun n ->
  let victim self = map (fun v -> if v >= self then v + 1 else v) (int_bound (n - 2)) in
  let step self =
    pair dur
      (if n = 1 then return None
       else
         frequency
           [
             (6, return None);
             (2, map (fun v -> Some (Direct v)) (victim self));
             ( 1,
               map2
                 (fun x v -> Some (After (x, v)))
                 (oneofl [ 0.; 0.25; 0.5 ])
                 (victim self) );
           ])
  in
  let proc self =
    map3
      (fun start steps catch -> { start; steps; catch })
      (oneofl [ 0.; 0.; 0.25; 0.5; 1e-13; 1.0 ])
      (list_size (int_range 0 4) (step self))
      (opt dur)
  in
  map2
    (fun procs kills -> { procs = Array.of_list procs; kills })
    (flatten_l (List.init n proc))
    (list_size (int_range 0 3)
       (pair (oneofl [ 0.; 0.25; 0.5; 0.75; 1.0; 1.5 ]) (int_bound (n - 1))))

(* What a run shows: each completed delay's time, then each process's
   exit, CPU time, the total, the clock and the event count. *)
let cpu_prog_engine cores prog =
  let eng = Engine.create ~cores ~trace:false () in
  let n = Array.length prog.procs in
  let pids = Engine.fresh_pids eng n in
  let log = Buffer.create 256 in
  let kill = function
    | Direct v -> Engine.kill eng pids.(v) ~reason:"direct"
    | After (x, v) ->
      Engine.after eng ~delay:x (fun () -> Engine.kill eng pids.(v) ~reason:"after")
  in
  Array.iteri
    (fun i pr ->
      ignore
        (Engine.spawn eng ~pid:pids.(i) ~start_delay:pr.start (fun ctx ->
             try
               List.iteri
                 (fun j (d, k) ->
                   Engine.delay ctx d;
                   Printf.bprintf log "%d.%d %h\n" i j (Engine.now eng);
                   Option.iter kill k)
                 pr.steps
             with Engine.Process_killed _ when Option.is_some pr.catch ->
               Engine.delay ctx (Option.get pr.catch);
               Printf.bprintf log "%d caught %h\n" i (Engine.now eng))))
    prog.procs;
  List.iter (fun (x, v) -> kill (After (x, v))) prog.kills;
  Engine.run eng;
  Array.iteri
    (fun i pid ->
      Printf.bprintf log "%d %s cpu %h\n" i
        (match Engine.status eng pid with
        | Some Engine.Exited_ok -> "ok"
        | Some (Engine.Eliminated _) -> "eliminated"
        | Some _ -> "other"
        | None -> "live")
        (Engine.cpu_time_of eng pid))
    pids;
  Printf.bprintf log "total %h now %h events %d\n" (Engine.total_cpu_time eng)
    (Engine.now eng) (Engine.stats_events_processed eng);
  Buffer.contents log

type cpu_event = Start of int | Kill of int | Tick

let cpu_prog_model cores prog =
  let n = Array.length prog.procs in
  let log = Buffer.create 256 in
  let now = ref 0. and last = ref 0. and stamp = ref 0 and events = ref 0 in
  (* Runnable tasks (pid, remaining, park), ascending pid; [park] names
     the park the task resumes. *)
  let tasks = ref [] in
  let used = Array.make n 0. in
  (* Pending events (time, stamp, event), unordered; the tick is one
     entry, replaced at each reschedule. *)
  let queue = ref [] in
  let push time ev =
    queue := (Float.max time !now, !stamp, ev) :: !queue;
    incr stamp
  in
  let rate () =
    match (List.length !tasks, cores) with
    | 0, _ | _, Engine.Infinite -> 1.0
    | k, Engine.Cores c -> Float.min 1.0 (float_of_int c /. float_of_int k)
  in
  let update () =
    let elapsed = !now -. !last in
    if elapsed > 0. then begin
      let r = rate () in
      List.iter
        (fun (pid, rem, _) ->
          rem := !rem -. (elapsed *. r);
          used.(pid) <- used.(pid) +. (elapsed *. r))
        !tasks
    end;
    last := !now
  in
  let reschedule () =
    queue := List.filter (fun (_, _, ev) -> ev <> Tick) !queue;
    match !tasks with
    | [] -> ()
    | ts ->
      let r = rate () in
      let min_rem =
        List.fold_left (fun m (_, rem, _) -> Float.min m (Float.max 0. !rem)) infinity ts
      in
      push (!now +. (min_rem /. r)) Tick
  in
  let remove pid =
    if List.exists (fun (p, _, _) -> p = pid) !tasks then begin
      update ();
      tasks := List.filter (fun (p, _, _) -> p <> pid) !tasks;
      reschedule ()
    end
  in
  (* Process state: [`Embryo] until its start event, [`Dead] once exited;
     [phase] is [`Catching] once it caught a kill; [park] is the live
     park's number, 0 when not parked. *)
  let state = Array.make n `Embryo and phase = Array.make n `Main in
  let pc = Array.make n 0 and park = Array.make n 0 and parks = ref 0 in
  let steps = Array.map (fun pr -> Array.of_list pr.steps) prog.procs in
  let rec step i =
    match phase.(i) with
    | `Main when pc.(i) < Array.length steps.(i) -> delay i (fst steps.(i).(pc.(i)))
    | `Main -> exit_ i "ok"
    | `Catching -> delay i (Option.get prog.procs.(i).catch)
  and delay i d =
    if d <= 0. then finished i
    else begin
      incr parks;
      park.(i) <- !parks;
      update ();
      tasks :=
        List.sort compare ((i, ref d, !parks) :: List.filter (fun (p, _, _) -> p <> i) !tasks);
      reschedule ()
    end
  and finished i =
    match phase.(i) with
    | `Main ->
      let k = snd steps.(i).(pc.(i)) in
      Printf.bprintf log "%d.%d %h\n" i pc.(i) !now;
      pc.(i) <- pc.(i) + 1;
      Option.iter kill k;
      step i
    | `Catching ->
      Printf.bprintf log "%d caught %h\n" i !now;
      exit_ i "ok"
  and exit_ i status =
    state.(i) <- `Dead status;
    remove i
  and kill = function
    | Direct v -> kill_now v
    | After (x, v) -> push (!now +. x) (Kill v)
  and kill_now v =
    match state.(v) with
    | `Dead _ -> ()
    | `Embryo -> state.(v) <- `Dead "eliminated"
    | `Live ->
      (* Not running, so parked: in the task list, or collected by the
         tick that is resuming its batch. *)
      park.(v) <- 0;
      remove v;
      if phase.(v) = `Main && Option.is_some prog.procs.(v).catch then begin
        phase.(v) <- `Catching;
        step v
      end
      else exit_ v "eliminated"
  in
  let tick () =
    update ();
    let finished_, rest = List.partition (fun (_, rem, _) -> !rem <= 1e-12) !tasks in
    tasks := rest;
    reschedule ();
    List.iter
      (fun (pid, _, p) ->
        if park.(pid) = p then begin
          park.(pid) <- 0;
          finished pid
        end)
      finished_
  in
  Array.iteri (fun i pr -> push pr.start (Start i)) prog.procs;
  List.iter (fun (x, v) -> push x (Kill v)) prog.kills;
  while !queue <> [] do
    let ((time, _, ev) as first) =
      List.fold_left
        (fun ((t, s, _) as a) ((t', s', _) as b) ->
          if t' < t || (t' = t && s' < s) then b else a)
        (List.hd !queue) !queue
    in
    queue := List.filter (fun e -> e != first) !queue;
    now := Float.max !now time;
    incr events;
    match ev with
    | Start i ->
      if state.(i) = `Embryo then begin
        state.(i) <- `Live;
        step i
      end
    | Kill v -> kill_now v
    | Tick -> tick ()
  done;
  Array.iteri
    (fun i st ->
      Printf.bprintf log "%d %s cpu %h\n" i
        (match st with `Dead s -> s | `Embryo | `Live -> "live")
        used.(i))
    state;
  Printf.bprintf log "total %h now %h events %d\n"
    (Array.fold_left ( +. ) 0. used)
    !now !events;
  Buffer.contents log

let prop_cpu_model =
  QCheck.Test.make ~name:"model: processor sharing over a plain list" ~count:500
    (QCheck.make ~print:cpu_prog_to_string cpu_prog_gen)
    (fun prog ->
      List.for_all
        (fun cores ->
          let engine = cpu_prog_engine cores prog
          and model = cpu_prog_model cores prog in
          engine = model
          || QCheck.Test.fail_reportf "%s:@.engine:@.%s@.model:@.%s"
               (match cores with
               | Engine.Infinite -> "Infinite"
               | Engine.Cores c -> Printf.sprintf "Cores %d" c)
               engine model)
        Engine.[ Infinite; Cores 1; Cores 2; Cores 3; Cores 4 ])

(* A NaN wait, or an infinite delay, is refused on the caller's stack:
   the body crashes with the operation's name, and the rest of the run
   goes on. *)
let test_bad_wait reason wait () =
  let eng = mk () in
  let bad = Engine.spawn eng wait in
  let sibling = Engine.spawn eng (fun ctx -> Engine.delay ctx 1.0) in
  Engine.run eng;
  check Alcotest.bool "crashed" true
    (Engine.status eng bad
    = Some (Engine.Crashed (Printexc.to_string (Invalid_argument reason))));
  check Alcotest.bool "sibling finished" true
    (Engine.status eng sibling = Some Engine.Exited_ok);
  check cf "clock" 1. (Engine.now eng)

let test_nan_wait fn = test_bad_wait (fn ^ ": NaN duration")

(* ---------------- IPC ---------------- *)

let test_send_receive_payload () =
  let eng = mk () in
  let got = ref None in
  let recv =
    Engine.spawn eng (fun ctx ->
        let m = Engine.receive ctx () in
        got := Some m.Message.payload)
  in
  ignore (Engine.spawn eng (fun ctx -> Engine.send ctx recv (Payload.Str "hi")));
  Engine.run eng;
  check Alcotest.bool "payload" true (!got = Some (Payload.Str "hi"))

let test_fifo_per_channel () =
  (* A big (slow) message followed by a small (fast) one must still arrive
     in send order: the channel is FIFO even when per-message costs would
     reorder deliveries. *)
  let eng = mk ~model:Cost_model.hp_9000_350 () in
  let order = ref [] in
  let recv =
    Engine.spawn eng (fun ctx ->
        for _ = 1 to 2 do
          let m = Engine.receive ctx () in
          (match m.Message.payload with
          | Payload.Pair (Payload.Int i, _) -> order := i :: !order
          | Payload.Int i -> order := i :: !order
          | _ -> ())
        done)
  in
  ignore
    (Engine.spawn eng (fun ctx ->
         Engine.send ctx recv
           (Payload.Pair (Payload.int 1, Payload.Str (String.make 9000 'x')));
         Engine.send ctx recv (Payload.int 2)));
  Engine.run eng;
  check Alcotest.(list int) "send order preserved" [ 1; 2 ] (List.rev !order)

let test_fifo_ordering_ints () =
  let eng = mk () in
  let order = ref [] in
  let recv =
    Engine.spawn eng (fun ctx ->
        for _ = 1 to 5 do
          let m = Engine.receive ctx ~tag:"t" () in
          order := Payload.get_int m.Message.payload :: !order
        done)
  in
  ignore
    (Engine.spawn eng (fun ctx ->
         for i = 1 to 5 do
           Engine.send ctx ~tag:"t" recv (Payload.int i)
         done));
  Engine.run eng;
  check Alcotest.(list int) "in order" [ 1; 2; 3; 4; 5 ] (List.rev !order)

let test_tag_filtering () =
  let eng = mk () in
  let got = ref [] in
  let recv =
    Engine.spawn eng (fun ctx ->
        let a = Engine.receive ctx ~tag:"b" () in
        let b = Engine.receive ctx ~tag:"a" () in
        got := [ a.Message.tag; b.Message.tag ])
  in
  ignore
    (Engine.spawn eng (fun ctx ->
         Engine.send ctx ~tag:"a" recv Payload.Unit;
         Engine.send ctx ~tag:"b" recv Payload.Unit));
  Engine.run eng;
  check Alcotest.(list string) "tags honoured" [ "b"; "a" ] !got

let test_receive_timeout () =
  let eng = mk () in
  let got = ref (Some ()) in
  let woke = ref 0. in
  ignore
    (Engine.spawn eng (fun ctx ->
         (match Engine.receive_timeout ctx ~timeout:2.5 () with
         | None -> got := None
         | Some _ -> ());
         woke := Engine.now_v ctx));
  Engine.run eng;
  check Alcotest.bool "timed out" true (!got = None);
  check cf "at deadline" 2.5 !woke

let test_receive_timeout_delivery_wins () =
  let eng = mk () in
  let got = ref None in
  let recv =
    Engine.spawn eng (fun ctx ->
        match Engine.receive_timeout ctx ~timeout:10. () with
        | Some m -> got := Some m.Message.payload
        | None -> ())
  in
  ignore
    (Engine.spawn eng (fun ctx ->
         Engine.delay ctx 1.;
         Engine.send ctx recv (Payload.int 9)));
  Engine.run eng;
  check Alcotest.bool "message won" true (!got = Some (Payload.Int 9))

let test_message_to_dead_pid_dropped () =
  let eng = mk () in
  let dead = Engine.spawn eng (fun _ -> ()) in
  ignore
    (Engine.spawn eng (fun ctx ->
         Engine.delay ctx 1.;
         Engine.send ctx dead Payload.Unit));
  Engine.run eng;
  check Alcotest.int "no one left" 0 (Engine.live_count eng)

(* A send to a forged pid -1 holds a slot of the sender's FIFO-clock
   table with pid -1, as a free slot does, but a finite clock: the table
   must not take it for free. A large message to -1 pushes its clock far
   ahead; a small message to each of [n] receivers after it must arrive
   on its own clock, not behind -1's. *)
let test_forged_dest_clock () =
  let eng = mk ~model:Cost_model.att_3b2 () in
  let model = Engine.model eng in
  let arrivals = ref [] in
  let receivers =
    List.init 64 (fun _ ->
        Engine.spawn eng ~cloneable:false (fun ctx ->
            let m = Engine.receive ctx () in
            arrivals := (Engine.now_v ctx, m.Message.size) :: !arrivals))
  in
  ignore
    (Engine.spawn eng ~cloneable:false (fun ctx ->
         Engine.send ctx (Pid.of_int (-1)) (Payload.Str (String.make 100_000 'x'));
         List.iter (fun r -> Engine.send ctx r (Payload.int 1)) receivers));
  Engine.run eng;
  check Alcotest.int "every receiver got its message" 64 (List.length !arrivals);
  List.iter
    (fun (at, size) ->
      check cf "arrival on its own clock"
        (model.Cost_model.msg_latency +. (float_of_int size *. model.Cost_model.msg_per_byte))
        at)
    !arrivals

(* ---------------- Kill and doom ---------------- *)

(* One table over the five ways a body parks: each wait is a function
   from the body's ctx and an ivar to what the wait returned. Every wait
   is killed while parked; the timed ones are also woken and left to time
   out. *)
let payload m = Some (Payload.get_int m.Message.payload)

let wait_delay ctx _ =
  Engine.delay ctx 100.;
  None

let wait_receive ctx _ = payload (Engine.receive ctx ())

let wait_receive_timeout ctx _ =
  Option.bind (Engine.receive_timeout ctx ~timeout:100. ()) payload

let wait_read ctx iv = Some (Engine.Ivar.read ctx iv)
let wait_read_timeout ctx iv = Engine.Ivar.read_timeout ctx iv ~timeout:100.

(* Whatever could wake a wait: a fill of its ivar and a message (the
   engine [mk] builds charges nothing, so the message lands at once). *)
let poke ctx victim iv =
  ignore (Engine.Ivar.try_fill iv 7);
  Engine.send ctx victim (Payload.int 7)

(* A victim parked in [wait] from t = 0, and a process running [at_1] on
   it at t = 1. Returns the engine, the victim, what its wait returned and
   when (None if it never resumed), and how many times its finaliser and
   its exit watcher ran. *)
let wait_scenario wait at_1 =
  let eng = mk () in
  let iv = Engine.Ivar.create () in
  let resumed = ref None and finalised = ref 0 and exits = ref 0 in
  let victim =
    Engine.spawn eng (fun ctx ->
        Fun.protect
          ~finally:(fun () -> incr finalised)
          (fun () ->
            let r = wait ctx iv in
            resumed := Some (r, Engine.now_v ctx)))
  in
  Engine.on_exit eng victim (fun _ -> incr exits);
  ignore
    (Engine.spawn eng (fun ctx ->
         Engine.delay ctx 1.;
         at_1 ctx victim iv));
  Engine.run eng;
  (eng, victim, !resumed, !finalised, !exits)

let resumed_at = Alcotest.(option (pair (option int) cf))

(* Two runs: a poke would retire a stale deadline event itself, so the
   clock is checked on a run with the kill alone. *)
let test_killed_in wait () =
  let kill ctx victim _ = Engine.kill (Engine.engine ctx) victim ~reason:"cut" in
  let eng, _, _, _, _ = wait_scenario wait kill in
  check cf "clock stays at the kill" 1. (Engine.now eng);
  let eng, victim, resumed, finalised, exits =
    wait_scenario wait (fun ctx victim iv ->
        kill ctx victim iv;
        poke ctx victim iv)
  in
  check Alcotest.bool "eliminated" true
    (Engine.status eng victim = Some (Engine.Eliminated "cut"));
  check Alcotest.int "exited once" 1 exits;
  check Alcotest.int "finaliser ran once" 1 finalised;
  check resumed_at "a later fill or message does not resume it" None resumed

let test_woken_in wait () =
  let eng, _, resumed, _, _ = wait_scenario wait poke in
  check resumed_at "resumed with the value at the wake" (Some (Some 7, 1.)) resumed;
  check cf "deadline retired" 1. (Engine.now eng)

let test_timed_out_in wait () =
  let _, _, resumed, _, _ = wait_scenario wait (fun _ _ _ -> ()) in
  check resumed_at "resumed with None at the deadline" (Some (None, 100.)) resumed

let wait_receive_forever ctx _ =
  Option.bind (Engine.receive_timeout ctx ~timeout:infinity ()) payload

let wait_read_forever ctx iv = Engine.Ivar.read_timeout ctx iv ~timeout:infinity

(* An infinite timeout sets no deadline: left alone, the wait stays parked
   at quiescence and the clock stops at the last event, where a deadline
   at infinity used to resume it (and leave [Engine.now] at infinity). *)
let test_forever_in wait () =
  let eng, victim, resumed, _, _ = wait_scenario wait (fun _ _ _ -> ()) in
  check resumed_at "never resumed" None resumed;
  check Alcotest.(list int) "still parked" [ Pid.to_int victim ]
    (List.map Pid.to_int (Engine.parked_pids eng));
  check cf "clock stays at the last event" 1. (Engine.now eng);
  let _, _, resumed, _, _ = wait_scenario wait poke in
  check resumed_at "woken like an untimed wait" (Some (Some 7, 1.)) resumed

let test_kill_embryo () =
  let eng = mk () in
  let ran = ref false in
  let victim = Engine.spawn eng ~start_delay:5. (fun _ -> ran := true) in
  ignore
    (Engine.spawn eng (fun ctx ->
         Engine.kill (Engine.engine ctx) victim ~reason:"early"));
  Engine.run eng;
  check Alcotest.bool "embryo never ran" false !ran;
  check Alcotest.bool "eliminated" true
    (Engine.status eng victim = Some (Engine.Eliminated "early"))

let test_kill_dead_noop () =
  let eng = mk () in
  let pid = Engine.spawn eng (fun _ -> ()) in
  Engine.run eng;
  Engine.kill eng pid ~reason:"again";
  check Alcotest.bool "status unchanged" true
    (Engine.status eng pid = Some Engine.Exited_ok)

(* ---------------- Ivar ---------------- *)

let test_ivar_at_most_once () =
  let iv = Engine.Ivar.create () in
  check Alcotest.bool "first fill" true (Engine.Ivar.try_fill iv 1);
  check Alcotest.bool "second fill too late" false (Engine.Ivar.try_fill iv 2);
  check Alcotest.(option int) "first value kept" (Some 1) (Engine.Ivar.peek iv)

let test_ivar_read_blocks () =
  let eng = mk () in
  let iv = Engine.Ivar.create () in
  let got = ref 0 in
  let when_ = ref 0. in
  ignore
    (Engine.spawn eng (fun ctx ->
         got := Engine.Ivar.read ctx iv;
         when_ := Engine.now_v ctx));
  ignore
    (Engine.spawn eng (fun ctx ->
         Engine.delay ctx 2.;
         ignore (Engine.Ivar.try_fill iv 7)));
  Engine.run eng;
  check Alcotest.int "value" 7 !got;
  check cf "woke at fill" 2. !when_

let test_ivar_read_timeout () =
  let eng = mk () in
  let iv : int Engine.Ivar.t = Engine.Ivar.create () in
  let got = ref (Some 0) in
  ignore
    (Engine.spawn eng (fun ctx ->
         got := Engine.Ivar.read_timeout ctx iv ~timeout:1.5));
  Engine.run eng;
  check Alcotest.bool "timed out" true (!got = None);
  check cf "deadline respected" 1.5 (Engine.now eng)

(* A waiter killed in [read_timeout] retires its deadline event: left
   live, it would drag [run]'s clock to a deadline nobody waits for. *)
let test_ivar_read_timeout_killed () =
  let eng = mk () in
  let iv : int Engine.Ivar.t = Engine.Ivar.create () in
  let exits = ref [] in
  let waiter =
    Engine.spawn eng (fun ctx -> ignore (Engine.Ivar.read_timeout ctx iv ~timeout:100.))
  in
  Engine.on_exit eng waiter (fun st -> exits := st :: !exits);
  ignore
    (Engine.spawn eng (fun ctx ->
         Engine.delay ctx 1.;
         Engine.kill (Engine.engine ctx) waiter ~reason:"cut"));
  Engine.run eng;
  check cf "clock stays at the kill" 1. (Engine.now eng);
  check Alcotest.bool "eliminated exactly once" true
    (!exits = [ Engine.Eliminated "cut" ])

(* A fill and a deadline due at the same time fire in (time, stamp)
   order, and the deadline is stamped when the reader parks (at t = 0):
   a fill scheduled before the park wins, one scheduled after it loses. *)
let test_ivar_fill_at_deadline () =
  let read ~fill_before_park =
    let eng = mk () in
    let iv = Engine.Ivar.create () in
    let fill () = ignore (Engine.Ivar.try_fill iv 7) in
    let got = ref None in
    if fill_before_park then Engine.after eng ~delay:1. fill;
    ignore
      (Engine.spawn eng (fun ctx ->
           let r = Engine.Ivar.read_timeout ctx iv ~timeout:1. in
           got := Some (r, Engine.now_v ctx)));
    if not fill_before_park then
      ignore (Engine.spawn eng (fun ctx -> Engine.after (Engine.engine ctx) ~delay:1. fill));
    Engine.run eng;
    (!got, Engine.Ivar.peek iv)
  in
  let outcome = Alcotest.(pair resumed_at (option int)) in
  check outcome "fill scheduled before the park wins" (Some (Some 7, 1.), Some 7)
    (read ~fill_before_park:true);
  check outcome "fill scheduled after the park loses" (Some (None, 1.), Some 7)
    (read ~fill_before_park:false)

(* ---------------- Worlds ---------------- *)

(* A speculative sender (assumes its own completion) sends to a receiver
   with no assumptions: the receiver splits; when the sender resolves, one
   world is eliminated. *)
let worlds_scenario ~sender_completes =
  let eng = Engine.create ~trace:true () in
  let log = ref [] in
  let spec = (Engine.fresh_pids eng 1).(0) in
  let recv =
    Engine.spawn eng ~name:"recv" (fun ctx ->
        let m = Engine.receive ctx () in
        (* Wait for a later broadcast so both worlds live a while. *)
        let m2 = Engine.receive ctx () in
        log :=
          (Pid.to_int (Engine.self ctx), Payload.get_int m.Message.payload,
           Payload.get_int m2.Message.payload)
          :: !log)
  in
  ignore
    (Engine.spawn eng ~pid:spec ~name:"spec"
       ~predicate:(Predicate.make ~must_complete:[ spec ] ~must_fail:[])
       (fun ctx ->
         Engine.delay ctx 1.;
         Engine.send ctx recv (Payload.int 100);
         Engine.delay ctx 1.;
         if not sender_completes then Engine.abort ctx "speculation failed"));
  ignore
    (Engine.spawn eng ~name:"late" (fun ctx ->
         Engine.delay ctx 10.;
         Engine.send ctx recv (Payload.int 200)));
  Engine.run eng;
  (eng, recv, !log)

let test_worlds_split_created () =
  let eng, recv, _ = worlds_scenario ~sender_completes:true in
  let splits =
    Trace.count (Engine.trace eng) ~f:(function
      | Trace.Split { original; _ } -> Pid.equal original recv
      | _ -> false)
  in
  check Alcotest.int "one split" 1 splits

let test_worlds_sender_completes () =
  let _, _, log = worlds_scenario ~sender_completes:true in
  (* Only the accepting world survives: it saw 100 then 200. *)
  match log with
  | [ (_, 100, 200) ] -> ()
  | _ -> Alcotest.failf "unexpected worlds outcome (%d entries)" (List.length log)

let test_worlds_sender_fails () =
  let _, _, log = worlds_scenario ~sender_completes:false in
  (* Only the rejecting world survives: it never saw 100; it saw 200 as its
     first message and then blocks — so no log entry with 100. *)
  check Alcotest.bool "accepting world died" true
    (not (List.exists (fun (_, first, _) -> first = 100) log))

let test_worlds_clone_replays_state () =
  (* The clone must reconstruct local OCaml state via replay: a counter
     incremented before the split must be visible in the surviving clone.
     In the clone's world the speculative message never existed, so its
     first receive consumes the later broadcast instead. *)
  let eng = mk () in
  let spec = (Engine.fresh_pids eng 1).(0) in
  let recorded = ref [] in
  let recv =
    Engine.spawn eng ~name:"recv" (fun ctx ->
        let local = ref 0 in
        Engine.delay ctx 0.5;
        incr local;
        incr local;
        let m = Engine.receive ctx () in
        recorded := (!local, Payload.get_int m.Message.payload) :: !recorded)
  in
  ignore
    (Engine.spawn eng ~pid:spec
       ~predicate:(Predicate.make ~must_complete:[ spec ] ~must_fail:[])
       (fun ctx ->
         Engine.delay ctx 1.;
         Engine.send ctx recv (Payload.int 1);
         (* Fail only after the message has been delivered and split. *)
         Engine.delay ctx 1.;
         Engine.abort ctx "fails -> accepting world dies"));
  ignore
    (Engine.spawn eng (fun ctx ->
         Engine.delay ctx 5.;
         Engine.send ctx recv (Payload.int 2)));
  Engine.run eng;
  (* The accepting world recorded (2, 1) before dying; the rejecting clone
     must have replayed the increments and recorded (2, 2). *)
  check Alcotest.bool "clone replayed local state" true
    (List.mem (2, 2) !recorded);
  check Alcotest.bool "original saw speculative message" true
    (List.mem (2, 1) !recorded)

(* [random_bits], [delay] and [now_v] run on the caller's stack, and must
   still replay from the log: the rejecting clone re-executes them and has
   to see the bits and the time the original saw, not fresh ones. *)
let test_worlds_clone_replays_clock_and_rng () =
  let eng = mk () in
  let spec = (Engine.fresh_pids eng 1).(0) in
  let recorded = ref [] in
  let recv =
    Engine.spawn eng ~name:"recv" (fun ctx ->
        let bits = Engine.random_bits ctx in
        Engine.delay ctx 0.5;
        let t = Engine.now_v ctx in
        ignore (Engine.receive ctx ());
        recorded := (Pid.to_int (Engine.self ctx), bits, t) :: !recorded)
  in
  ignore
    (Engine.spawn eng ~pid:spec
       ~predicate:(Predicate.make ~must_complete:[ spec ] ~must_fail:[])
       (fun ctx ->
         Engine.delay ctx 1.;
         Engine.send ctx recv (Payload.int 1);
         Engine.delay ctx 1.;
         Engine.abort ctx "fails -> accepting world dies"));
  ignore
    (Engine.spawn eng (fun ctx ->
         Engine.delay ctx 5.;
         Engine.send ctx recv (Payload.int 2)));
  Engine.run eng;
  match !recorded with
  | [ (clone, clone_bits, clone_t); (orig, bits, t) ] ->
    check Alcotest.bool "two worlds recorded" true (clone <> orig);
    check Alcotest.int64 "same bits" bits clone_bits;
    check cf "original read the time after its delay" 0.5 t;
    check cf "clone replayed the same time" t clone_t
  | l -> Alcotest.failf "expected both worlds to record, got %d" (List.length l)

let test_oblivious_receiver_never_splits () =
  let eng = Engine.create ~trace:true () in
  let spec = (Engine.fresh_pids eng 1).(0) in
  let got = ref 0 in
  let recv =
    Engine.spawn eng ~oblivious:true ~name:"service" (fun ctx ->
        let m = Engine.receive ctx () in
        got := Payload.get_int m.Message.payload)
  in
  ignore
    (Engine.spawn eng ~pid:spec
       ~predicate:(Predicate.make ~must_complete:[ spec ] ~must_fail:[])
       (fun ctx -> Engine.send ctx recv (Payload.int 5)));
  Engine.run eng;
  check Alcotest.int "accepted" 5 !got;
  check Alcotest.int "no splits" 0
    (Trace.count (Engine.trace eng) ~f:(function Trace.Split _ -> true | _ -> false))

let test_conflicting_message_ignored () =
  let eng = Engine.create ~trace:true () in
  let pids = Array.to_list (Engine.fresh_pids eng 2) in
  let a = List.nth pids 0 and b = List.nth pids 1 in
  let got = ref None in
  (* Receiver already assumes b fails; a message from b (which assumes its
     own completion) must be ignored. *)
  let recv =
    Engine.spawn eng ~predicate:(Predicate.make ~must_complete:[] ~must_fail:[ b ])
      (fun ctx ->
        let m = Engine.receive_timeout ctx ~timeout:5. () in
        got := Option.map (fun m -> Payload.get_int m.Message.payload) m)
  in
  ignore
    (Engine.spawn eng ~pid:b
       ~predicate:(Predicate.make ~must_complete:[ b ] ~must_fail:[])
       (fun ctx -> Engine.send ctx recv (Payload.int 666)));
  ignore (Engine.spawn eng ~pid:a (fun _ -> ()));
  Engine.run eng;
  check Alcotest.bool "conflicting message never accepted" true (!got = None)

(* ---------------- Receipts (section 3.4.2) ---------------- *)

(* What the trace shows receiver [pid] doing with its messages, in order:
   splitting on one, accepting one (under the predicate it held when it
   decided) or ignoring one. A message is named by its int payload. *)
let receipts eng pid =
  let n (m : Message.t) = Payload.get_int m.Message.payload in
  List.filter_map
    (fun (time, e) ->
      match e with
      | Trace.Split { original; on; _ } when Pid.equal original pid ->
        Some (Printf.sprintf "t=%g split on %d" time (n on))
      | Trace.Accepted { dest; msg; dest_pred } when Pid.equal dest pid ->
        Some
          (Printf.sprintf "t=%g accepted %d under %s" time (n msg)
             (Predicate.to_string dest_pred))
      | Trace.Ignored { dest; msg; reason } when Pid.equal dest pid ->
        Some (Printf.sprintf "t=%g ignored %d: %s" time (n msg) reason)
      | _ -> None)
    (Trace.events (Engine.trace eng))

let assumes ?(fail = []) complete = Predicate.make ~must_complete:complete ~must_fail:fail
let check_receipts eng pid expected =
  check Alcotest.(list string) "receipts" expected (receipts eng pid)

(* A receiver holding every assumption of an uncertain sender accepts its
   message as it is: no split, and the receiver's predicate is unchanged. *)
let test_receipt_implied () =
  let eng = Engine.create () in
  let a = (Engine.fresh_pids eng 1).(0) in
  let after = ref "" in
  let recv =
    Engine.spawn eng ~predicate:(assumes [ a ]) (fun ctx ->
        ignore (Engine.receive ctx ());
        after := Predicate.to_string (Engine.my_predicate ctx))
  in
  ignore
    (Engine.spawn eng ~predicate:(assumes [ a ]) (fun ctx ->
         Engine.send ctx recv (Payload.int 1)));
  Engine.run eng;
  check_receipts eng recv [ "t=0 accepted 1 under {+P0}" ];
  check Alcotest.string "predicate" "{+P0}" !after

(* The sender's world died while its message waited: the message never
   happened. *)
let test_receipt_dead_world () =
  let eng = Engine.create () in
  let a = (Engine.fresh_pids eng 1).(0) in
  let got = ref (Some 0) and after = ref "" in
  let recv =
    Engine.spawn eng (fun ctx ->
        Engine.delay ctx 2.;
        got :=
          Option.map
            (fun m -> Payload.get_int m.Message.payload)
            (Engine.receive_timeout ctx ~timeout:1. ());
        after := Predicate.to_string (Engine.my_predicate ctx))
  in
  ignore
    (Engine.spawn eng ~predicate:(assumes [ a ]) (fun ctx ->
         Engine.send ctx recv (Payload.int 1);
         Engine.delay ctx 5.));
  ignore
    (Engine.spawn eng ~pid:a (fun ctx ->
         Engine.delay ctx 1.;
         Engine.abort ctx "a fails"));
  Engine.run eng;
  check_receipts eng recv [ "t=2 ignored 1: dead world" ];
  check Alcotest.(option int) "nothing accepted" None !got;
  check Alcotest.string "predicate" "{}" !after

(* A receiver that already assumes the sender completes has no world in
   which it rejects the sender: it takes on the sender's other
   assumptions without splitting. *)
let test_receipt_adopt () =
  let eng = Engine.create () in
  let pids = Array.to_list (Engine.fresh_pids eng 2) in
  let a = List.nth pids 0 and c = List.nth pids 1 in
  let after = ref "" in
  let recv =
    Engine.spawn eng ~predicate:(assumes [ c ]) (fun ctx ->
        ignore (Engine.receive ctx ());
        after := Predicate.to_string (Engine.my_predicate ctx))
  in
  ignore
    (Engine.spawn eng ~pid:c ~predicate:(assumes [ a; c ]) (fun ctx ->
         Engine.send ctx recv (Payload.int 1)));
  Engine.run eng;
  check_receipts eng recv [ "t=0 accepted 1 under {+P1}" ];
  check Alcotest.string "predicate" "{+P0 +P1}" !after

(* A receiver that cannot be cloned leaves a message needing a new
   assumption queued, and records nothing for it. It takes a later
   message from another sender first, never one from the same sender.
   When the sender completes, the queued message is accepted. *)
let test_receipt_defer_then_accept () =
  let eng = Engine.create () in
  let c = (Engine.fresh_pids eng 1).(0) in
  let got = ref [] and after = ref "" in
  let recv =
    Engine.spawn eng ~cloneable:false (fun ctx ->
        for _ = 1 to 2 do
          got := Payload.get_int (Engine.receive ctx ()).Message.payload :: !got
        done;
        after := Predicate.to_string (Engine.my_predicate ctx))
  in
  ignore
    (Engine.spawn eng ~pid:c ~predicate:(assumes [ c ]) (fun ctx ->
         Engine.send ctx recv (Payload.int 1);
         Engine.send ctx recv (Payload.int 2);
         Engine.delay ctx 5.));
  ignore
    (Engine.spawn eng (fun ctx ->
         Engine.delay ctx 1.;
         Engine.send ctx recv (Payload.int 3)));
  Engine.run eng;
  check_receipts eng recv [ "t=1 accepted 3 under {}"; "t=5 accepted 1 under {}" ];
  check Alcotest.(list int) "accepted" [ 3; 1 ] (List.rev !got);
  check Alcotest.string "predicate" "{}" !after

(* The receive rule at receivers already parked when a speculative
   sender's messages arrive, each with an empty mailbox: one that cannot
   split defers them and accepts them once the sender completes, one
   parked on a timed receive splits, and one that holds an assumption of
   the sender's adopts the rest. A certain message arrives among them.
   The receipts, the scan count and the whole trace are pinned: a receiver
   handed an uncertain message at its delivery would accept it early. *)
let parked_receipts () =
  let eng = mk ~trace:true () in
  let pids = Engine.fresh_pids eng 2 in
  let a = pids.(0) and c = pids.(1) in
  let taker ?(timed = false) ctx =
    for _ = 1 to 2 do
      if timed then ignore (Engine.receive_timeout ctx ~timeout:50. ())
      else ignore (Engine.receive ctx ())
    done
  in
  let deferring = Engine.spawn eng ~cloneable:false taker in
  let splitting = Engine.spawn eng (taker ~timed:true) in
  let adopting = Engine.spawn eng ~cloneable:false ~predicate:(assumes [ c ]) taker in
  ignore
    (Engine.spawn eng ~pid:c ~predicate:(assumes [ a; c ]) (fun ctx ->
         Engine.delay ctx 1.;
         List.iter (fun r -> Engine.send ctx r (Payload.int 1)) [ deferring; splitting; adopting ];
         Engine.delay ctx 5.));
  ignore (Engine.spawn eng ~pid:a (fun ctx -> Engine.delay ctx 8.));
  ignore
    (Engine.spawn eng (fun ctx ->
         Engine.delay ctx 2.;
         List.iter (fun r -> Engine.send ctx r (Payload.int 2)) [ deferring; splitting; adopting ]));
  Engine.run eng;
  (eng, [ deferring; splitting; adopting ])

let test_receipt_parked_pinned () =
  let eng, receivers = parked_receipts () in
  check
    Alcotest.(list (list string))
    "receipts"
    [
      [ "t=2 accepted 2 under {}"; "t=8 accepted 1 under {}" ];
      [ "t=1 split on 1"; "t=1 accepted 1 under {}"; "t=2 accepted 2 under {+P0 +P1}" ];
      [ "t=1 accepted 1 under {+P1}"; "t=2 accepted 2 under {+P0 +P1}" ];
    ]
    (List.map (receipts eng) receivers);
  check Alcotest.int "slots scanned" 14 (Engine.stats_mailbox_scanned eng);
  check Alcotest.string "trace digest" "e924455b8fd8470e5d0b5529f2690c8b"
    (Digest.to_hex (Digest.string (Trace.to_jsonl (Engine.trace eng))))

(* Regression: a deferral was traced as [Ignored] although the message
   stayed queued and was accepted later, so the sanitizer dropped its
   clock snapshot before the acceptance. *)
let test_receipt_deferral_not_ignored () =
  let eng = Engine.create () in
  let a = (Engine.fresh_pids eng 1).(0) in
  let recv =
    Engine.spawn eng ~cloneable:false (fun ctx -> ignore (Engine.receive ctx ()))
  in
  ignore
    (Engine.spawn eng ~predicate:(assumes [ a ]) (fun ctx ->
         Engine.send ctx recv (Payload.int 1)));
  ignore (Engine.spawn eng ~pid:a (fun ctx -> Engine.delay ctx 5.));
  Engine.run eng;
  check_receipts eng recv [ "t=5 accepted 1 under {}" ]

(* Regression: a split's rejecting world, which assumes the sender fails,
   split again on the sender's next message and crashed assuming it
   completes. The sender is the child of an unresolved alternative: its
   messages carry {+A}, not its own completion. *)
let test_receipt_rejecting_world () =
  let eng = Engine.create () in
  let a = (Engine.fresh_pids eng 1).(0) in
  let recv =
    Engine.spawn eng (fun ctx ->
        ignore (Engine.receive ctx ());
        ignore (Engine.receive ctx ()))
  in
  ignore
    (Engine.spawn eng ~predicate:(assumes [ a ]) (fun ctx ->
         Engine.send ctx recv (Payload.int 1);
         Engine.delay ctx 1.;
         Engine.send ctx recv (Payload.int 2)));
  Engine.run eng;
  let clone = Pid.of_int 3 in
  check_receipts eng recv
    [ "t=0 split on 1"; "t=0 accepted 1 under {}"; "t=1 accepted 2 under {+P0 +P2}" ];
  check_receipts eng clone [ "t=1 ignored 2: conflict" ];
  check Alcotest.int "one split" 1
    (Trace.count (Engine.trace eng) ~f:(function Trace.Split _ -> true | _ -> false));
  check Alcotest.bool "the rejecting world still waits" true
    (Engine.status eng clone = None)

(* Regression: a sender whose predicate assumes its own failure made
   [Engine.run] itself raise, from the rescan that split on its message. *)
let test_receipt_sender_assumes_failure () =
  let eng = Engine.create () in
  let c = (Engine.fresh_pids eng 1).(0) in
  let got = ref (Some 0) in
  let recv =
    Engine.spawn eng (fun ctx ->
        got :=
          Option.map
            (fun m -> Payload.get_int m.Message.payload)
            (Engine.receive_timeout ctx ~timeout:5. ()))
  in
  ignore
    (Engine.spawn eng ~pid:c ~predicate:(assumes [] ~fail:[ c ]) (fun ctx ->
         Engine.send ctx recv (Payload.int 1)));
  Engine.run eng;
  check_receipts eng recv [ "t=0 ignored 1: conflict" ];
  check Alcotest.(option int) "nothing accepted" None !got

(* The receipt model. A receiver, cloneable or not and holding a
   generated predicate, polls its mailbox between sends, fate
   resolutions and feeds. Every world of it is compared, poll by poll,
   with a plain list run under the pid-set rule.

   Pids [0 .. universe - 1] are the ones predicates range over. Each is
   a process holding a generated predicate, and any of them may resolve
   (complete or fail). The first [senders] of them send to the receiver.
   A feed grows a sender's predicate between two of its sends, which is
   the only way two messages of one sender can get different receipts:
   another universe process sends it its predicate, and the sender, which
   cannot be cloned, takes it at once. Step [i] happens at virtual time
   10 (i + 1), a feed's receive half a second later. *)
type rstep =
  | R_send of int * string  (** sender, tag *)
  | R_feed of int * int  (** from, to a sender *)
  | R_resolve of int * bool  (** pid, completes *)
  | R_poll of string option  (** every world of the receiver polls *)

type rprog = {
  senders : int;
  preds : (int list * int list) array;  (** per universe pid: completes, fails *)
  rpred : int list * int list;
  cloneable : bool;
  rsteps : rstep array;
}

let rstep_time i = float_of_int (10 * (i + 1))

let rpred_to_string (c, f) =
  "{"
  ^ String.concat " "
      (List.map (Printf.sprintf "+%d") c @ List.map (Printf.sprintf "-%d") f)
  ^ "}"

let rprog_to_string p =
  let step i s =
    Printf.sprintf "t=%g %s" (rstep_time i)
      (match s with
      | R_send (s, tag) -> Printf.sprintf "%d sends %d tagged %s" s i tag
      | R_feed (u, s) -> Printf.sprintf "%d feeds %d" u s
      | R_resolve (u, ok) ->
        Printf.sprintf "%d %s" u (if ok then "completes" else "fails")
      | R_poll None -> "poll"
      | R_poll (Some tag) -> "poll tag " ^ tag)
  in
  String.concat "\n"
    ((Printf.sprintf "receiver %s%s, %d senders" (rpred_to_string p.rpred)
        (if p.cloneable then "" else " (not cloneable)")
        p.senders
     :: List.mapi (fun u q -> Printf.sprintf "pid %d %s" u (rpred_to_string q))
          (Array.to_list p.preds))
    @ List.mapi step (Array.to_list p.rsteps))

(* A predicate over pids [0 .. universe - 1], as (completes, fails). A
   process usually assumes its own completion, the shape of an
   alternative, and now and then its own failure. *)
let pred_gen universe ~self =
  let open QCheck.Gen in
  flatten_l
    (List.init universe (fun u ->
         frequency
           (if u = self then [ (6, return `C); (3, return `N); (1, return `F) ]
            else [ (6, return `N); (2, return `C); (2, return `F) ])))
  >|= fun marks ->
  let pick m = List.concat (List.mapi (fun u x -> if x = m then [ u ] else []) marks) in
  (pick `C, pick `F)

let rprog_gen =
  let open QCheck.Gen in
  int_range 1 4 >>= fun senders ->
  int_range (max 2 senders) 6 >>= fun universe ->
  let pred = pred_gen universe in
  flatten_l (List.init universe (fun u -> pred ~self:u)) >>= fun preds ->
  (* A feed mostly comes from a pid the sender assumes completes, so
     that the sender adopts its predicate. *)
  let feed =
    int_bound (senders - 1) >>= fun s ->
    map
      (fun u -> R_feed (u, s))
      (match List.filter (( <> ) s) (fst (List.nth preds s)) with
      | [] -> int_bound (universe - 1)
      | us -> oneofl us)
  in
  let step =
    frequency
      [
        ( 3,
          map2
            (fun s tag -> R_send (s, tag))
            (int_bound (senders - 1))
            (oneofl [ "a"; "b" ]) );
        (1, feed);
        (2, map2 (fun u ok -> R_resolve (u, ok)) (int_bound (universe - 1)) bool);
        (3, map (fun tag -> R_poll tag) (oneofl [ None; None; Some "a"; Some "b" ]));
      ]
  in
  (* At most 8 sends, each pid resolved at most once, and a last poll. *)
  let rec keep sends resolved = function
    | [] -> [ R_poll None ]
    | (R_send _ as s) :: rest ->
      if sends = 8 then keep sends resolved rest else s :: keep (sends + 1) resolved rest
    | (R_resolve (u, _) as s) :: rest ->
      if List.mem u resolved then keep sends resolved rest
      else s :: keep sends (u :: resolved) rest
    | s :: rest -> s :: keep sends resolved rest
  in
  let random =
    map3
      (fun rpred cloneable steps ->
        let preds = Array.of_list preds and rsteps = Array.of_list steps in
        { senders; preds; rpred; cloneable; rsteps })
      (pred ~self:(-1)) bool
      (list_size (int_range 3 16) step)
  in
  (* One program in four opens with the shape per-sender FIFO is about.
     Sender 0 assumes pid 1 completes, but not its own completion. It
     sends, adopts pid 1's predicate and sends again, to a receiver that
     cannot be cloned and does not assume sender 0 completes. The first
     message is then often deferred and the second ignored. *)
  let fifo =
    random >|= fun p ->
    let drop us = List.filter (fun u -> not (List.mem u us)) in
    let preds = Array.copy p.preds in
    let c, f = preds.(0) in
    preds.(0) <- (List.sort_uniq compare (1 :: drop [ 0 ] c), drop [ 0; 1 ] f);
    {
      p with
      preds;
      rpred = (drop [ 0 ] (fst p.rpred), snd p.rpred);
      cloneable = false;
      rsteps =
        Array.append [| R_send (0, "a"); R_feed (1, 0); R_send (0, "a") |] p.rsteps;
    }
  in
  map
    (fun p -> { p with rsteps = Array.of_list (keep 0 [] (Array.to_list p.rsteps)) })
    (frequency [ (3, random); (1, fifo) ])

(* One line per receiver world (its polls, then whether it lives),
   sorted; one per universe pid that took a feed (its polls); then the
   fates of the universe. A poll shows its time, the predicate before
   it, the message accepted ("-" for none), the messages ignored with
   their reasons, and the predicate after it. *)
let rprog_report worlds fed fates =
  String.concat "\n" (List.sort compare worlds @ fed) ^ "\nfates " ^ fates

let rpoll_to_string t before got ignored after =
  Printf.sprintf "%g:%s>%s%s:%s " t before got ignored after

let rprog_engine p =
  let eng = Engine.create () in
  let univ = Engine.fresh_pids eng (Array.length p.preds) in
  let pred (c, f) =
    Predicate.make ~must_complete:(List.map (Array.get univ) c)
      ~must_fail:(List.map (Array.get univ) f)
  in
  let show q =
    let ints s = List.map Pid.to_int (Pid.Set.elements s) in
    rpred_to_string (ints (Predicate.must_complete q), ints (Predicate.must_fail q))
  in
  let until ctx t = Engine.delay ctx (t -. Engine.now eng) in
  let forever ctx = ignore (Engine.receive ctx ~tag:"never" ()) in
  let records = ref [] in
  (* Poll at [t]; a clone replays the polls before its split at its own
     start time, later than theirs, so only live polls are recorded. *)
  let poll ctx i t tag =
    until ctx t;
    let before = show (Engine.my_predicate ctx) in
    let got = Engine.receive_timeout ctx ?tag ~timeout:0. () in
    if Engine.now eng < t +. 0.5 then
      records :=
        ( Engine.self ctx,
          i,
          before,
          (match got with
          | Some m -> string_of_int (Payload.get_int m.Message.payload)
          | None -> "-"),
          show (Engine.my_predicate ctx) )
        :: !records
  in
  let steps = List.mapi (fun i s -> (i, s)) (Array.to_list p.rsteps) in
  let recv =
    Engine.spawn eng ~predicate:(pred p.rpred) ~cloneable:p.cloneable (fun ctx ->
        List.iter
          (function i, R_poll tag -> poll ctx i (rstep_time i) tag | _ -> ())
          steps;
        forever ctx)
  in
  Array.iteri
    (fun u pid ->
      let rec go ctx = function
        | [] -> forever ctx
        | (i, R_send (s, tag)) :: rest when s = u ->
          until ctx (rstep_time i);
          Engine.send ctx ~tag recv (Payload.int i);
          go ctx rest
        | (i, R_feed (v, s)) :: rest when v = u || s = u ->
          if v = u then begin
            until ctx (rstep_time i);
            Engine.send ctx ~tag:"feed" univ.(s) (Payload.int i)
          end;
          if s = u then poll ctx i (rstep_time i +. 0.5) (Some "feed");
          go ctx rest
        | (i, R_resolve (v, ok)) :: _ when v = u ->
          until ctx (rstep_time i);
          if not ok then Engine.abort ctx "fails"
        | _ :: rest -> go ctx rest
      in
      ignore
        (Engine.spawn eng ~pid ~predicate:(pred p.preds.(u)) ~cloneable:false (fun ctx ->
             go ctx steps)))
    univ;
  match Engine.run eng with
  | exception e -> "Engine.run raised " ^ Printexc.to_string e
  | () ->
    let events = Trace.events (Engine.trace eng) in
    let polls pid =
      let poll (_, i, before, got, after) =
        let t = rstep_time i in
        let ignored =
          List.filter_map
            (function
              | time, Trace.Ignored { dest; msg; reason }
                when Pid.equal dest pid && time >= t && time < t +. 1. ->
                Some
                  (Printf.sprintf " x%d(%s)" (Payload.get_int msg.Message.payload) reason)
              | _ -> None)
            events
        in
        rpoll_to_string t before got (String.concat "" ignored) after
      in
      String.concat ""
        (List.rev_map poll
           (List.filter (fun (q, _, _, _, _) -> Pid.equal q pid) !records))
    in
    let world pid =
      polls pid
      ^
      match Engine.status eng pid with
      | None -> "live"
      | Some (Engine.Eliminated _) -> "dead"
      | Some (Engine.Crashed r) -> "crashed " ^ r
      | Some _ -> "exited"
    in
    let clones =
      List.filter_map
        (function _, Trace.Split { clone; _ } -> Some clone | _ -> None)
        events
    in
    let fed =
      List.filter_map
        (fun pid ->
          match polls pid with
          | "" -> None
          | s -> Some (Printf.sprintf "%d: %s" (Pid.to_int pid) s))
        (Array.to_list univ)
    in
    rprog_report
      (List.map world (recv :: clones))
      fed
      (String.concat ""
         (Array.to_list
            (Array.map
               (fun pid ->
                 match Fate_registry.fate (Engine.registry eng) pid with
                 | Some Predicate.Completed -> "C"
                 | Some Predicate.Failed -> "F"
                 | None -> "?")
               univ)))

(* A receiver world of the model, or a universe process's predicate and
   feed mailbox. *)
type rworld = {
  mutable wpred : int list * int list;
  mutable mbox : (int * int * string * (int list * int list)) list;
      (** id, sender, tag, the predicate the send stamped *)
  wclone : bool;
  mutable alive : bool;
  mutable wlog : string list;  (** newest first *)
}

let rworld wpred wclone = { wpred; mbox = []; wclone; alive = true; wlog = [] }

let rprog_model p =
  let n = Array.length p.preds in
  let fate = Array.make n None in
  (* [`Deferred]: exited while its predicate was still uncertain. *)
  let state = Array.make n `Alive in
  let procs = Array.map (fun q -> rworld q false) p.preds in
  let undecided = List.filter (fun u -> fate.(u) = None) in
  let normalize (c, f) =
    if
      List.exists (fun u -> fate.(u) = Some `F) c
      || List.exists (fun u -> fate.(u) = Some `C) f
    then `Dead
    else `Live (undecided c, undecided f)
  in
  let sub a b = List.for_all (fun x -> List.mem x b) a in
  let meets a b = List.exists (fun x -> List.mem x b) a in
  let union a b = List.sort_uniq compare (a @ b) in
  (* Section 3.4.2, over pid-set pairs. *)
  let rule (rc, rf) sender stamped s cloneable =
    match s with
    | `Dead -> `Ignore "dead world"
    | `Live _ when List.mem sender (snd stamped) -> `Ignore "conflict"
    | `Live (sc, sf) ->
      if sub sc rc && sub sf rf then `Accept
      else if meets rc sf || meets rf sc || List.mem sender rf then `Ignore "conflict"
      else if List.mem sender rc then `Adopt (union rc sc, union rf sf)
      else if cloneable then
        `Split ((union rc (sender :: sc), union rf sf), (rc, union rf [ sender ]))
      else `Defer
  in
  let worlds = ref [ rworld p.rpred p.cloneable ] in
  (* After each recorded fate, to a fixpoint: whatever holds a falsified
     predicate dies, deferred fates settle, the rest are simplified. *)
  let rec sweep () =
    let changed = ref false in
    Array.iteri
      (fun u pr ->
        match (state.(u), normalize pr.wpred) with
        | `Gone, _ -> ()
        | _, `Dead ->
          state.(u) <- `Gone;
          fate.(u) <- Some `F;
          changed := true
        | `Deferred, `Live ([], []) ->
          state.(u) <- `Gone;
          fate.(u) <- Some `C;
          changed := true
        | _, `Live q -> pr.wpred <- q)
      procs;
    List.iter
      (fun w ->
        if w.alive then
          match normalize w.wpred with
          | `Dead -> w.alive <- false
          | `Live q -> w.wpred <- q)
      !worlds;
    if !changed then sweep ()
  in
  let decide u f =
    state.(u) <- `Gone;
    fate.(u) <- Some f;
    sweep ()
  in
  let resolve u ok =
    if state.(u) = `Alive then
      if not ok then decide u `F
      else
        let c, f = procs.(u).wpred in
        (* Completing falsifies an assumption of its own failure. *)
        if List.mem u f then decide u `F
        else
          match normalize (List.filter (( <> ) u) c, f) with
          | `Dead -> decide u `F
          | `Live ([], []) -> decide u `C
          | `Live q ->
            state.(u) <- `Deferred;
            procs.(u).wpred <- q
  in
  let send i u tag dests =
    if state.(u) = `Alive then
      let stamped =
        match normalize procs.(u).wpred with `Live q -> q | `Dead -> procs.(u).wpred
      in
      List.iter
        (fun w -> if w.alive then w.mbox <- w.mbox @ [ (i, u, tag, stamped) ])
        dests
  in
  (* One poll by [w]: the first acceptable entry, deferring per sender
     and never overtaking a deferred sender. A split's clone polls next. *)
  let poll t tag pending w =
    let before = w.wpred and ignored = Buffer.create 16 in
    let rec scan blocked kept = function
      | [] ->
        w.mbox <- List.rev kept;
        "-"
      | ((id, sender, etag, stamped) as e) :: rest -> (
        if (match tag with None -> false | Some t -> t <> etag) || List.mem sender blocked
        then scan blocked (e :: kept) rest
        else
          match
            if stamped = ([], []) then `Accept
            else rule w.wpred sender stamped (normalize stamped) w.wclone
          with
          | `Defer -> scan (sender :: blocked) (e :: kept) rest
          | `Ignore reason ->
            Printf.bprintf ignored " x%d(%s)" id reason;
            scan blocked kept rest
          | (`Accept | `Adopt _ | `Split _) as r ->
            let others = List.rev_append kept rest in
            (match r with
            | `Adopt q -> w.wpred <- q
            | `Split (accept, reject) ->
              let c = { (rworld reject true) with mbox = others } in
              worlds := !worlds @ [ c ];
              Queue.push c pending;
              w.wpred <- accept
            | `Accept -> ());
            w.mbox <- others;
            string_of_int id)
    in
    let got = scan [] [] w.mbox in
    w.wlog <-
      rpoll_to_string t (rpred_to_string before) got (Buffer.contents ignored)
        (rpred_to_string w.wpred)
      :: w.wlog
  in
  Array.iteri
    (fun i s ->
      let t = rstep_time i in
      match s with
      | R_send (u, tag) -> send i u tag !worlds
      | R_feed (u, s) ->
        send i u "feed" [ procs.(s) ];
        if state.(s) = `Alive then poll t (Some "feed") (Queue.create ()) procs.(s)
      | R_resolve (u, ok) -> resolve u ok
      | R_poll tag ->
        let pending = Queue.create () in
        List.iter (fun w -> if w.alive then Queue.push w pending) !worlds;
        while not (Queue.is_empty pending) do
          poll t tag pending (Queue.pop pending)
        done)
    p.rsteps;
  rprog_report
    (List.map
       (fun w -> String.concat "" (List.rev w.wlog) ^ if w.alive then "live" else "dead")
       !worlds)
    (List.concat
       (List.mapi
          (fun u pr ->
            match pr.wlog with
            | [] -> []
            | l -> [ Printf.sprintf "%d: %s" u (String.concat "" (List.rev l)) ])
          (Array.to_list procs)))
    (String.concat ""
       (Array.to_list
          (Array.map (function Some `C -> "C" | Some `F -> "F" | None -> "?") fate)))

let prop_receipt_model =
  QCheck.Test.make ~name:"model: receipts over a plain list" ~count:500
    (QCheck.make ~print:rprog_to_string rprog_gen)
    (fun p ->
      let engine = rprog_engine p and model = rprog_model p in
      engine = model
      || QCheck.Test.fail_reportf "engine:@.%s@.model:@.%s" engine model)

(* The worlds module against a plain list. Programs over pids
   [0 .. wprog_pids - 1], each spawnable once between resets, in any
   order: a live cloneable process splits into a clone that takes an
   unspawned pid, processes die, record log entries and take replay
   entries, and lose their cloneability. The reference keeps every
   process ever spawned in a list and rescans all of them: a logical
   pid's copies are its live processes in spawn order once it has split.
   Both report every replay step, and after each step every pid's copies
   and which processes log. *)
type wstep =
  | W_spawn of int * bool  (** pid, cloneable *)
  | W_split of int * int  (** a live cloneable process, its clone's pid *)
  | W_die of int
  | W_record of int * int  (** pid, the entry's value *)
  | W_replay of int
  | W_disable of int
  | W_reset

let wprog_pids = 8

let wstep_to_string = function
  | W_spawn (p, c) -> Printf.sprintf "spawn %d%s" p (if c then "" else " (not cloneable)")
  | W_split (p, c) -> Printf.sprintf "%d splits into %d" p c
  | W_die p -> Printf.sprintf "%d dies" p
  | W_record (p, v) -> Printf.sprintf "%d records %d" p v
  | W_replay p -> Printf.sprintf "%d replays" p
  | W_disable p -> Printf.sprintf "%d stops being cloneable" p
  | W_reset -> "reset"

let wprog_gen =
  let open QCheck.Gen in
  let pid = int_bound (wprog_pids - 1) in
  list_size (int_range 4 30)
    (frequency
       [
         (4, map2 (fun p c -> W_spawn (p, c)) pid (frequency [ (4, return true); (1, return false) ]));
         (3, map2 (fun p c -> W_split (p, c)) pid pid);
         (2, map (fun p -> W_die p) pid);
         (3, map2 (fun p v -> W_record (p, v)) pid (int_bound 99));
         (3, map (fun p -> W_replay p) pid);
         (1, map (fun p -> W_disable p) pid);
         (1, return W_reset);
       ])

let show_copies copies =
  String.concat " "
    (List.init wprog_pids (fun l ->
         Printf.sprintf "%d:[%s]" l (String.concat "," (List.map string_of_int (copies l)))))

let show_entry = function
  | Some (World.L_random v) -> Printf.sprintf "replay %Ld" v
  | Some _ -> "replay ?"
  | None -> "live"

let wprog_world steps =
  let w = World.create () in
  let state = Array.make wprog_pids `Unspawned in
  let logical = Array.make wprog_pids 0 and logs = Array.make wprog_pids World.not_cloneable in
  let out = Buffer.create 256 in
  let live p = state.(p) = `Live in
  let step = function
    | W_spawn (p, c) ->
      if state.(p) = `Unspawned then begin
        state.(p) <- `Live;
        logical.(p) <- p;
        logs.(p) <- (if c then World.fresh () else World.not_cloneable)
      end
    | W_split (p, c) ->
      if live p && World.cloneable logs.(p) && state.(c) = `Unspawned then begin
        state.(c) <- `Live;
        logical.(c) <- logical.(p);
        logs.(c) <- World.clone logs.(p);
        World.split w ~logical:(Pid.of_int logical.(p)) (Pid.of_int c)
      end
    | W_die p ->
      if live p then begin
        state.(p) <- `Dead;
        World.remove w (Pid.of_int p) ~logical:(Pid.of_int logical.(p))
      end
    | W_record (p, v) ->
      if live p && World.logging logs.(p) then
        World.record logs.(p) (World.L_random (Int64.of_int v))
    | W_replay p ->
      if live p then Printf.bprintf out "%d %s; " p (show_entry (World.replay_next logs.(p)))
    | W_disable p -> if live p then logs.(p) <- World.not_cloneable
    | W_reset ->
      World.reset w;
      Array.fill state 0 wprog_pids `Unspawned
  in
  List.iter
    (fun s ->
      step s;
      Printf.bprintf out "\n%s\nlogging%s\n"
        (show_copies (fun l -> List.map Pid.to_int (World.copies w (Pid.of_int l))))
        (String.concat ""
           (List.init wprog_pids (fun p ->
                if live p && World.logging logs.(p) then Printf.sprintf " %d" p else ""))))
    steps;
  Buffer.contents out

type wproc = {
  wpid : int;
  wlogical : int;
  mutable wlive : bool;
  mutable cloneable : bool;
  mutable entries : int list;  (** newest first *)
  mutable replay : int list;
}

let wprog_model steps =
  let procs = ref [] in
  let split = Array.make wprog_pids false in
  let out = Buffer.create 256 in
  let find p = List.find_opt (fun q -> q.wpid = p) !procs in
  let spawn p l cloneable entries =
    procs :=
      !procs
      @ [ { wpid = p; wlogical = l; wlive = true; cloneable; entries; replay = List.rev entries } ]
  in
  let step = function
    | W_spawn (p, c) -> if find p = None then spawn p p c []
    | W_split (p, c) -> (
      match find p with
      | Some q when q.wlive && q.cloneable && find c = None ->
        spawn c q.wlogical true q.entries;
        split.(q.wlogical) <- true
      | _ -> ())
    | W_die p -> Option.iter (fun q -> q.wlive <- false) (find p)
    | W_record (p, v) -> (
      match find p with
      | Some q when q.wlive && q.cloneable && q.replay = [] -> q.entries <- v :: q.entries
      | _ -> ())
    | W_replay p -> (
      match find p with
      | Some q when q.wlive ->
        Printf.bprintf out "%d %s; " p
          (match q.replay with
          | [] -> "live"
          | v :: rest ->
            q.replay <- rest;
            Printf.sprintf "replay %d" v)
      | _ -> ())
    | W_disable p -> (
      match find p with
      | Some q when q.wlive ->
        q.cloneable <- false;
        q.entries <- [];
        q.replay <- []
      | _ -> ())
    | W_reset ->
      procs := [];
      Array.fill split 0 wprog_pids false
  in
  List.iter
    (fun s ->
      step s;
      Printf.bprintf out "\n%s\nlogging%s\n"
        (show_copies (fun l ->
             if split.(l) then
               List.filter_map
                 (fun q -> if q.wlive && q.wlogical = l then Some q.wpid else None)
                 !procs
             else []))
        (String.concat ""
           (List.map
              (fun q -> if q.wlive && q.cloneable && q.replay = [] then Printf.sprintf " %d" q.wpid else "")
              (List.sort (fun a b -> compare a.wpid b.wpid) !procs))))
    steps;
  Buffer.contents out

let prop_world_model =
  QCheck.Test.make ~name:"model: worlds over a plain list" ~count:500
    (QCheck.make ~print:(fun s -> String.concat "\n" (List.map wstep_to_string s)) wprog_gen)
    (fun steps ->
      let world = wprog_world steps and model = wprog_model steps in
      world = model || QCheck.Test.fail_reportf "world:@.%s@.model:@.%s" world model)

(* The fate model. Up to 6 processes, pids [0 .. n - 1], each holding a
   generated predicate over those pids (itself included) and ending at
   its own virtual time: ok, by abort, by crash, or never (parked on a
   receive). Every pid's resolution and certainty is probed before the
   run and at each half time, and a process's resolution again from its
   exit watcher, just before its fate is decided. The reference is a plain
   list settled to a fixpoint after each ending. Both report every fate
   and exit, the dead-world kills, each watcher's outcomes with their
   times, the [certain_of] probes and the live count at quiescence. *)
type fend = F_ok | F_abort | F_crash | F_hang

type fprog = {
  fpreds : (int list * int list) array;  (** per pid: completes, fails *)
  fends : (int * fend) array;  (** per pid: end time, ending *)
}

(* End times are distinct integers up to this; probes run at every half
   time up to it, the last one at quiescence. *)
let fprog_horizon = 12

let fprog_to_string p =
  String.concat "\n"
    (List.mapi
       (fun u q ->
         Printf.sprintf "pid %d %s %s" u (rpred_to_string q)
           (match p.fends.(u) with
           | _, F_hang -> "hangs"
           | t, e ->
             Printf.sprintf "%s at t=%d"
               (match e with F_ok -> "ok" | F_abort -> "aborts" | _ -> "crashes")
               t))
       (Array.to_list p.fpreds))

let fprog_gen =
  let open QCheck.Gen in
  int_range 1 6 >>= fun n ->
  flatten_l (List.init n (fun u -> pred_gen n ~self:u)) >>= fun preds ->
  shuffle_l (List.init fprog_horizon (fun i -> i + 1)) >>= fun times ->
  flatten_l
    (List.init n (fun _ ->
         frequency
           [
             (5, return F_ok); (2, return F_abort); (1, return F_crash); (1, return F_hang);
           ]))
  >|= fun ends ->
  {
    fpreds = Array.of_list preds;
    fends = Array.of_list (List.mapi (fun u e -> (List.nth times u, e)) ends);
  }

let fevent u why t = Printf.sprintf "%d %s@%g" u why t

let fout_to_string o t =
  Printf.sprintf " %s@%g" (match o with `Certain -> "certain" | `Dead -> "dead") t

let fprog_report ~fates ~exits ~kills ~watches ~certain ~live =
  String.concat "\n"
    ([ "fates " ^ fates; "exits " ^ exits;
       "kills " ^ String.concat " " (List.sort compare kills) ]
    @ List.sort compare
        (List.map (fun (w, outs) -> w ^ ":" ^ String.concat "" !outs) watches)
    @ List.rev certain
    @ [ Printf.sprintf "live %d" live ])

let fprog_engine p =
  let n = Array.length p.fpreds in
  let eng = Engine.create () in
  let pids = Engine.fresh_pids eng n in
  let watches = ref [] and certain = ref [] in
  let watch why u =
    let outs = ref [] in
    watches := (fevent u why (Engine.now eng), outs) :: !watches;
    Engine.on_resolution eng pids.(u) (fun o ->
        outs := !outs @ [ fout_to_string o (Engine.now eng) ])
  in
  let probe () =
    for u = 0 to n - 1 do
      watch "probe" u
    done;
    certain :=
      Printf.sprintf "certain_of@%g %s" (Engine.now eng)
        (String.concat ""
           (List.init n (fun u -> if Engine.certain_of eng pids.(u) then "1" else "0")))
      :: !certain
  in
  Array.iteri
    (fun u pid ->
      let c, f = p.fpreds.(u) in
      let predicate =
        Predicate.make ~must_complete:(List.map (Array.get pids) c)
          ~must_fail:(List.map (Array.get pids) f)
      in
      ignore
        (Engine.spawn eng ~pid ~predicate (fun ctx ->
             match p.fends.(u) with
             | _, F_hang -> ignore (Engine.receive ctx ~tag:"never" ())
             | t, e -> (
               Engine.delay ctx (float_of_int t);
               match e with
               | F_abort -> Engine.abort ctx "aborts"
               | F_crash -> failwith "crashes"
               | _ -> ())));
      Engine.on_exit eng pid (fun _ -> watch "exit" u))
    pids;
  probe ();
  for h = 0 to fprog_horizon do
    Engine.after eng ~delay:(float_of_int h +. 0.5) probe
  done;
  Engine.run eng;
  let letters f = String.concat "" (Array.to_list (Array.map f pids)) in
  fprog_report
    ~fates:
      (letters (fun pid ->
           match Fate_registry.fate (Engine.registry eng) pid with
           | Some Predicate.Completed -> "C"
           | Some Predicate.Failed -> "F"
           | None -> "?"))
    ~exits:
      (letters (fun pid ->
           match Engine.status eng pid with
           | None -> "-"
           | Some Engine.Exited_ok -> "o"
           | Some (Engine.Exited_failed _) -> "a"
           | Some (Engine.Crashed _) -> "c"
           | Some (Engine.Eliminated _) -> "e"))
    ~kills:
      (List.filter_map
         (function
           | t, Trace.Killed { pid; reason = "dead world" } ->
             Some (fevent (Pid.to_int pid) "killed" t)
           | _ -> None)
         (Trace.events (Engine.trace eng)))
    ~watches:!watches ~certain:!certain ~live:(Engine.live_count eng)

let fprog_model p =
  let n = Array.length p.fpreds in
  let fate = Array.make n None in
  (* '-' live, 'o' exited ok, 'a' aborted, 'c' crashed, 'e' eliminated *)
  let exit = Array.make n '-' in
  let kills = ref [] in
  let watches = ref [] and certain = ref [] and waiting = ref [] in
  (* What is decided about [u]'s world: its fate, or else its predicate
     against every fate, less its own completion once it exited ok. *)
  let resolution u =
    match fate.(u) with
    | Some `C -> `Certain
    | Some `F -> `Dead
    | None ->
      let c, f = p.fpreds.(u) in
      let c = if exit.(u) = 'o' then List.filter (( <> ) u) c else c in
      if
        List.exists (fun v -> fate.(v) = Some `F) c
        || List.exists (fun v -> fate.(v) = Some `C) f
      then `Dead
      else if List.for_all (fun v -> fate.(v) <> None) (c @ f) then `Certain
      else `Pending
  in
  let watch why u t =
    let outs = ref [] in
    watches := (fevent u why t, outs) :: !watches;
    waiting := (u, outs) :: !waiting
  in
  (* Fire every waiting watcher whose pid is decided now. *)
  let fire t =
    waiting :=
      List.filter
        (fun (u, outs) ->
          match resolution u with
          | `Pending -> true
          | (`Certain | `Dead) as o ->
            outs := [ fout_to_string o t ];
            false)
        !waiting
  in
  (* Kill the live processes whose predicate is falsified and settle the
     ones that exited ok, until nothing changes. *)
  let rec settle t =
    let changed = ref false in
    for u = 0 to n - 1 do
      if fate.(u) = None then
        match (exit.(u), resolution u) with
        | '-', `Dead ->
          exit.(u) <- 'e';
          fate.(u) <- Some `F;
          kills := fevent u "killed" t :: !kills;
          watch "exit" u t;
          changed := true
        | 'o', ((`Certain | `Dead) as o) ->
          fate.(u) <- Some (if o = `Certain then `C else `F);
          changed := true
        | _ -> ()
    done;
    if !changed then settle t
  in
  let probe t =
    for u = 0 to n - 1 do
      watch "probe" u t
    done;
    fire t;
    certain :=
      Printf.sprintf "certain_of@%g %s" t
        (String.concat ""
           (List.init n (fun u -> if resolution u = `Certain then "1" else "0")))
      :: !certain
  in
  probe 0.;
  for h = 0 to fprog_horizon do
    let t = float_of_int h in
    Array.iteri
      (fun u (e, ending) ->
        if e = h && exit.(u) = '-' && ending <> F_hang then begin
          watch "exit" u t;
          exit.(u) <- (match ending with F_ok -> 'o' | F_abort -> 'a' | _ -> 'c');
          (* Completing falsifies an assumption of its own failure. *)
          if ending <> F_ok || List.mem u (snd p.fpreds.(u)) then fate.(u) <- Some `F
        end)
      p.fends;
    settle t;
    fire t;
    probe (t +. 0.5)
  done;
  fprog_report
    ~fates:
      (String.concat ""
         (Array.to_list
            (Array.map (function Some `C -> "C" | Some `F -> "F" | None -> "?") fate)))
    ~exits:(String.init n (fun u -> exit.(u)))
    ~kills:!kills ~watches:!watches ~certain:!certain
    ~live:(Array.fold_left (fun k x -> if x = '-' then k + 1 else k) 0 exit)

let prop_fate_model =
  QCheck.Test.make ~name:"model: fates over a plain list" ~count:500
    (QCheck.make ~print:fprog_to_string fprog_gen)
    (fun p ->
      let engine = fprog_engine p and model = fprog_model p in
      engine = model
      || QCheck.Test.fail_reportf "engine:@.%s@.model:@.%s" engine model)

let test_deferred_fate_resolution () =
  (* A process that exits ok while assuming another completes gets its fate
     recorded only when that other resolves. *)
  let eng = Engine.create ~trace:true () in
  let pids = Array.to_list (Engine.fresh_pids eng 1) in
  let dep = List.hd pids in
  let waiter =
    Engine.spawn eng
      ~predicate:(Predicate.make ~must_complete:[ dep ] ~must_fail:[])
      (fun ctx -> Engine.delay ctx 1.)
  in
  ignore (Engine.spawn eng ~pid:dep (fun ctx -> Engine.delay ctx 5.));
  Engine.run eng;
  check Alcotest.bool "waiter completed after dep" true
    (Fate_registry.fate (Engine.registry eng) waiter = Some Predicate.Completed);
  let deferred =
    Trace.count (Engine.trace eng) ~f:(function
      | Trace.Fate_deferred p -> Pid.equal p waiter
      | _ -> false)
  in
  check Alcotest.int "fate was deferred first" 1 deferred

let test_dead_world_cascade () =
  (* c assumes b completes; b assumes a completes; a fails: both die. *)
  let eng = mk () in
  let pids = Array.to_list (Engine.fresh_pids eng 3) in
  let a = List.nth pids 0 and b = List.nth pids 1 and c = List.nth pids 2 in
  ignore
    (Engine.spawn eng ~pid:c
       ~predicate:(Predicate.make ~must_complete:[ b ] ~must_fail:[])
       (fun ctx -> Engine.delay ctx 100.));
  ignore
    (Engine.spawn eng ~pid:b
       ~predicate:(Predicate.make ~must_complete:[ a ] ~must_fail:[])
       (fun ctx -> Engine.delay ctx 100.));
  ignore
    (Engine.spawn eng ~pid:a (fun ctx ->
         Engine.delay ctx 1.;
         Engine.abort ctx "a fails"));
  Engine.run eng;
  (match Engine.status eng b with
  | Some (Engine.Eliminated _) -> ()
  | _ -> Alcotest.fail "b should be eliminated");
  (match Engine.status eng c with
  | Some (Engine.Eliminated _) -> ()
  | _ -> Alcotest.fail "c should be eliminated");
  check cf "cascade happened at a's failure" 1. (Engine.now eng)

let test_on_resolution_hooks () =
  let eng = mk () in
  let pids = Array.to_list (Engine.fresh_pids eng 1) in
  let dep = List.hd pids in
  let outcome_ok = ref None and outcome_dead = ref None in
  let certain_p =
    Engine.spawn eng
      ~predicate:(Predicate.make ~must_complete:[ dep ] ~must_fail:[])
      (fun ctx -> Engine.delay ctx 10.)
  in
  let dead_p =
    Engine.spawn eng
      ~predicate:(Predicate.make ~must_complete:[] ~must_fail:[ dep ])
      (fun ctx -> Engine.delay ctx 10.)
  in
  Engine.on_resolution eng certain_p (fun o -> outcome_ok := Some o);
  Engine.on_resolution eng dead_p (fun o -> outcome_dead := Some o);
  ignore (Engine.spawn eng ~pid:dep (fun ctx -> Engine.delay ctx 1.));
  Engine.run eng;
  check Alcotest.bool "certain hook" true (!outcome_ok = Some `Certain);
  check Alcotest.bool "dead hook" true (!outcome_dead = Some `Dead)

(* Regression: [on_resolution] on an already decided pid put the watcher
   on a list nothing read again: a certain process that exited ok, and
   one whose deferred fate then completed. *)
let test_on_resolution_when_decided () =
  let eng = mk () in
  let dep = (Engine.fresh_pids eng 1).(0) in
  let certain = Engine.spawn eng (fun ctx -> Engine.delay ctx 1.) in
  let deferred =
    Engine.spawn eng ~predicate:(assumes [ dep ]) (fun ctx -> Engine.delay ctx 1.)
  in
  ignore (Engine.spawn eng ~pid:dep (fun ctx -> Engine.delay ctx 5.));
  Engine.run eng;
  check Alcotest.bool "the deferred one is certain" true (Engine.certain_of eng deferred);
  List.iter
    (fun pid ->
      let got = ref [] in
      Engine.on_resolution eng pid (fun o -> got := o :: !got);
      check Alcotest.bool "fires at once" true (!got = [ `Certain ]))
    [ certain; deferred ]

(* Regression: an ok exit of a process that assumed its own failure left
   its fate undecided for ever and its watcher unfired. Its world cannot
   exist, so it settles as a dead one. *)
let test_exit_assuming_own_failure () =
  let eng = mk () in
  let self = (Engine.fresh_pids eng 1).(0) in
  let got = ref [] in
  ignore
    (Engine.spawn eng ~pid:self ~predicate:(assumes [] ~fail:[ self ]) (fun ctx ->
         Engine.delay ctx 1.));
  Engine.on_resolution eng self (fun o -> got := o :: !got);
  Engine.run eng;
  check Alcotest.bool "failed" true
    (Fate_registry.fate (Engine.registry eng) self = Some Predicate.Failed);
  check Alcotest.bool "told dead" true (!got = [ `Dead ])

let test_random_bits_logged_deterministic () =
  let run_once () =
    let eng = Engine.create ~seed:123 ~trace:false () in
    let vals = ref [] in
    ignore
      (Engine.spawn eng (fun ctx ->
           for _ = 1 to 5 do
             vals := Engine.random_bits ctx :: !vals
           done));
    Engine.run eng;
    !vals
  in
  check Alcotest.bool "deterministic across runs" true (run_once () = run_once ())

let test_parked_pids_at_quiescence () =
  let eng = mk () in
  let stuck = Engine.spawn eng (fun ctx -> ignore (Engine.receive ctx ())) in
  Engine.run eng;
  check Alcotest.(list int) "stuck receiver visible"
    [ Pid.to_int stuck ]
    (List.map Pid.to_int (Engine.parked_pids eng))

(* ---------------- Ordering contracts ----------------
   Orders the engine promises whatever its tables look like inside; the
   digests depend on them. Pre-allocated pids are spawned in descending
   order, so an insertion-ordered table would get each one wrong. *)

let test_cpu_ties_resume_by_pid () =
  let eng = mk () in
  let pids = Array.to_list (Engine.fresh_pids eng 4) in
  let order = ref [] in
  List.iter
    (fun pid ->
      ignore
        (Engine.spawn eng ~pid (fun ctx ->
             Engine.delay ctx 1.;
             order := (Engine.self ctx, Engine.now_v ctx) :: !order)))
    (List.rev pids);
  Engine.run eng;
  check Alcotest.(list int) "ascending pid order" (List.map Pid.to_int pids)
    (List.rev_map (fun (p, _) -> Pid.to_int p) !order);
  List.iter (fun (_, at) -> check cf "one tick, at 1s" 1. at) !order

let test_sweep_kills_by_pid () =
  let eng = Engine.create ~trace:true () in
  let dep, victims =
    match Array.to_list (Engine.fresh_pids eng 5) with d :: vs -> (d, vs) | [] -> assert false
  in
  List.iter
    (fun pid ->
      ignore
        (Engine.spawn eng ~pid
           ~predicate:(Predicate.make ~must_complete:[ dep ] ~must_fail:[])
           (fun ctx -> Engine.delay ctx 100.)))
    (List.rev victims);
  ignore
    (Engine.spawn eng ~pid:dep (fun ctx ->
         Engine.delay ctx 1.;
         Engine.abort ctx "dep fails"));
  Engine.run eng;
  let killed =
    List.filter_map
      (fun (_, e) ->
        match e with
        | Trace.Killed { pid; reason = "dead world" } -> Some (Pid.to_int pid)
        | _ -> None)
      (Trace.events (Engine.trace eng))
  in
  check Alcotest.(list int) "dead-world kills in pid order"
    (List.map Pid.to_int victims) killed

let test_children_and_parked_sorted () =
  let eng = mk () in
  let root = Engine.spawn eng (fun _ -> ()) in
  let kids = Array.to_list (Engine.fresh_pids eng 4) in
  (match kids with
  | [ a; b; c; d ] ->
    List.iter
      (fun pid ->
        ignore
          (Engine.spawn eng ~pid ~parent:root (fun ctx ->
               ignore (Engine.receive ctx ()))))
      [ c; a; d; b ]
  | _ -> assert false);
  Engine.run eng;
  let ints = List.map Pid.to_int in
  check Alcotest.(list int) "children_of sorted" (ints kids)
    (ints (Engine.children_of eng root));
  check Alcotest.(list int) "parked_pids sorted" (ints kids)
    (ints (Engine.parked_pids eng))

(* [dep] completes; the sweep this triggers finds [w] certain and fires
   its resolution watcher, which spawns the pre-allocated [late] (a pid
   above [w], still ahead of the sweep's cursor) assuming [dep]
   completes. [late] was not alive when the round began, so the round
   leaves its predicate alone: it starts with [{+dep}] unsimplified. *)
let test_sweep_skips_processes_it_spawns () =
  let eng = mk () in
  let dep, w, late =
    match Array.to_list (Engine.fresh_pids eng 3) with
    | [ a; b; c ] -> (a, b, c)
    | _ -> assert false
  in
  let on_dep = Predicate.make ~must_complete:[ dep ] ~must_fail:[] in
  let seen = ref None in
  ignore (Engine.spawn eng ~pid:w ~predicate:on_dep (fun ctx -> Engine.delay ctx 10.));
  Engine.on_resolution eng w (fun _ ->
      ignore
        (Engine.spawn eng ~pid:late ~predicate:on_dep (fun ctx ->
             seen := Some (Engine.my_predicate ctx))));
  ignore (Engine.spawn eng ~pid:dep (fun ctx -> Engine.delay ctx 1.));
  Engine.run eng;
  match !seen with
  | Some p ->
    check Alcotest.string "not visited by the spawning round"
      (Predicate.to_string on_dep) (Predicate.to_string p)
  | None -> Alcotest.fail "late never ran"

(* ---------------- The running register ----------------

   One handler serves every body of an engine and reads whose fiber it
   serves from the engine's running register, which a fiber sets just
   before it parks, returns or raises. A fiber run from inside another
   body (a fill's waiter, a kill's victim) must not leave its value to
   the outer one: the outer body's later park, exit or crash is still
   its own. Each case checks every pid's exit status and its [Exited]
   and [Fate] events. *)

(* A pid's [Exited] statuses and [Fate]s, in trace order. *)
let endings eng pid =
  List.filter_map
    (fun (_, e) ->
      match e with
      | Trace.Exited { pid = p; status } when Pid.equal p pid -> Some ("exited " ^ status)
      | Trace.Fate { pid = p; fate = Predicate.Completed } when Pid.equal p pid ->
        Some "completed"
      | Trace.Fate { pid = p; fate = Predicate.Failed } when Pid.equal p pid ->
        Some "failed"
      | _ -> None)
    (Trace.events (Engine.trace eng))

let status_text = function
  | Engine.Exited_ok -> "ok"
  | Engine.Exited_failed r -> "failed: " ^ r
  | Engine.Crashed r -> "crashed: " ^ r
  | Engine.Eliminated r -> "eliminated: " ^ r

(* [expected] opens with the pid's exit, which its status must match. *)
let check_endings eng pid expected =
  let what = Format.asprintf "%a" Pid.pp pid in
  check Alcotest.(list string) ("endings of " ^ what) expected (endings eng pid);
  check Alcotest.(option string) ("status of " ^ what)
    (Some (List.hd expected))
    (Option.map (fun s -> "exited " ^ status_text s) (Engine.status eng pid))

(* A waiter parked on an ivar, and a filler that fills it at t = 1 (the
   waiter then runs [after] inside the filler's [try_fill]), then parks on
   the CPU and exits. *)
let test_fill_wakes_waiter after expected ~clock () =
  let eng = mk ~trace:true () in
  let iv = Engine.Ivar.create () in
  let waiter =
    Engine.spawn eng ~name:"waiter" (fun ctx ->
        ignore (Engine.Ivar.read ctx iv);
        after ctx)
  in
  let filler =
    Engine.spawn eng ~name:"filler" (fun ctx ->
        Engine.delay ctx 1.;
        ignore (Engine.Ivar.try_fill iv 1);
        Engine.delay ctx 1.)
  in
  Engine.run eng;
  check_endings eng waiter expected;
  check_endings eng filler [ "exited ok"; "completed" ];
  check cf "clock" clock (Engine.now eng)

let waiter_exits = ignore
let waiter_crashes _ = failwith "boom"
let waiter_parks ctx = Engine.delay ctx 2.

(* A victim parked in a receive is killed at t = 1 by [kill]; a
   bystander parks across the kill and exits at t = 3. *)
let test_kill_parked kill () =
  let eng = mk ~trace:true () in
  let victim = Engine.spawn eng ~name:"victim" (fun ctx -> ignore (Engine.receive ctx ())) in
  let bystander =
    Engine.spawn eng ~name:"bystander" (fun ctx ->
        Engine.delay ctx 1.;
        Engine.delay ctx 2.)
  in
  let killer = kill eng victim in
  Engine.run eng;
  check_endings eng victim [ "exited eliminated: cut"; "failed" ];
  check_endings eng bystander [ "exited ok"; "completed" ];
  Option.iter (fun k -> check_endings eng k [ "exited ok"; "completed" ]) killer;
  check cf "clock" 3. (Engine.now eng)

(* The killer parks before and after the kill. *)
let kill_from_body eng victim =
  Some
    (Engine.spawn eng ~name:"killer" (fun ctx ->
         Engine.delay ctx 1.;
         Engine.kill eng victim ~reason:"cut";
         Engine.delay ctx 1.))

let kill_from_after eng victim =
  Engine.after eng ~delay:1. (fun () -> Engine.kill eng victim ~reason:"cut");
  None

(* A receiver splits on a speculative sender's message; its rejecting
   clone replays the receiver's delay from the log, then parks live on a
   receive and a delay of its own. The sender fails, so the clone's world
   is the one that completes. *)
let test_clone_replays_parks () =
  let eng = mk ~trace:true () in
  let spec = (Engine.fresh_pids eng 1).(0) in
  let recv =
    Engine.spawn eng ~name:"recv" (fun ctx ->
        Engine.delay ctx 0.5;
        ignore (Engine.receive ctx ());
        Engine.delay ctx 1.)
  in
  ignore
    (Engine.spawn eng ~pid:spec
       ~predicate:(Predicate.make ~must_complete:[ spec ] ~must_fail:[])
       (fun ctx ->
         Engine.delay ctx 1.;
         Engine.send ctx recv (Payload.int 1);
         Engine.delay ctx 4.;
         Engine.abort ctx "spec fails"));
  let later =
    Engine.spawn eng ~name:"later" (fun ctx ->
        Engine.delay ctx 2.;
        Engine.send ctx recv (Payload.int 2))
  in
  Engine.run eng;
  let clone =
    match
      List.filter_map
        (fun (_, e) -> match e with Trace.Split { clone; _ } -> Some clone | _ -> None)
        (Trace.events (Engine.trace eng))
    with
    | [ c ] -> c
    | l -> Alcotest.failf "expected one split, got %d" (List.length l)
  in
  check_endings eng recv [ "exited ok"; "failed" ];
  check_endings eng clone [ "exited ok"; "completed" ];
  check_endings eng spec [ "exited failed: spec fails"; "failed" ];
  check_endings eng later [ "exited ok"; "completed" ]

(* ---------------- Reset ----------------

   [Engine.reset] must leave nothing a fresh engine would not have. An
   engine is dirtied first: a site topology and fault plan (every message
   delayed, a site crash still queued), an attached sanitizer, an extra
   trace subscriber that notes every start, a process parked with a
   pending deadline, CPU tasks still running, a fate deferred on a live
   process, a split world and written pages. Its pid 0 crashes, so a
   stale fate table would refuse the completion of the next run's pid 0.
   Reset, it then runs the same program as a fresh engine made with the
   same seed; everything either engine can report must agree. *)

let reset_cores = Engine.Cores 2

let dirty ~trace eng =
  let sites = Sites.create eng ~names:[ "s0"; "s1" ] in
  Faultplan.install ~sites
    (Faultplan.make ~seed:3
       [ Faultplan.message (Faultplan.Delay 0.25); Faultplan.crash_site ~at:100. "s1" ])
    eng;
  ignore (Sanitizer.attach eng);
  let tr = Engine.trace eng in
  ignore
    (Trace.subscribe tr Trace.Kind.started (fun _ ->
         Trace.record tr ~time:(Trace.now tr) (Trace.Note "stale subscriber")));
  ignore (Engine.spawn eng ~name:"crasher" (fun _ -> failwith "dirty"));
  ignore
    (Engine.spawn eng ~name:"sleeper" (fun ctx ->
         ignore (Engine.receive_timeout ctx ~timeout:1000. ())));
  ignore (Engine.spawn eng ~name:"hog" (fun ctx -> Engine.delay ctx 500.));
  ignore (Engine.spawn eng ~name:"hog" (fun ctx -> Engine.delay ctx 300.));
  let dep, spec =
    match Array.to_list (Engine.fresh_pids eng 2) with [ a; b ] -> (a, b) | _ -> assert false
  in
  ignore (Engine.spawn eng ~pid:dep ~name:"dep" (fun ctx -> Engine.delay ctx 400.));
  ignore
    (Engine.spawn eng ~name:"hopeful"
       ~predicate:(Predicate.make ~must_complete:[ dep ] ~must_fail:[])
       ignore);
  let recv =
    Engine.spawn eng ~name:"recv" (fun ctx ->
        ignore (Engine.receive ctx ());
        Engine.delay ctx 200.)
  in
  ignore
    (Engine.spawn eng ~pid:spec ~name:"spec"
       ~predicate:(Predicate.make ~must_complete:[ spec ] ~must_fail:[])
       (fun ctx ->
         Engine.send ctx recv (Payload.int 1);
         Engine.delay ctx 200.));
  let space = Address_space.create (Engine.frame_store eng) (Engine.model eng) in
  Address_space.set_int space ~addr:0 1;
  Address_space.set_int (Address_space.fork space) ~addr:0 2;
  Engine.run_for eng 5.;
  (* The dirt this test is about. *)
  assert (Engine.parked_pids eng <> []);
  assert (Engine.live_count eng > 0);
  assert (Trace.count tr ~f:(function Trace.Split _ -> true | _ -> false) > 0
          || not trace)

(* The program both engines run: CPU sharing over two cores, tagged
   traffic past a foreign-tag message, a timed receive whose deadline
   fires, a random draw, a split world whose sender fails, and a forked
   space written copy-on-write. It returns what the bodies and the exit
   watchers saw, in order. *)
let replay_program eng =
  let seen = ref [] in
  let note fmt = Printf.ksprintf (fun s -> seen := s :: !seen) fmt in
  let watch pid =
    Engine.on_exit eng pid (fun st ->
        note "%s %s @%g" (Pid.to_string pid) (status_text st) (Engine.now eng))
  in
  let root =
    Engine.spawn eng ~name:"root" (fun ctx ->
        Engine.delay ctx 1.;
        note "rng %Ld" (Engine.random_bits ctx))
  in
  let workers =
    List.init 3 (fun i ->
        Engine.spawn eng ~name:"worker" (fun ctx -> Engine.delay ctx (float_of_int (i + 1))))
  in
  let server =
    Engine.spawn eng ~name:"server" (fun ctx ->
        let m = Engine.receive ctx ~tag:"req" () in
        Engine.send ctx ~tag:"rep" m.Message.sender
          (Payload.int (Payload.get_int m.Message.payload + 1));
        match Engine.receive_timeout ctx ~tag:"never" ~timeout:2. () with
        | None -> note "server timed out @%g" (Engine.now_v ctx)
        | Some _ -> note "server heard never")
  in
  let client =
    Engine.spawn eng ~name:"client" (fun ctx ->
        Engine.send ctx ~tag:"noise" server (Payload.int 0);
        Engine.send ctx ~tag:"req" server (Payload.int 41);
        let m = Engine.receive ctx ~tag:"rep" () in
        note "client got %d" (Payload.get_int m.Message.payload))
  in
  let spec = (Engine.fresh_pids eng 1).(0) in
  let recv =
    Engine.spawn eng ~name:"recv" (fun ctx ->
        let m = Engine.receive ctx () in
        Engine.delay ctx 0.5;
        note "%s took %d" (Pid.to_string (Engine.self ctx))
          (Payload.get_int m.Message.payload))
  in
  ignore
    (Engine.spawn eng ~pid:spec ~name:"spec"
       ~predicate:(Predicate.make ~must_complete:[ spec ] ~must_fail:[])
       (fun ctx ->
         Engine.delay ctx 0.5;
         Engine.send ctx recv (Payload.int 7);
         Engine.delay ctx 1.;
         Engine.abort ctx "spec fails"));
  let space = Address_space.create (Engine.frame_store eng) (Engine.model eng) in
  Address_space.set_int space ~addr:0 5;
  let pager =
    Engine.spawn eng ~space:(Address_space.fork space) ~name:"pager" (fun ctx ->
        match Engine.space ctx with
        | Some sp ->
          Address_space.set_int sp ~addr:0 9;
          Engine.charge_memory ctx
        | None -> ())
  in
  List.iter watch ((root :: workers) @ [ server; client; recv; spec; pager ]);
  Engine.run eng;
  List.rev !seen

(* Everything an engine reports after [replay_program], as lines. *)
let replay_observation eng =
  let report = replay_program eng in
  let store = Engine.frame_store eng in
  report
  @ [
      Printf.sprintf "now %h" (Engine.now eng);
      Printf.sprintf "events %d" (Engine.stats_events_processed eng);
      Printf.sprintf "scanned %d" (Engine.stats_mailbox_scanned eng);
      Printf.sprintf "live %d" (Engine.live_count eng);
      Printf.sprintf "parked %s"
        (String.concat "," (List.map Pid.to_string (Engine.parked_pids eng)));
      Printf.sprintf "frames %d allocs %d cow %d next map %d"
        (Frame_store.live_frames store)
        (Frame_store.total_allocations store)
        (Frame_store.cow_copies store)
        (Frame_store.fresh_map_id store);
    ]
  @ List.init 32 (fun i ->
        Printf.sprintf "cpu P%d %h" i (Engine.cpu_time_of eng (Pid.of_int i)))
  @ [ Trace.to_jsonl (Engine.trace eng) ]

let test_reset_replays_fresh () =
  List.iter
    (fun trace ->
      let model = Cost_model.att_3b2 and seed = 17 in
      let reused = Engine.create ~cores:reset_cores ~model ~seed:5 ~trace () in
      dirty ~trace reused;
      Engine.reset reused ~seed;
      let fresh = Engine.create ~cores:reset_cores ~model ~seed ~trace () in
      check
        Alcotest.(list string)
        (Printf.sprintf "trace %b: reset = fresh" trace)
        (replay_observation fresh) (replay_observation reused))
    [ true; false ]

(* ---------------- Allocation budget ----------------

   Words per operation ([Alloc_words]: minor plus direct major words) on
   a warm engine (its handler built, its tables grown by a first run of
   the same shape and then reset, so that pids handed out afresh grow no
   table): a CPU park, a message
   hop (a send and the parked receive it wakes), a spawn-to-exit, and a
   send to a destination never sent to (with its receiver's spawn to
   exit). A park allocates its park record and the runtime's
   continuation and nothing else: the clock and the park's time operand
   are unboxed cells, and a tick hands its finished parks back through a
   reused buffer. A spawn allocates its pcb, which is also its bodies'
   context; its start is a constant event keyed by its pid, and its
   mailbox is built at the first delivery it is not handed. A send
   allocates its message and nothing else: the event queue holds the
   message itself, and its FIFO clock is a slot of the engine's one
   table. A receiver parked with an empty mailbox is handed a certain
   message, so a hop builds no ring. An exit runs its watchers and
   decides its own fate without building a closure, a state cell or a
   fate cell. The ceilings sit about 5% above the measured figures (5.0
   / 13.0 / 27.0 / 41.0 words with OCaml 5.1.1; 15.1 / 29.0 / 64.1 for
   the last three with a [Deliver] box per send, two clock fields per
   pcb and a clock table per sender), and below what a boxed clock and
   time operand and a tick's list (12.0 / 17.1 / 46.0 / 77.1 words), a handler
   built per start (+19 a spawn), a closure per exit for its watcher loop
   and its fate (+15 a spawn), a world-copy list per spawn and a settle
   closure per sweep round (+10 a spawn), a park effect or closure built
   per park (+5 or +8 a park), a replay-log entry built for an unlogged
   process (+2 a park or a receive), a channel object per (sender, dest)
   pair (+41 a fresh destination) or a five-word delivery-batch record
   per send (+3 a hop) would cost. *)

let words_per ~n op =
  let eng = mk () in
  op eng n;
  Engine.reset eng ~seed:42;
  Alloc_words.of_run (fun () -> op eng n) /. float_of_int n

let cpu_parks eng n =
  ignore
    (Engine.spawn eng ~cloneable:false (fun ctx ->
         for _ = 1 to n do
           Engine.delay ctx 1.
         done));
  Engine.run eng

let one = Payload.int 1

(* [n] hops between two processes that only receive and reply. *)
let message_hops eng n =
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

let spawns eng n =
  for _ = 1 to n do
    ignore (Engine.spawn eng ~cloneable:false ignore);
    Engine.run eng
  done

(* One sender and [n] fresh receivers, one message each: per receiver, a
   spawn to exit, a receive and a send to a destination never sent to. *)
let fresh_dests eng n =
  let sink ctx = ignore (Engine.receive ctx ()) in
  let dests = Array.init n (fun _ -> Engine.spawn eng ~cloneable:false sink) in
  ignore
    (Engine.spawn eng ~cloneable:false (fun ctx ->
         Array.iter (fun d -> Engine.send ctx d one) dests));
  Engine.run eng

(* A decided fate sweeps every live process. A certain predicate needs no
   normalising, so the live processes parked on a receive cost a fate no
   words: spawn-to-exit is measured on a warm engine with none and with
   [live] of them. *)
let sweep_words_per_live ~predicate =
  let live = 500 and n = 200 in
  let spawn_words ~live =
    let eng = mk () in
    let predicate = predicate eng in
    for _ = 1 to live do
      ignore
        (Engine.spawn eng ~cloneable:false ~predicate (fun ctx ->
             ignore (Engine.receive ctx ())))
    done;
    spawns eng 64;
    Alloc_words.of_run (fun () -> spawns eng n) /. float_of_int n
  in
  (spawn_words ~live -. spawn_words ~live:0) /. float_of_int live

let test_sweep_skips_certain () =
  let per_live = sweep_words_per_live ~predicate:(fun _ -> Predicate.empty) in
  if per_live > 0.1 then
    Alcotest.failf "%.2f words per fate per live certain process" per_live

(* A live process whose predicate assumes a pid nobody decides is
   normalised at every fate, and its predicate comes back as itself:
   no residue and no variant cell (2 words a visit when [normalize]
   wrapped its answer). *)
let test_sweep_keeps_uncertain () =
  let per_live =
    sweep_words_per_live ~predicate:(fun eng ->
        Predicate.make ~must_complete:[ (Engine.fresh_pids eng 1).(0) ] ~must_fail:[])
  in
  if per_live > 0.01 then
    Alcotest.failf "%.2f words per fate per live uncertain process" per_live

(* A tick that resumes one park allocates nothing beyond the park: one
   more CPU park costs exactly its [Park_cpu] record (3 words) and the
   runtime's continuation (2 words), read as the difference between 4,000
   and 2,000 parks of one process. A tick's list of finished parks cost 3
   words a park, a boxed clock and time operand 4. *)
let park_own_words = 5.

let test_tick_allocates_nothing () =
  let total n = words_per ~n cpu_parks *. float_of_int n in
  let beyond = ((total 4000 -. total 2000) /. 2000.) -. park_own_words in
  if beyond > 0.01 then Alcotest.failf "a tick: %.2f words beyond its park" beyond

(* A record of a kind one subscriber reads builds nothing: [record] is
   inlined, so the time goes from the caller into the trace's cell
   unboxed, and the subscriber reads it there with [Trace.now] (2.0
   words a record when the time was a labelled argument every subscriber
   took, boxed at the call). *)
let test_subscribed_record () =
  let tr = Trace.create ~enabled:false () in
  let sum = Float.Array.make 1 0. in
  ignore
    (Trace.subscribe tr Trace.Kind.note (fun _ ->
         Float.Array.set sum 0 (Float.Array.get sum 0 +. Trace.now tr)));
  let e = Trace.Note "tick" and n = 10_000 in
  let records () =
    for i = 1 to n do
      Trace.record tr ~time:(float_of_int i) e
    done
  in
  records ();
  let w = Alloc_words.of_run records /. float_of_int n in
  check (Alcotest.float 0.) "the subscriber read every time"
    (float_of_int (n * (n + 1))) (Float.Array.get sum 0);
  if w > 0.1 then Alcotest.failf "a subscribed record: %.2f words" w

(* Resetting an engine a run has dirtied allocates nothing: every table
   is cleared in place. *)
let test_reset_allocates_nothing () =
  let eng = mk () in
  let words = ref 0. in
  for seed = 1 to 200 do
    message_hops eng 8;
    fresh_dests eng 4;
    words := !words +. Alloc_words.of_run (fun () -> Engine.reset eng ~seed)
  done;
  if !words > 0. then Alcotest.failf "200 resets: %.0f words" !words

(* ---------------- Services ----------------

   A bare {!Engine.spawn_service}: one pid, no fiber, counting what it
   handles. [handle] returns [charge]; [finish] runs [on_finish]. *)
let spawn_counter eng ?(tag = None) ?(charge = 0.) ?(on_finish = ignore) () =
  let pid = (Engine.fresh_pids eng 1).(0) in
  let handled = ref 0 in
  Engine.spawn_service eng ~pid ~name:"svc" ~site:None ~tag handled
    ~handle:(fun n _ctx _m ->
      incr n;
      charge)
    ~finish:(fun _ _ctx m -> on_finish m);
  (pid, handled)

(* A message delivered to a waiting service with an empty mailbox is
   handed over: the trace reads as if it passed through a one-entry ring,
   Delivered then Accepted, and the scan counter moves by one. *)
let test_service_handoff () =
  let eng = mk ~trace:true () in
  let pid, handled = spawn_counter eng () in
  ignore
    (Engine.spawn eng ~cloneable:false (fun ctx ->
         Engine.delay ctx 1.;
         Engine.send ctx pid one));
  Engine.run eng;
  check Alcotest.int "handled" 1 !handled;
  check Alcotest.int "one slot scanned" 1 (Engine.stats_mailbox_scanned eng);
  let seen =
    List.filter_map
      (fun (_, e) ->
        match e with
        | Trace.Delivered { dest; _ } when Pid.equal dest pid -> Some "delivered"
        | Trace.Accepted { dest; _ } when Pid.equal dest pid -> Some "accepted"
        | _ -> None)
      (Trace.events (Engine.trace eng))
  in
  check Alcotest.(list string) "delivered, then accepted" [ "delivered"; "accepted" ] seen;
  check Alcotest.(list int) "waiting again" [ Pid.to_int pid ]
    (List.map Pid.to_int (Engine.parked_pids eng))

(* ---------------- Hand-off to parked fibers ----------------

   The services' hand-off rule, applied to fibers parked in a receive:
   what each receiver records, and what it costs. *)

(* The trace's delivery-side events for messages of payload [n], in
   order: "delivered P3", "accepted P3". *)
let deliveries eng n =
  List.filter_map
    (fun (_, e) ->
      let name kind dest = Some (Printf.sprintf "%s P%d" kind (Pid.to_int dest)) in
      match e with
      | Trace.Delivered { dest; msg } when Payload.get_int msg.Message.payload = n ->
        name "delivered" dest
      | Trace.Accepted { dest; msg; _ } when Payload.get_int msg.Message.payload = n ->
        name "accepted" dest
      | _ -> None)
    (Trace.events (Engine.trace eng))

(* [n] receivers parked on a timed receive, each sent one certain message
   once all of them wait. *)
let timed_sinks eng n =
  let sink ctx = ignore (Engine.receive_timeout ctx ~timeout:100. ()) in
  let dests = Array.init n (fun _ -> Engine.spawn eng ~cloneable:false sink) in
  ignore
    (Engine.spawn eng ~cloneable:false (fun ctx ->
         Engine.delay ctx 1.;
         Array.iter (fun d -> Engine.send ctx d one) dests));
  Engine.run eng

(* A receiver parked on [receive_timeout] is handed a certain message:
   Delivered then Accepted, one scanned slot, and no mailbox. Per
   receiver, a spawn to exit, its timed park, the message and its share
   of the sender's FIFO clocks cost 43.0 words with OCaml 5.1.1; the
   ceiling sits about 5% above that, below the 66.1 words of a ring
   built at the delivery and a FIFO-clock table per sender. *)
let test_handoff_timed () =
  let eng = mk ~trace:true () in
  timed_sinks eng 1;
  check Alcotest.(list string) "delivered, then accepted" [ "delivered P0"; "accepted P0" ]
    (deliveries eng 1);
  check Alcotest.int "one slot scanned" 1 (Engine.stats_mailbox_scanned eng);
  let w = words_per ~n:2000 timed_sinks in
  if w > 45. then Alcotest.failf "a timed receiver handed its message: %.1f words" w

(* A message whose tag the parked receive does not name is queued, and
   the receive takes the later one it names; the queued one is taken by
   the next receive of its tag. *)
let test_handoff_foreign_tag () =
  let eng = mk ~trace:true () in
  let order = ref [] in
  let recv =
    Engine.spawn eng ~cloneable:false (fun ctx ->
        let a = Engine.receive ctx ~tag:"a" () in
        let b = Engine.receive ctx ~tag:"b" () in
        order := [ a.Message.tag; b.Message.tag ])
  in
  ignore
    (Engine.spawn eng ~cloneable:false (fun ctx ->
         Engine.delay ctx 1.;
         Engine.send ctx ~tag:"b" recv (Payload.int 1);
         Engine.delay ctx 1.;
         Engine.send ctx ~tag:"a" recv (Payload.int 2)));
  Engine.run eng;
  check Alcotest.(list string) "tags in receive order" [ "a"; "b" ] !order;
  check Alcotest.(list string) "the foreign tag waited"
    [ "delivered P0"; "accepted P0" ] (deliveries eng 1);
  (* The queued "b" is scanned past by the receive of "a" (1), then the
     handed "a" counts its one slot (1), and the receive of "b" takes it
     (1). *)
  check Alcotest.int "slots scanned" 3 (Engine.stats_mailbox_scanned eng)

(* A message the delivery-fault hook refuses is neither handed over nor
   queued: the parked receiver times out. *)
let test_handoff_refused () =
  let eng = mk ~trace:true () in
  let got = ref (Some 0) in
  let recv =
    Engine.spawn eng ~cloneable:false (fun ctx ->
        got :=
          Option.map
            (fun m -> Payload.get_int m.Message.payload)
            (Engine.receive_timeout ctx ~timeout:5. ()))
  in
  Engine.set_delivery_fault eng (Some (fun _ ~dest -> not (Pid.equal dest recv)));
  ignore
    (Engine.spawn eng ~cloneable:false (fun ctx ->
         Engine.delay ctx 1.;
         Engine.send ctx recv (Payload.int 1)));
  Engine.run eng;
  check Alcotest.(option int) "timed out" None !got;
  check Alcotest.(list string) "nothing delivered" [] (deliveries eng 1);
  check Alcotest.int "nothing scanned" 0 (Engine.stats_mailbox_scanned eng)

(* Both world copies of a receiver wait when a certain message reaches
   their logical pid: each copy records its delivery before either
   records its acceptance, as when each took it from a ring. *)
let test_handoff_world_copies () =
  let eng = mk ~trace:true () in
  let spec = (Engine.fresh_pids eng 1).(0) in
  let recv =
    Engine.spawn eng (fun ctx ->
        ignore (Engine.receive ctx ());
        ignore (Engine.receive ctx ()))
  in
  ignore
    (Engine.spawn eng ~pid:spec ~predicate:(assumes [ spec ]) (fun ctx ->
         Engine.send ctx recv (Payload.int 1);
         Engine.delay ctx 20.));
  ignore
    (Engine.spawn eng ~cloneable:false (fun ctx ->
         Engine.delay ctx 10.;
         Engine.send ctx recv (Payload.int 2)));
  Engine.run eng;
  check Alcotest.(list string) "every delivery first"
    [ "delivered P1"; "delivered P3"; "accepted P1"; "accepted P3" ]
    (deliveries eng 2)

(* A world copy handed a message and killed before its rescan takes it
   (here by the other copy, rescanned first) finds the message in its
   mailbox when it catches the kill and receives again, as it would had
   the message been queued. *)
let test_handoff_killed_copy () =
  let eng = mk ~trace:true () in
  let spec = (Engine.fresh_pids eng 1).(0) in
  let clone = Pid.of_int 3 in
  let log = ref [] in
  let rec take ctx n =
    if n > 0 then
      match Engine.receive ctx () with
      | m ->
        let v = Payload.get_int m.Message.payload in
        log := (Pid.to_int (Engine.self ctx), v) :: !log;
        if v = 2 && not (Pid.equal (Engine.self ctx) clone) then
          Engine.kill (Engine.engine ctx) clone ~reason:"test";
        take ctx (n - 1)
      | exception Engine.Process_killed _ ->
        log := (Pid.to_int (Engine.self ctx), -1) :: !log;
        take ctx n
  in
  let recv = Engine.spawn eng (fun ctx -> take ctx 2) in
  (* The sender never exits, so neither world is ever decided. *)
  ignore
    (Engine.spawn eng ~pid:spec ~predicate:(assumes [ spec ]) (fun ctx ->
         Engine.send ctx recv (Payload.int 1);
         ignore (Engine.receive ctx ())));
  ignore
    (Engine.spawn eng ~cloneable:false (fun ctx ->
         Engine.delay ctx 10.;
         Engine.send ctx recv (Payload.int 2)));
  Engine.run eng;
  check Alcotest.(list (pair int int)) "the killed copy kept its message"
    [ (1, 1); (1, 2); (3, -1); (3, 2) ]
    (List.rev !log)

(* [n] services, each handed one message by a sender that sends them
   one by one. Per service: its spawn to kill, and one message it takes
   while idle. *)
let idle_services eng n =
  let pids =
    Array.init n (fun _ ->
        let pid = (Engine.fresh_pids eng 1).(0) in
        Engine.spawn_service eng ~pid ~name:"svc" ~site:None ~tag:None ()
          ~handle:(fun () _ctx _m -> -1.)
          ~finish:(fun () _ctx _m -> ());
        pid)
  in
  ignore
    (Engine.spawn eng ~cloneable:false (fun ctx ->
         Array.iter (fun d -> Engine.send ctx d one) pids));
  Engine.run eng;
  Array.iter (fun p -> Engine.kill eng p ~reason:"done") pids

(* A service that is never busy builds no mailbox: every message reaches
   it by hand-off. Per service: its pcb (22 words), its service record
   (7) and its CPU park (2), its exit (4), the message (8), and its share
   of the tables the run grows, 48.0 words with OCaml 5.1.1 (56.1 with
   two more pcb fields, a [Deliver] box per send and a clock table per
   sender). The ceiling sits about 5% above that, well below the 15
   words more a ring built at the first delivery costs. *)
let test_idle_service_builds_no_mailbox () =
  let w = words_per ~n:2000 idle_services in
  if w > 50.5 then Alcotest.failf "an idle service: %.1f words, ceiling 50.5" w

(* An exception from [finish] crashes the service, as one from a body
   crashes its process, and [run] returns normally; one from [handle]
   likewise, and a kill while it charges eliminates it. *)
let test_service_exits () =
  let eng = mk () in
  let boom, _ = spawn_counter eng ~on_finish:(fun _ -> failwith "boom") () in
  let refused, _ =
    spawn_counter eng ~charge:1. ~on_finish:(fun _ -> raise (Engine.Abort_process "no")) ()
  in
  let charging, handled = spawn_counter eng ~charge:5. () in
  ignore
    (Engine.spawn eng ~cloneable:false (fun ctx ->
         Engine.send ctx boom one;
         Engine.send ctx refused one;
         Engine.send ctx charging one));
  Engine.after eng ~delay:2. (fun () -> Engine.kill eng charging ~reason:"test");
  Engine.run eng;
  let status p =
    match Engine.status eng p with
    | Some (Engine.Crashed r) -> Some ("crashed: " ^ r)
    | Some (Engine.Exited_failed r) -> Some ("failed: " ^ r)
    | Some (Engine.Eliminated r) -> Some ("eliminated: " ^ r)
    | Some Engine.Exited_ok -> Some "ok"
    | None -> None
  in
  check Alcotest.(option string) "finish raised" (Some "crashed: Failure(\"boom\")")
    (status boom);
  check Alcotest.(option string) "finish aborted" (Some "failed: no") (status refused);
  check Alcotest.(option string) "killed while charging" (Some "eliminated: test")
    (status charging);
  check Alcotest.int "it had taken its message" 1 !handled;
  check (Alcotest.float 1e-9) "it was charged until the kill" 2.
    (Engine.cpu_time_of eng charging)

let test_alloc_budget name op ceiling () =
  let w = words_per ~n:2000 op in
  if w > ceiling then Alcotest.failf "%s: %.1f words, ceiling %.1f" name w ceiling

let () =
  Alcotest.run "runtime"
    [
      ( "event_queue",
        [
          Alcotest.test_case "time order" `Quick test_eq_order;
          Alcotest.test_case "pop clears its slot (leak regression)" `Quick
            test_eq_pop_clears_slots;
          Alcotest.test_case "clear drops references" `Quick
            test_eq_clear_drops_references;
          Alcotest.test_case "fifo on ties" `Quick test_eq_fifo_ties;
          Alcotest.test_case "peek and clear" `Quick test_eq_peek_clear;
          Alcotest.test_case "NaN rejected" `Quick test_eq_nan;
          QCheck_alcotest.to_alcotest prop_eq_sorted;
          QCheck_alcotest.to_alcotest prop_eq_model;
        ] );
      ( "fifo_clock",
        [
          QCheck_alcotest.to_alcotest (prop_clock_model ~reclaim:false);
          QCheck_alcotest.to_alcotest (prop_clock_model ~reclaim:true);
          Alcotest.test_case "a negative sender is refused" `Quick
            test_clock_negative_sender;
        ] );
      ( "engine",
        [
          Alcotest.test_case "delay advances clock" `Quick test_delay_advances_clock;
          Alcotest.test_case "zero delay" `Quick test_zero_delay;
          Alcotest.test_case "start delay" `Quick test_start_delay;
          Alcotest.test_case "exit statuses" `Quick test_exit_statuses;
          Alcotest.test_case "on_exit watcher" `Quick test_on_exit_watcher;
          Alcotest.test_case "fresh pids / reuse" `Quick test_fresh_pids_and_spawn_pid;
          Alcotest.test_case "spawn rejects an unissued pid" `Quick
            test_spawn_unissued_pid;
          Alcotest.test_case "run_for" `Quick test_run_for;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "infinite cores" `Quick test_cpu_infinite;
          Alcotest.test_case "single core sharing" `Quick test_cpu_single_core_sharing;
          Alcotest.test_case "two cores" `Quick test_cpu_two_cores;
          Alcotest.test_case "unequal work" `Quick test_cpu_unequal_work;
          Alcotest.test_case "cpu accounting" `Quick test_cpu_time_accounting;
          Alcotest.test_case "excess cores" `Quick test_cpu_excess_cores;
          Alcotest.test_case "schedule pinned bit-exactly" `Quick
            test_cpu_schedule_pinned;
          Alcotest.test_case "cores below 1 rejected" `Quick test_cores_rejected;
          Alcotest.test_case "stale slice leaves a re-park alone" `Quick
            test_cpu_stale_slice;
          QCheck_alcotest.to_alcotest prop_cpu_model;
          Alcotest.test_case "NaN delay crashes only its caller" `Quick
            (test_nan_wait "Engine.delay" (fun ctx -> Engine.delay ctx Float.nan));
          Alcotest.test_case "NaN receive_timeout crashes only its caller" `Quick
            (test_nan_wait "Engine.receive_timeout" (fun ctx ->
                 ignore (Engine.receive_timeout ctx ~timeout:Float.nan ())));
          Alcotest.test_case "NaN Ivar.read_timeout crashes only its caller" `Quick
            (test_nan_wait "Engine.Ivar.read_timeout" (fun ctx ->
                 ignore
                   (Engine.Ivar.read_timeout ctx (Engine.Ivar.create ())
                      ~timeout:Float.nan)));
          Alcotest.test_case "infinite delay crashes only its caller" `Quick
            (test_bad_wait "Engine.delay: infinite duration" (fun ctx ->
                 Engine.delay ctx infinity));
        ] );
      ( "ipc",
        [
          Alcotest.test_case "send/receive payload" `Quick test_send_receive_payload;
          Alcotest.test_case "fifo with mixed sizes" `Quick test_fifo_per_channel;
          Alcotest.test_case "fifo ordering" `Quick test_fifo_ordering_ints;
          Alcotest.test_case "tag filtering" `Quick test_tag_filtering;
          Alcotest.test_case "receive timeout" `Quick test_receive_timeout;
          Alcotest.test_case "delivery beats timeout" `Quick test_receive_timeout_delivery_wins;
          Alcotest.test_case "message to dead pid" `Quick test_message_to_dead_pid_dropped;
          Alcotest.test_case "a forged pid -1 keeps its own FIFO clock" `Quick
            test_forged_dest_clock;
          Alcotest.test_case "infinite receive_timeout parks like receive" `Quick
            (test_forever_in wait_receive_forever);
        ] );
      ( "kill",
        [
          Alcotest.test_case "kill parked runs cleanup" `Quick
            (test_killed_in wait_receive);
          Alcotest.test_case "kill delaying" `Quick (test_killed_in wait_delay);
          Alcotest.test_case "killed in receive_timeout" `Quick
            (test_killed_in wait_receive_timeout);
          Alcotest.test_case "killed in Ivar.read" `Quick (test_killed_in wait_read);
          Alcotest.test_case "killed in Ivar.read_timeout" `Quick
            (test_killed_in wait_read_timeout);
          Alcotest.test_case "woken in receive_timeout" `Quick
            (test_woken_in wait_receive_timeout);
          Alcotest.test_case "woken in Ivar.read_timeout" `Quick
            (test_woken_in wait_read_timeout);
          Alcotest.test_case "timed out in receive_timeout" `Quick
            (test_timed_out_in wait_receive_timeout);
          Alcotest.test_case "timed out in Ivar.read_timeout" `Quick
            (test_timed_out_in wait_read_timeout);
          Alcotest.test_case "kill embryo" `Quick test_kill_embryo;
          Alcotest.test_case "kill dead is noop" `Quick test_kill_dead_noop;
        ] );
      ( "ivar",
        [
          Alcotest.test_case "at-most-once" `Quick test_ivar_at_most_once;
          Alcotest.test_case "read blocks until fill" `Quick test_ivar_read_blocks;
          Alcotest.test_case "read timeout" `Quick test_ivar_read_timeout;
          Alcotest.test_case "killed read_timeout keeps the clock" `Quick
            test_ivar_read_timeout_killed;
          Alcotest.test_case "infinite read_timeout parks like read" `Quick
            (test_forever_in wait_read_forever);
          Alcotest.test_case "fill at the deadline: (time, stamp) order" `Quick
            test_ivar_fill_at_deadline;
        ] );
      ( "worlds",
        [
          Alcotest.test_case "split created" `Quick test_worlds_split_created;
          Alcotest.test_case "sender completes: accepting world survives" `Quick
            test_worlds_sender_completes;
          Alcotest.test_case "sender fails: rejecting world survives" `Quick
            test_worlds_sender_fails;
          Alcotest.test_case "clone replays local state" `Quick
            test_worlds_clone_replays_state;
          Alcotest.test_case "clone replays clock and randomness" `Quick
            test_worlds_clone_replays_clock_and_rng;
          Alcotest.test_case "oblivious service never splits" `Quick
            test_oblivious_receiver_never_splits;
          Alcotest.test_case "conflicting message ignored" `Quick
            test_conflicting_message_ignored;
          Alcotest.test_case "receipt: implied accept" `Quick test_receipt_implied;
          Alcotest.test_case "receipt: dead-world ignore" `Quick test_receipt_dead_world;
          Alcotest.test_case "receipt: adopt" `Quick test_receipt_adopt;
          Alcotest.test_case "receipt: defer, then accept" `Quick
            test_receipt_defer_then_accept;
          Alcotest.test_case "receipt: parked receivers, pinned" `Quick
            test_receipt_parked_pinned;
          Alcotest.test_case "receipt: a deferral is not ignored" `Quick
            test_receipt_deferral_not_ignored;
          Alcotest.test_case "receipt: rejecting world ignores its sender" `Quick
            test_receipt_rejecting_world;
          Alcotest.test_case "receipt: sender assuming its own failure" `Quick
            test_receipt_sender_assumes_failure;
          QCheck_alcotest.to_alcotest prop_receipt_model;
          QCheck_alcotest.to_alcotest prop_world_model;
        ] );
      ( "fates",
        [
          Alcotest.test_case "deferred fate resolution" `Quick test_deferred_fate_resolution;
          Alcotest.test_case "dead-world cascade" `Quick test_dead_world_cascade;
          Alcotest.test_case "on_resolution hooks" `Quick test_on_resolution_hooks;
          Alcotest.test_case "on_resolution when decided" `Quick
            test_on_resolution_when_decided;
          Alcotest.test_case "ok exit assuming its own failure" `Quick
            test_exit_assuming_own_failure;
          Alcotest.test_case "random bits deterministic" `Quick
            test_random_bits_logged_deterministic;
          Alcotest.test_case "parked pids at quiescence" `Quick
            test_parked_pids_at_quiescence;
          QCheck_alcotest.to_alcotest prop_fate_model;
        ] );
      ( "running",
        [
          Alcotest.test_case "fill wakes a waiter that exits" `Quick
            (test_fill_wakes_waiter waiter_exits [ "exited ok"; "completed" ] ~clock:2.);
          Alcotest.test_case "fill wakes a waiter that crashes" `Quick
            (test_fill_wakes_waiter waiter_crashes
               [ "exited crashed: Failure(\"boom\")"; "failed" ]
               ~clock:2.);
          Alcotest.test_case "fill wakes a waiter that parks" `Quick
            (test_fill_wakes_waiter waiter_parks [ "exited ok"; "completed" ] ~clock:3.);
          Alcotest.test_case "body kills a parked process" `Quick
            (test_kill_parked kill_from_body);
          Alcotest.test_case "after kills a parked process" `Quick
            (test_kill_parked kill_from_after);
          Alcotest.test_case "clone replays its parks" `Quick test_clone_replays_parks;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "CPU park" `Quick (test_alloc_budget "CPU park" cpu_parks 5.5);
          Alcotest.test_case "message hop" `Quick
            (test_alloc_budget "message hop" message_hops 13.7);
          Alcotest.test_case "spawn to exit" `Quick
            (test_alloc_budget "spawn to exit" spawns 28.5);
          Alcotest.test_case "send to a fresh dest" `Quick
            (test_alloc_budget "send to a fresh dest" fresh_dests 43.);
          Alcotest.test_case "sweep: no words per certain process" `Quick
            test_sweep_skips_certain;
          Alcotest.test_case "reset allocates nothing" `Quick test_reset_allocates_nothing;
          Alcotest.test_case "a subscribed record builds nothing" `Quick
            test_subscribed_record;
          Alcotest.test_case "sweep: no words per uncertain process" `Quick
            test_sweep_keeps_uncertain;
          Alcotest.test_case "a tick allocates nothing beyond its park" `Quick
            test_tick_allocates_nothing;
          Alcotest.test_case "an idle service builds no mailbox" `Quick
            test_idle_service_builds_no_mailbox;
        ] );
      ( "service",
        [
          Alcotest.test_case "a hand-off reads as a one-entry ring" `Quick
            test_service_handoff;
          Alcotest.test_case "exceptions and kills end a service" `Quick
            test_service_exits;
        ] );
      ( "handoff",
        [
          Alcotest.test_case "a timed receiver takes a certain message without a mailbox"
            `Quick test_handoff_timed;
          Alcotest.test_case "a foreign tag is queued" `Quick test_handoff_foreign_tag;
          Alcotest.test_case "a refused message is not handed over" `Quick
            test_handoff_refused;
          Alcotest.test_case "world copies: every delivery before any acceptance" `Quick
            test_handoff_world_copies;
          Alcotest.test_case "a killed copy keeps its handed message" `Quick
            test_handoff_killed_copy;
        ] );
      ( "reset",
        [
          Alcotest.test_case "a reset engine replays a fresh one" `Quick
            test_reset_replays_fresh;
        ] );
      ( "ordering",
        [
          Alcotest.test_case "cpu ties resume in pid order" `Quick
            test_cpu_ties_resume_by_pid;
          Alcotest.test_case "sweep kills in pid order" `Quick
            test_sweep_kills_by_pid;
          Alcotest.test_case "children and parked sorted" `Quick
            test_children_and_parked_sorted;
          Alcotest.test_case "sweep skips processes it spawns" `Quick
            test_sweep_skips_processes_it_spawns;
        ] );
    ]
