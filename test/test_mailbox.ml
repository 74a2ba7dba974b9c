(* Tests for the ring-buffer mailbox (lib/runtime/mailbox.ml) and the
   messaging hot-path behaviour that rides on it:

   - FIFO order across wrap-around, growth and bursts (a send never
     blocks: the ring grows), and a slot array that stays flat under
     steady streaming,
   - duplicates and world splits: the copies of one send share one
     immutable value, consuming one leaves the other intact, and a split
     ([copy_excluding]) excludes both,
   - a delivered message is the sent value itself, with one copy, with
     two world copies and behind a pass-through delivery hook,
   - the per-tag receive cursor (the quadratic re-scan fix), with a hard
     budget on [Engine.stats_mailbox_scanned],
   - size stamping at send,
   - delivery interleaved with zero-timeout pure polls, the same with
     the trace off, on, or behind a pass-through delivery hook,
   - two qcheck models: the ring against a FIFO list, and delivery order
     against the per-message (time, send order) reference. *)

let check = Alcotest.check

let pid i = Pid.of_int i

let message ~uid ~tag payload =
  { Message.sender = pid 1; dest = pid 2; predicate = Predicate.empty; payload; tag;
    seq = uid; size = Message.header_bytes + Payload.size_bytes payload }

let push_one ring ~uid ~tag payload = Mailbox.push ring (message ~uid ~tag payload)

let pop_front ring =
  let pos = Mailbox.head_pos ring in
  let m = Mailbox.message_at ring pos in
  Mailbox.remove ring pos;
  m

let int_of_payload = function Payload.Int i -> i | _ -> -1

let pop_int ring = int_of_payload (pop_front ring).Message.payload

(* The live entries, in position order. *)
let entries ring =
  let acc = ref [] in
  for pos = Mailbox.tail_pos ring - 1 downto Mailbox.head_pos ring do
    let m = Mailbox.message_at ring pos in
    if m != Mailbox.no_message then acc := (pos, m) :: !acc
  done;
  !acc

let same_values a b = List.length a = List.length b && List.for_all2 ( == ) a b

(* Heap words the ring holds: its record, slot array and sentinel. *)
let ring_words ring = Obj.reachable_words (Obj.repr ring)

(* ---------------- ring mechanics ---------------- *)

(* Steady-state streaming: positions wrap many times over, FIFO order
   holds throughout, and a drained ring is no bigger after 500 rounds
   than after the first — the slot array never grows. *)
let test_wraparound_stays_flat () =
  let ring = Mailbox.create () in
  let next = ref 0 and expect = ref 0 and words = ref 0 in
  for round = 1 to 500 do
    for _ = 1 to 3 do
      push_one ring ~uid:!next ~tag:"t" (Payload.int !next);
      incr next
    done;
    for _ = 1 to 3 do
      check Alcotest.int "FIFO across wrap" !expect (pop_int ring);
      incr expect
    done;
    if round = 1 then words := ring_words ring
  done;
  check Alcotest.int "ring drained" 0 (Mailbox.length ring);
  check Alcotest.int "slot array never grew" !words (ring_words ring);
  check Alcotest.bool "positions wrapped many times" true
    (Mailbox.tail_pos ring > 8 * 100)

(* A burst far deeper than the first slot array: the ring grows (sends
   are asynchronous — there is nothing to block on) and keeps FIFO order
   across every growth step. The grown ring carries the next burst of the
   same depth without growing again. *)
let test_burst_grows_in_order () =
  let ring = Mailbox.create () in
  let burst base =
    for i = base to base + 199 do
      push_one ring ~uid:i ~tag:"t" (Payload.int i)
    done;
    check Alcotest.int "the whole burst accepted" 200 (Mailbox.length ring);
    for i = base to base + 199 do
      check Alcotest.int "order across growth" i (pop_int ring)
    done
  in
  burst 0;
  let words = ring_words ring in
  burst 1000;
  check Alcotest.int "no growth for the second burst" words (ring_words ring)

(* Growth while the live entries wrap around the end of the slot array
   (the head is mid-array, the tail has wrapped) re-homes them by
   position: FIFO order survives, and so do mid-ring tombstones. *)
let test_growth_while_wrapped () =
  let ring = Mailbox.create () in
  for i = 0 to 5 do
    push_one ring ~uid:i ~tag:"t" (Payload.int i)
  done;
  for i = 0 to 4 do
    check Alcotest.int "drain" i (pop_int ring)
  done;
  (* Head at position 5 of an 8-slot array: these wrap, then grow it. *)
  for i = 6 to 29 do
    push_one ring ~uid:i ~tag:"t" (Payload.int i)
  done;
  Mailbox.remove ring 10;
  check Alcotest.int "all held" 24 (Mailbox.length ring);
  List.iter
    (fun i -> check Alcotest.int "order after growth" i (pop_int ring))
    (List.filter (fun i -> i <> 10) (List.init 25 (fun i -> i + 5)))

(* The copies of one send are one value pushed twice. Consuming one copy,
   and then streaming later traffic through the slot it vacated, leaves
   the other copy exactly the sent value. *)
let test_duplicate_copies_share_one_value () =
  let ring = Mailbox.create () in
  for i = 0 to 99 do
    let m = message ~uid:i ~tag:"t" (Payload.Str (string_of_int i)) in
    Mailbox.push ring m;
    Mailbox.push ring m;
    let first = pop_front ring in
    push_one ring ~uid:(-1) ~tag:"chaff" (Payload.Str "overwrite");
    let second = pop_front ring in
    check Alcotest.bool "both copies are the sent value" true
      (first == m && second == m);
    check Alcotest.string "payload intact" (string_of_int i)
      (match second.Message.payload with Payload.Str s -> s | _ -> "not a string");
    check Alcotest.string "chaff after both" "chaff" (pop_front ring).Message.tag
  done

(* ---------------- world-split exclusion ---------------- *)

(* A world split's rejecting copy keeps everything except the accepted
   send — both entries of an injected duplicate — and shares the rest. *)
let test_copy_excluding_drops_every_copy () =
  let ring = Mailbox.create () in
  let ms = Array.init 4 (fun i -> message ~uid:i ~tag:"t" (Payload.int i)) in
  List.iter (Mailbox.push ring) [ ms.(0); ms.(1); ms.(1); ms.(2); ms.(3) ];
  let c = Mailbox.copy_excluding ring ~msg:ms.(1) in
  check Alcotest.int "both copies of the accepted send excluded" 3
    (Mailbox.length c);
  check Alcotest.bool "the rest kept in order, shared" true
    (same_values [ ms.(0); ms.(2); ms.(3) ] (List.map snd (entries c)));
  (* Exclusion is by identity: an equal message is a different send. *)
  let twin = message ~uid:1 ~tag:"t" (Payload.int 1) in
  check Alcotest.int "a structurally equal send stays" 5
    (Mailbox.length (Mailbox.copy_excluding ring ~msg:twin));
  (* Both worlds consume independently. *)
  ignore (pop_front ring);
  ignore (pop_front ring);
  check Alcotest.bool "copy unaffected by the original's consumption" true
    (same_values [ ms.(0); ms.(2); ms.(3) ] (List.map snd (entries c)))

(* ---------------- duplicates and identity ---------------- *)

(* A duplicate lands as two entries of one value. After the first copy
   is consumed and later traffic has cycled through the ring's slots, the
   second copy is still the sent value: no slot holds content that
   traffic could overwrite. *)
let test_traffic_cannot_reach_a_duplicate () =
  let inbox = Mailbox.create () in
  let m = message ~uid:42 ~tag:"orig" (Payload.int 1234) in
  Mailbox.push inbox m;
  Mailbox.push inbox m;
  check Alcotest.bool "first copy is the sent value" true (pop_front inbox == m);
  for i = 0 to 99 do
    push_one inbox ~uid:i ~tag:"evil" (Payload.Str "overwrite");
    (* Consume the newcomer, leaving the second copy at the head. *)
    Mailbox.remove inbox (Mailbox.tail_pos inbox - 1)
  done;
  let second = pop_front inbox in
  check Alcotest.bool "second copy is the sent value" true (second == m);
  check Alcotest.string "tag survived" "orig" second.Message.tag;
  check Alcotest.int "payload survived" 1234 (int_of_payload second.Message.payload);
  check Alcotest.int "nothing else left" 0 (Mailbox.length inbox)

(* End-to-end: a Duplicate fault injects two copies of one send. Receiving
   both, interleaved with enough later traffic to cycle every slot, yields
   two intact copies. *)
let test_duplicate_copies_do_not_alias () =
  let eng = Engine.create ~trace:false () in
  Engine.set_message_fault eng
    (Some
       (fun m ->
         if String.equal m.Message.tag "dup" then Engine.F_duplicate
         else Engine.F_deliver));
  let got = ref [] in
  let n_chaff = 200 in
  let receiver =
    Engine.spawn eng ~cloneable:false ~name:"sink" (fun ctx ->
        (* Two copies of the duplicated send... *)
        for _ = 1 to 2 do
          got := (Engine.receive ctx ~tag:"dup" ()).Message.payload :: !got
        done;
        (* ...then drain the chaff. *)
        for _ = 1 to n_chaff do
          ignore (Engine.receive ctx ~tag:"chaff" ())
        done)
  in
  ignore
    (Engine.spawn eng ~cloneable:false ~name:"source" (fun ctx ->
         Engine.send ctx ~tag:"dup" receiver (Payload.Str "precious");
         for i = 1 to n_chaff do
           Engine.send ctx ~tag:"chaff" receiver (Payload.int i)
         done));
  Engine.run eng;
  match !got with
  | [ a; b ] ->
    check Alcotest.bool "first copy intact" true
      (a = Payload.Str "precious");
    check Alcotest.bool "second copy intact" true
      (b = Payload.Str "precious")
  | l -> Alcotest.failf "expected 2 copies, got %d" (List.length l)

(* [F_duplicate] on every send of a 100-message burst: the two copies of
   each send arrive adjacent in FIFO order and are one value (so physical
   identity or (sender, seq) dedup — what [Majority] uses — counts one
   vote), the traced run receives exactly what the untraced one does,
   and a world split on a duplicated send excludes both copies from the
   rejecting world. *)
let run_burst_with_duplicates ~trace ~n =
  let eng = Engine.create ~trace () in
  Engine.set_message_fault eng
    (Some (fun m -> if m.Message.tag = "d" then Engine.F_duplicate else Engine.F_deliver));
  let got = ref [] in
  let receiver =
    Engine.spawn eng ~cloneable:false ~name:"sink" (fun ctx ->
        for _ = 1 to 2 * n do
          got := Engine.receive ctx ~tag:"d" () :: !got
        done)
  in
  ignore
    (Engine.spawn eng ~cloneable:false ~name:"burst" (fun ctx ->
         for i = 0 to n - 1 do
           Engine.send ctx ~tag:"d" receiver (Payload.int i)
         done));
  Engine.run eng;
  List.rev !got

(* A speculative sender's duplicated message splits the receiver. Each
   world records the tag of the first message it accepts: the accepting
   world takes the speculative one; the rejecting world must not find
   the duplicate left behind, so its first message is the later one. *)
let split_on_duplicate () =
  let eng = Engine.create ~trace:false () in
  Engine.set_message_fault eng
    (Some (fun m -> if m.Message.tag = "spec" then Engine.F_duplicate else Engine.F_deliver));
  let spec = (Engine.fresh_pids eng 1).(0) in
  let firsts = ref [] in
  let recv =
    Engine.spawn eng ~name:"recv" (fun ctx ->
        let m = Engine.receive ctx () in
        firsts := m.Message.tag :: !firsts)
  in
  ignore
    (Engine.spawn eng ~pid:spec ~name:"spec"
       ~predicate:(Predicate.make ~must_complete:[ spec ] ~must_fail:[])
       (fun ctx ->
         Engine.delay ctx 1.;
         Engine.send ctx ~tag:"spec" recv (Payload.int 1);
         (* Stay unresolved until both worlds have accepted a message. *)
         Engine.delay ctx 10.));
  ignore
    (Engine.spawn eng ~name:"late" (fun ctx ->
         Engine.delay ctx 5.;
         Engine.send ctx ~tag:"late" recv (Payload.int 2)));
  Engine.run eng;
  List.sort compare !firsts

let test_duplicates_stay_one_logical_send () =
  let n = 100 in
  let got = run_burst_with_duplicates ~trace:false ~n in
  check Alcotest.int "every copy of every send arrived" (2 * n)
    (List.length got);
  (* FIFO with copies adjacent: seq sequence is 0,0,1,1,2,2,... *)
  List.iteri
    (fun k m ->
      check Alcotest.int
        (Printf.sprintf "copy order @%d" k)
        (k / 2) m.Message.seq)
    got;
  let rec pairs = function
    | a :: b :: rest -> (a, b) :: pairs rest
    | _ -> []
  in
  check Alcotest.bool "each send's two copies are one value" true
    (List.for_all (fun (a, b) -> a == b) (pairs got));
  let distinct = Hashtbl.create 64 in
  List.iter
    (fun m -> Hashtbl.replace distinct (m.Message.sender, m.Message.seq) ())
    got;
  check Alcotest.int "dedup collapses every pair to one logical send" n
    (Hashtbl.length distinct);
  let got' = run_burst_with_duplicates ~trace:true ~n in
  check Alcotest.bool "untraced run = traced run" true
    (List.map (fun m -> (m.Message.seq, m.Message.payload)) got
    = List.map (fun m -> (m.Message.seq, m.Message.payload)) got');
  check
    (Alcotest.list Alcotest.string)
    "a split excludes both copies from the rejecting world" [ "late"; "spec" ]
    (split_on_duplicate ())

(* With the trace off, the receiver gets the sender's message value and
   the sender's payload value — not a rebuilt or decoded copy — whether
   the message goes to one copy, to two world copies, or through a
   delivery-fault hook. *)
let test_delivered_message_is_the_sent_value () =
  let sent = List.init 3 (fun i -> Payload.Str (Printf.sprintf "p%d" i)) in
  let run_single ~hook =
    let eng = Engine.create ~trace:false () in
    let hooked = ref [] in
    if hook then
      Engine.set_delivery_fault eng
        (Some
           (fun m ~dest:_ ->
             hooked := m :: !hooked;
             true));
    let got = ref [] in
    let receiver =
      Engine.spawn eng ~cloneable:false ~name:"sink" (fun ctx ->
          for _ = 1 to 3 do
            got := Engine.receive ctx () :: !got
          done)
    in
    ignore
      (Engine.spawn eng ~cloneable:false ~name:"source" (fun ctx ->
           List.iter (fun p -> Engine.send ctx receiver p) sent));
    Engine.run eng;
    (List.rev !got, List.rev !hooked)
  in
  let got, _ = run_single ~hook:false in
  check Alcotest.bool "one copy: each payload is the sender's" true
    (same_values sent (List.map (fun m -> m.Message.payload) got));
  let got, hooked = run_single ~hook:true in
  check Alcotest.bool "hook: the receiver gets the message the hook saw" true
    (same_values hooked got);
  check Alcotest.bool "hook: each payload is the sender's" true
    (same_values sent (List.map (fun m -> m.Message.payload) got));
  (* Two world copies: a speculative send splits the receiver, then a
     later message reaches both copies. *)
  let eng = Engine.create ~trace:false () in
  let spec = (Engine.fresh_pids eng 1).(0) in
  let late = Payload.Str "late" in
  let seen = ref [] in
  let recv =
    Engine.spawn eng ~name:"recv" (fun ctx ->
        for _ = 1 to 2 do
          let m = Engine.receive ctx () in
          if m.Message.tag = "late" then seen := m :: !seen
        done)
  in
  ignore
    (Engine.spawn eng ~pid:spec ~name:"spec"
       ~predicate:(Predicate.make ~must_complete:[ spec ] ~must_fail:[])
       (fun ctx ->
         Engine.delay ctx 1.;
         Engine.send ctx ~tag:"spec" recv (Payload.int 1);
         Engine.delay ctx 10.));
  ignore
    (Engine.spawn eng ~name:"late" (fun ctx ->
         Engine.delay ctx 5.;
         Engine.send ctx ~tag:"late" recv late));
  Engine.run eng;
  match !seen with
  | [ a; b ] ->
    check Alcotest.bool "two world copies share the one message" true (a == b);
    check Alcotest.bool "and the sender's payload" true (a.Message.payload == late)
  | l -> Alcotest.failf "expected both worlds to receive, got %d" (List.length l)

(* ---------------- per-tag cursor: the re-scan budget ---------------- *)

(* The old list-walk receive re-scanned every tag-foreign message on every
   poll: [n_foreign] pinned messages and [n_wanted] receives cost
   O(foreign * wanted) slot visits. The per-tag cursor makes the foreign
   prefix a one-time cost. The budget below fails the quadratic
   implementation by an order of magnitude (500 * 100 = 50_000 visits)
   while leaving the cursor implementation generous slack. *)
let test_tag_cursor_scan_budget () =
  let n_foreign = 500 and n_wanted = 100 in
  let eng = Engine.create ~trace:false () in
  let receiver =
    Engine.spawn eng ~cloneable:false ~name:"sink" (fun ctx ->
        for _ = 1 to n_wanted do
          ignore (Engine.receive ctx ~tag:"want" ())
        done)
  in
  ignore
    (Engine.spawn eng ~cloneable:false ~name:"source" (fun ctx ->
         for i = 1 to n_foreign do
           Engine.send ctx ~tag:"junk" receiver (Payload.int i)
         done;
         for i = 1 to n_wanted do
           Engine.send ctx ~tag:"want" receiver (Payload.int i);
           (* One wanted message per instant, so the receiver parks and
              rescans between them — the worst case for the old
              quadratic walk. *)
           Engine.delay ctx 0.001
         done));
  Engine.run eng;
  let scanned = Engine.stats_mailbox_scanned eng in
  let budget = n_foreign + (8 * n_wanted) + 64 in
  if scanned > budget then
    Alcotest.failf
      "mailbox scan budget exceeded: %d slot visits > %d (quadratic re-scan \
       regression: the old implementation needs ~%d)"
      scanned budget
      (n_foreign * n_wanted);
  check Alcotest.bool "scan budget respected" true (scanned <= budget)

(* ---------------- size stamping ---------------- *)

(* A message's wire size is stamped at send from the payload it carried,
   small and large payloads alike, and the payload arrives unchanged. *)
let test_size_stamped_and_payload_frozen_at_send () =
  let eng = Engine.create ~trace:false () in
  let small = Payload.int 7 in
  let big = Payload.Str (String.make 200 'x') in
  let got = ref [] in
  let receiver =
    Engine.spawn eng ~cloneable:false ~name:"sink" (fun ctx ->
        for _ = 1 to 2 do
          got := Engine.receive ctx () :: !got
        done)
  in
  ignore
    (Engine.spawn eng ~cloneable:false ~name:"source" (fun ctx ->
         Engine.send ctx receiver small;
         Engine.send ctx receiver big));
  Engine.run eng;
  match List.rev !got with
  | [ m1; m2 ] ->
    check Alcotest.int "small size stamped at send"
      (Message.header_bytes + Payload.size_bytes small)
      m1.Message.size;
    check Alcotest.bool "small payload arrives" true
      (small = m1.Message.payload);
    check Alcotest.int "large payload's size stamped too"
      (Message.header_bytes + Payload.size_bytes big)
      m2.Message.size;
    check Alcotest.bool "large payload arrives" true
      (big = m2.Message.payload)
  | l -> Alcotest.failf "expected 2 messages, got %d" (List.length l)

(* ---------------- delivery vs zero-timeout polls ---------------- *)

(* What a receiver observes must not depend on who watches: the same
   programs run with the trace off, with it on, and with a delivery-fault
   hook that lets everything through. *)
let observers =
  [
    ("trace off", fun () -> Engine.create ~trace:false ());
    ("trace on", fun () -> Engine.create ~trace:true ());
    ( "pass-through hook",
      fun () ->
        let eng = Engine.create ~trace:false () in
        Engine.set_delivery_fault eng (Some (fun _ ~dest:_ -> true));
        eng );
  ]

(* [receive_timeout ~timeout:0.] is a pure poll: before a burst lands it
   must report None without parking; after the burst lands it must drain
   exactly the delivered messages in order. *)
let zero_timeout_polls (what, make) =
  let n = 50 in
  let eng = make () in
  let pre_polls = ref (-1) and post = ref [] and final = ref (Some []) in
  let receiver =
    Engine.spawn eng ~cloneable:false ~name:"poller" (fun ctx ->
        (* Sends are scheduled with a delivery latency: polls at t=0 run
           before any message can possibly land. *)
        let misses = ref 0 in
        for _ = 1 to 10 do
          match Engine.receive_timeout ctx ~timeout:0. () with
          | None -> incr misses
          | Some _ -> ()
        done;
        pre_polls := !misses;
        (* Sleep past the deliveries, then drain by pure polling. *)
        Engine.delay ctx 1.0;
        let continue = ref true in
        while !continue do
          match Engine.receive_timeout ctx ~timeout:0. () with
          | Some m -> post := m.Message.payload :: !post
          | None -> continue := false
        done;
        final := (match Engine.receive_timeout ctx ~timeout:0. () with
          | Some _ -> Some []
          | None -> None))
  in
  ignore
    (Engine.spawn eng ~cloneable:false ~name:"source" (fun ctx ->
         for i = 1 to n do
           Engine.send ctx receiver (Payload.int i)
         done));
  Engine.run eng;
  check Alcotest.int (what ^ ": polls before delivery all miss, none park") 10
    !pre_polls;
  check (Alcotest.list Alcotest.int) (what ^ ": burst drained in order")
    (List.init n (fun i -> i + 1))
    (List.rev_map int_of_payload !post);
  check Alcotest.bool (what ^ ": and then the well is dry") true (!final = None)

(* A receiver parked on message 1 of three sent at one instant polls the
   moment it wakes. Each message is its own delivery event, and the
   receiver runs inside the first one's, so the poll finds nothing and
   the next two receives get messages 2 and 3, in every configuration.
   With the trace on, each acceptance comes right after its own
   delivery. *)
let wake_then_poll (what, make) =
  let eng = make () in
  let poll = ref None and rest = ref [] in
  let receiver =
    Engine.spawn eng ~cloneable:false ~name:"waker" (fun ctx ->
        ignore (Engine.receive ctx ());
        poll := Engine.receive_timeout ctx ~timeout:0. ();
        for _ = 1 to 2 do
          rest := (Engine.receive ctx ()).Message.payload :: !rest
        done)
  in
  ignore
    (Engine.spawn eng ~cloneable:false ~name:"source" (fun ctx ->
         for i = 1 to 3 do
           Engine.send ctx receiver (Payload.int i)
         done));
  Engine.run eng;
  check Alcotest.bool (what ^ ": the poll right after waking finds nothing") true
    (Option.is_none !poll);
  check (Alcotest.list Alcotest.int)
    (what ^ ": the next two receives get messages 2 and 3")
    [ 2; 3 ]
    (List.rev_map int_of_payload !rest);
  if what = "trace on" then
    check
      Alcotest.(list (pair string int))
      (what ^ ": each acceptance follows its own delivery")
      [ ("delivered", 1); ("accepted", 1); ("delivered", 2); ("accepted", 2);
        ("delivered", 3); ("accepted", 3) ]
      (List.filter_map
         (fun (_, e) ->
           match e with
           | Trace.Delivered { dest; msg } when Pid.equal dest receiver ->
             Some ("delivered", int_of_payload msg.Message.payload)
           | Trace.Accepted { dest; msg; _ } when Pid.equal dest receiver ->
             Some ("accepted", int_of_payload msg.Message.payload)
           | _ -> None)
         (Trace.events (Engine.trace eng)))

let test_zero_timeout_polls () =
  List.iter zero_timeout_polls observers;
  List.iter wake_then_poll observers

(* ---------------- a zero-delay timer between two sends ----------------

   A zero-delay timer that pops and runs between two sends at the same
   virtual time — here by filling an ivar whose parked waiter resumes
   synchronously inside the timer's event — must not reorder the two
   messages of the channel, and a pass-through delivery hook must see
   the same delivery sequence. *)

let deliveries eng =
  List.filter_map
    (function
      | _, Trace.Delivered { msg; _ } -> Some msg.Message.payload
      | _ -> None)
    (Trace.events (Engine.trace eng))

let run_timer_between_sends ~pass_through_hook =
  let eng = Engine.create () in
  if pass_through_hook then
    Engine.set_delivery_fault eng (Some (fun _ ~dest:_ -> true));
  let got = ref [] in
  let receiver =
    Engine.spawn eng ~cloneable:false ~name:"sink" (fun ctx ->
        for _ = 1 to 2 do
          got := (Engine.receive ctx ()).Message.payload :: !got
        done)
  in
  let iv = Engine.Ivar.create () in
  ignore
    (Engine.spawn eng ~cloneable:false ~name:"src" (fun ctx ->
         Engine.send ctx receiver (Payload.int 1);
         ignore (Engine.Ivar.read ctx iv);
         Engine.send ctx receiver (Payload.int 2)));
  (* Scheduled after src's start event at the same virtual time: it pops,
     fills the ivar, and src's continuation sends again synchronously
     inside the timer's event. *)
  Engine.after eng ~delay:0. (fun () -> ignore (Engine.Ivar.try_fill iv 0));
  Engine.run eng;
  (eng, List.rev !got)

let test_zero_delay_timer_between_sends () =
  let eng, got = run_timer_between_sends ~pass_through_hook:false in
  check
    (Alcotest.list Alcotest.int)
    "per-channel FIFO kept"
    [ 1; 2 ]
    (List.map (function Payload.Int i -> i | _ -> -1) got);
  (* Determinism: a pass-through delivery hook receives and traces the
     very same delivery sequence. *)
  let eng', got' = run_timer_between_sends ~pass_through_hook:true in
  check Alcotest.bool "received order matches the hooked run" true
    (got = got');
  check Alcotest.bool "traced delivery order matches too" true
    (deliveries eng = deliveries eng')

(* ---------------- model-based: two rings against a FIFO list ----------------

   Random operation sequences over two rings, so that each is also checked
   against disturbance by the other's traffic, checked after every step
   against a trivial reference: per ring, the live entries as a list in
   position order plus the tail position. Receive-by-tag takes the first
   entry with that tag; the head is the first live position (the tail
   when empty). *)

type m_entry = { e_pos : int; e_uid : int; e_tag : string }
type model = { mutable m_entries : m_entry list; mutable m_tail : int }

type op =
  | Push of int * string  (** ring, tag *)
  | Receive of int * string  (** first live entry with the tag, via cursor *)
  | Remove_nth of int * int  (** tombstone the n-th live entry (mod length) *)

let show_op = function
  | Push (r, t) -> Printf.sprintf "Push(%d,%s)" r t
  | Receive (r, t) -> Printf.sprintf "Receive(%d,%s)" r t
  | Remove_nth (r, n) -> Printf.sprintf "Remove_nth(%d,%d)" r n

let m_head m = match m.m_entries with [] -> m.m_tail | e :: _ -> e.e_pos

let m_append m ~uid ~tag =
  m.m_entries <- m.m_entries @ [ { e_pos = m.m_tail; e_uid = uid; e_tag = tag } ];
  m.m_tail <- m.m_tail + 1

let m_remove m e = m.m_entries <- List.filter (fun e' -> e' != e) m.m_entries

(* The ring's live entries in the model's shape. *)
let observe ring =
  List.map
    (fun (pos, m) ->
      { e_pos = pos; e_uid = int_of_payload m.Message.payload; e_tag = m.Message.tag })
    (entries ring)

let agree ring m =
  let facts =
    [
      ("length", Mailbox.length ring, List.length m.m_entries);
      ("head", Mailbox.head_pos ring, m_head m);
      ("tail", Mailbox.tail_pos ring, m.m_tail);
    ]
  in
  match List.find_opt (fun (_, got, want) -> got <> want) facts with
  | Some (what, got, want) -> Some (Printf.sprintf "%s: ring %d, model %d" what got want)
  | None ->
    if observe ring = m.m_entries then None
    else Some "entries (position, uid, tag) differ"

(* Receive-by-tag the way the engine does: scan from the tag's cursor
   (clamped to the head), remove the first match, and advance the cursor
   past everything the scan proved tag-free. *)
let ring_receive ring tag =
  let c = Mailbox.cursor ring tag in
  if c.Mailbox.cpos < Mailbox.head_pos ring then
    c.Mailbox.cpos <- Mailbox.head_pos ring;
  let rec scan pos =
    if pos >= Mailbox.tail_pos ring then None
    else
      let m = Mailbox.message_at ring pos in
      if m != Mailbox.no_message && m.Message.tag = tag then Some (pos, m)
      else scan (pos + 1)
  in
  match scan c.Mailbox.cpos with
  | None ->
    c.Mailbox.cpos <- Mailbox.tail_pos ring;
    None
  | Some (pos, m) ->
    Mailbox.remove ring pos;
    c.Mailbox.cpos <- pos + 1;
    Some (int_of_payload m.Message.payload)

let run_ops ops =
  let rings = [| Mailbox.create (); Mailbox.create () |] in
  let models = Array.init 2 (fun _ -> { m_entries = []; m_tail = 0 }) in
  let next_uid = ref 0 in
  List.iteri
    (fun step op ->
      let fail fmt =
        QCheck.Test.fail_reportf ("step %d %s: " ^^ fmt) step (show_op op)
      in
      (match op with
      | Push (r, tag) ->
        let uid = !next_uid in
        incr next_uid;
        push_one rings.(r) ~uid ~tag (Payload.int uid);
        m_append models.(r) ~uid ~tag
      | Receive (r, tag) -> (
        let want = List.find_opt (fun e -> e.e_tag = tag) models.(r).m_entries in
        let got = ring_receive rings.(r) tag in
        Option.iter (m_remove models.(r)) want;
        match (got, want) with
        | None, None -> ()
        | Some u, Some e when u = e.e_uid -> ()
        | _ -> fail "received uid %s, model %s"
                 (Option.fold ~none:"none" ~some:string_of_int got)
                 (Option.fold ~none:"none" ~some:(fun e -> string_of_int e.e_uid) want))
      | Remove_nth (r, n) -> (
        match models.(r).m_entries with
        | [] -> ()
        | es ->
          let e = List.nth es (n mod List.length es) in
          Mailbox.remove rings.(r) e.e_pos;
          m_remove models.(r) e));
      Array.iteri
        (fun r ring ->
          match agree ring models.(r) with
          | None -> ()
          | Some why -> fail "ring %d: %s" r why)
        rings)
    ops;
  true

let arb_ops =
  let open QCheck.Gen in
  let ring = int_bound 1 and tag = oneofl [ "a"; "b"; "c" ] in
  let op =
    frequency
      [
        (8, map2 (fun r t -> Push (r, t)) ring tag);
        (4, map2 (fun r t -> Receive (r, t)) ring tag);
        (2, map2 (fun r n -> Remove_nth (r, n)) ring (int_bound 15));
      ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat " " (List.map show_op ops))
    (list_size (int_range 1 80) op)

let prop_mailbox_matches_model =
  QCheck.Test.make ~name:"random ops agree with a FIFO-list model" ~count:500
    arb_ops run_ops

(* ---------------- model-based: delivery order against a reference ----------------

   Random programs: k senders, each a list of steps — send a tagged
   message with a padding of 0 to 240 bytes to one of two or three
   collecting receivers, delay (dyadic), fill / await one of two shared
   ivars, or await a collector's next receipt — under one of four cost
   models: latency 0 or 1/4, per-byte cost 0 or 1/256, so every virtual
   time stays exact. A fill resumes its waiters synchronously inside the
   filler's event, and one CPU tick resumes every sender whose delay
   ends then, so two senders' sends can interleave within one event. A
   collector fills its receipt ivar as it takes each message, so with
   zero cost a sender can be resumed inside the very delivery of its last
   message, at that message's time, and send again. With a size cost one
   sender's sends to different collectors fall due at different times,
   and a small message queues behind a larger one sent earlier on its
   (sender, collector) pair, whose FIFO clock binds, but not behind one
   to another collector.

   Each message is its own event, in (time, push order) order, so a
   collector gets its messages in a stable sort of the sends by (due
   time, global send index), where a send's due time is
   max (its pair's clock, send time + latency + size x per-byte cost) and
   becomes the pair's clock. With a per-tag receive, each collector sees
   that order's subsequence for its tag. *)

type step =
  | Send of { tag : string; dest : int; pad : int }
  | Delay of float
  | Fill of int
  | Await of int
  | Await_receipt of int  (** the collector's next receipt *)

let show_step = function
  | Send { tag; dest; pad } -> Printf.sprintf "send %s to c%d +%d" tag dest pad
  | Delay d -> Printf.sprintf "delay %g" d
  | Fill j -> Printf.sprintf "fill %d" j
  | Await j -> Printf.sprintf "await %d" j
  | Await_receipt c -> Printf.sprintf "await c%d" c

type program = {
  latency : float;
  per_byte : float;
  collectors : int;
  per_tag : string option;
  senders : step list list;
}

let show_program p =
  Printf.sprintf "latency %g, per-byte %g, %d collectors, receive %s; %s" p.latency
    p.per_byte p.collectors
    (Option.value p.per_tag ~default:"any")
    (String.concat " | "
       (List.map (fun s -> String.concat ", " (List.map show_step s)) p.senders))

(* A send as the reference sees it. *)
type sent = {
  s_now : float;
  s_k : int;
  s_sender : int;
  s_dest : int;
  s_tag : string;
  s_size : int;
}

let run_program p =
  let model =
    { (Cost_model.uniform ()) with msg_latency = p.latency; msg_per_byte = p.per_byte }
  in
  let eng = Engine.create ~model ~trace:false () in
  let ivars = Array.init 2 (fun _ -> Engine.Ivar.create ()) in
  let sent = ref [] and next = ref 0 in
  let got = Array.make p.collectors [] in
  let receipt = Array.init p.collectors (fun _ -> Engine.Ivar.create ()) in
  let collectors =
    Array.init p.collectors (fun c ->
        Engine.spawn eng ~cloneable:false ~name:(Printf.sprintf "c%d" c) (fun ctx ->
            while true do
              let m = Engine.receive ctx ?tag:p.per_tag () in
              let k =
                match m.Message.payload with
                | Payload.Pair (k, _) -> int_of_payload k
                | _ -> Alcotest.fail "not a pair"
              in
              got.(c) <- k :: got.(c);
              let iv = receipt.(c) in
              receipt.(c) <- Engine.Ivar.create ();
              ignore (Engine.Ivar.try_fill iv ())
            done))
  in
  List.iteri
    (fun i steps ->
      ignore
        (Engine.spawn eng ~cloneable:false ~name:(Printf.sprintf "s%d" i) (fun ctx ->
             List.iter
               (function
                 | Send { tag; dest; pad } ->
                   let k = !next in
                   incr next;
                   let payload =
                     Payload.Pair (Payload.int k, Payload.Str (String.make pad 'x'))
                   in
                   let s_size = Message.header_bytes + Payload.size_bytes payload in
                   let s_dest = dest mod p.collectors in
                   sent :=
                     { s_now = Engine.now eng; s_k = k; s_sender = i; s_dest; s_tag = tag; s_size }
                     :: !sent;
                   Engine.send ctx ~tag collectors.(s_dest) payload
                 | Delay d -> Engine.delay ctx d
                 | Fill j -> ignore (Engine.Ivar.try_fill ivars.(j) ())
                 | Await j -> Engine.Ivar.read ctx ivars.(j)
                 | Await_receipt c -> Engine.Ivar.read ctx receipt.(c mod p.collectors))
               steps)))
    p.senders;
  Engine.run eng;
  let clocks = Hashtbl.create 16 in
  let due =
    List.rev_map
      (fun s ->
        let earliest = s.s_now +. p.latency +. (float_of_int s.s_size *. p.per_byte) in
        let at =
          match Hashtbl.find_opt clocks (s.s_sender, s.s_dest) with
          | Some last when last > earliest -> last
          | _ -> earliest
        in
        Hashtbl.replace clocks (s.s_sender, s.s_dest) at;
        (at, s))
      (List.rev !sent)
    |> List.rev
  in
  let reference =
    List.stable_sort (fun (t1, s1) (t2, s2) -> compare (t1, s1.s_k) (t2, s2.s_k)) due
  in
  let mismatch =
    List.find_map
      (fun c ->
        let want =
          List.filter_map
            (fun (_, s) ->
              if s.s_dest <> c then None
              else match p.per_tag with Some t when t <> s.s_tag -> None | _ -> Some s.s_k)
            reference
        in
        let got = List.rev got.(c) in
        if got = want then None else Some (c, got, want))
      (List.init p.collectors Fun.id)
  in
  match mismatch with
  | None -> true
  | Some (c, got, want) ->
    let show l = String.concat "; " (List.map string_of_int l) in
    QCheck.Test.fail_reportf "collector c%d received [%s], per-message order [%s]" c
      (show got) (show want)

let arb_program =
  let open QCheck.Gen in
  let tag = oneofl [ "a"; "b" ] in
  let step =
    frequency
      [
        ( 4,
          map3
            (fun tag dest pad -> Send { tag; dest; pad })
            tag (int_bound 2) (oneofl [ 0; 16; 80; 240 ]) );
        (2, map (fun d -> Delay d) (oneofl [ 0.; 0.25; 0.5; 1. ]));
        (1, map (fun j -> Fill j) (int_bound 1));
        (1, map (fun j -> Await j) (int_bound 1));
        (1, map (fun c -> Await_receipt c) (int_bound 2));
      ]
  in
  let senders = int_range 1 4 >>= fun k -> list_repeat k (list_size (int_range 0 10) step) in
  let per_tag = frequency [ (1, return None); (1, map Option.some tag) ] in
  let program =
    map3
      (fun (latency, per_byte) (collectors, per_tag) senders ->
        { latency; per_byte; collectors; per_tag; senders })
      (pair (oneofl [ 0.; 0.25 ]) (oneofl [ 0.; 1. /. 256. ]))
      (pair (int_range 2 3) per_tag)
      senders
  in
  QCheck.make ~print:show_program program

let prop_delivery_order_matches_reference =
  QCheck.Test.make ~name:"delivery order is (time, send order)"
    ~count:1000 arb_program run_program

let () =
  Alcotest.run "mailbox"
    [
      ( "ring",
        [
          Alcotest.test_case "wrap-around keeps the pool flat" `Quick
            test_wraparound_stays_flat;
          Alcotest.test_case "overflow spills, never blocks" `Quick
            test_burst_grows_in_order;
          Alcotest.test_case "zero capacity is all-spill" `Quick
            test_growth_while_wrapped;
          Alcotest.test_case "one-slot ring" `Quick test_duplicate_copies_share_one_value;
          Alcotest.test_case "copy_excluding over framed and spilled" `Quick
            test_copy_excluding_drops_every_copy;
        ] );
      ( "aliasing",
        [
          Alcotest.test_case "frame recycle cannot corrupt a copy" `Quick
            test_traffic_cannot_reach_a_duplicate;
          Alcotest.test_case "duplicate fault copies do not alias" `Quick
            test_duplicate_copies_do_not_alias;
          Alcotest.test_case "spilled duplicates stay one logical send" `Quick
            test_duplicates_stay_one_logical_send;
          Alcotest.test_case "a delivered message is the sent value" `Quick
            test_delivered_message_is_the_sent_value;
        ] );
      ( "hot path",
        [
          Alcotest.test_case "per-tag cursor scan budget" `Quick
            test_tag_cursor_scan_budget;
          Alcotest.test_case "size stamped and payload frozen at send" `Quick
            test_size_stamped_and_payload_frozen_at_send;
          Alcotest.test_case "batched delivery vs zero-timeout polls" `Quick
            test_zero_timeout_polls;
          Alcotest.test_case "zero-delay timer between two sends" `Quick
            test_zero_delay_timer_between_sends;
        ] );
      ( "model",
        [
          QCheck_alcotest.to_alcotest prop_mailbox_matches_model;
          QCheck_alcotest.to_alcotest prop_delivery_order_matches_reference;
        ] );
    ]
