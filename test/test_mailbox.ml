(* Tests for the ring-buffer mailbox (lib/runtime/mailbox.ml, lib/msg/frame.ml)
   and the messaging hot-path fixes that ride on it:

   - pool recycling across wrap-around (the alloc-free steady state),
   - the spill path when a burst exceeds the frame pool (overflow spills,
     it never blocks: sends are asynchronous),
   - degenerate capacities (zero = all-spill, one slot),
   - world-split exclusion ([copy_excluding]) over framed/spilled mixes,
   - frame recycling vs duplicate aliasing (the latent bug a shared-slot
     implementation has: both regression-tested at the frame level and
     end-to-end through fault injection),
   - the per-tag receive cursor (the quadratic re-scan fix), with a hard
     budget on [Engine.stats_mailbox_scanned],
   - payload freezing and size stamping at send,
   - batched delivery interleaved with zero-timeout pure polls. *)

let check = Alcotest.check

let pid i = Pid.of_int i

let spilled_message ~uid ~tag payload =
  {
    Message.sender = pid 1;
    dest = pid 2;
    predicate = Predicate.empty;
    payload;
    tag;
    seq = uid;
    size = Message.header_bytes + Payload.size_bytes payload;
  }

let fill_one ring ~uid ~tag payload =
  (* Emplace the way the engine's send path does: a pooled frame while one
     is available, the spill path otherwise. *)
  if Mailbox.has_frame ring then
    Frame.fill (Mailbox.emplace_frame ring) ~sender:(pid 1) ~dest:(pid 2)
      ~predicate:Predicate.empty ~tag ~seq:uid ~uid
      ~size:(Message.header_bytes + Payload.size_bytes payload)
      ~cached:None payload
  else Mailbox.emplace_spilled ring (spilled_message ~uid ~tag payload)

let pop_front ring =
  let pos = Mailbox.head_pos ring in
  let m = Mailbox.message_at ring pos in
  Mailbox.remove ring pos;
  m

(* ---------------- ring mechanics ---------------- *)

(* Steady-state streaming through a small ring: positions wrap many times
   over, FIFO order holds throughout, and the frame pool never grows past
   its bound — the recycled frames are the whole point. *)
let test_wraparound_pool_stays_flat () =
  let ring = Mailbox.create ~capacity:8 () in
  let next_uid = ref 0 and expect = ref 0 in
  for _round = 1 to 500 do
    for _ = 1 to 3 do
      fill_one ring ~uid:!next_uid ~tag:"t" (Payload.int !next_uid);
      incr next_uid
    done;
    for _ = 1 to 3 do
      (match (pop_front ring).Message.payload with
      | Payload.Int i -> check Alcotest.int "FIFO across wrap" !expect i
      | _ -> Alcotest.fail "unexpected payload");
      incr expect
    done
  done;
  check Alcotest.int "ring drained" 0 (Mailbox.length ring);
  check Alcotest.bool "pool bounded" true (Mailbox.frames_made ring <= 8);
  check Alcotest.int "nothing ever spilled" 0 (Mailbox.spilled_total ring);
  check Alcotest.bool "positions wrapped many times" true
    (Mailbox.tail_pos ring > 8 * 100)

(* A burst deeper than the pool: the overflow takes the spill path and the
   ring keeps accepting (sends are asynchronous — there is nothing to
   block). Order is preserved across the framed/spilled boundary, and
   consuming the burst rearms the pool for the next one. *)
let test_overflow_spills_never_blocks () =
  let ring = Mailbox.create ~capacity:4 () in
  for i = 0 to 19 do
    fill_one ring ~uid:i ~tag:"t" (Payload.int i)
  done;
  check Alcotest.int "all 20 accepted" 20 (Mailbox.length ring);
  check Alcotest.int "pool exhausted at its bound" 4 (Mailbox.frames_made ring);
  check Alcotest.int "the rest spilled" 16 (Mailbox.spilled_total ring);
  for i = 0 to 19 do
    match (pop_front ring).Message.payload with
    | Payload.Int j -> check Alcotest.int "order across the boundary" i j
    | _ -> Alcotest.fail "unexpected payload"
  done;
  (* The consumed frames are back in the pool: a second burst frames its
     first 4 again without creating anything. *)
  for i = 100 to 104 do
    fill_one ring ~uid:i ~tag:"t" (Payload.int i)
  done;
  check Alcotest.int "no new frames for the second burst" 4
    (Mailbox.frames_made ring)

let test_zero_capacity_is_all_spill () =
  let ring = Mailbox.create ~capacity:0 () in
  check Alcotest.bool "never has a frame" false (Mailbox.has_frame ring);
  for i = 0 to 9 do
    fill_one ring ~uid:i ~tag:"t" (Payload.int i)
  done;
  check Alcotest.int "all spilled" 10 (Mailbox.spilled_total ring);
  check Alcotest.int "all held" 10 (Mailbox.length ring);
  for i = 0 to 9 do
    match (pop_front ring).Message.payload with
    | Payload.Int j -> check Alcotest.int "order" i j
    | _ -> Alcotest.fail "unexpected payload"
  done

let test_one_slot_ring () =
  let ring = Mailbox.create ~capacity:1 () in
  for i = 0 to 99 do
    fill_one ring ~uid:i ~tag:"t" (Payload.int i);
    match (pop_front ring).Message.payload with
    | Payload.Int j -> check Alcotest.int "ping-pong order" i j
    | _ -> Alcotest.fail "unexpected payload"
  done;
  check Alcotest.int "one frame ever made" 1 (Mailbox.frames_made ring);
  check Alcotest.int "nothing spilled" 0 (Mailbox.spilled_total ring)

(* ---------------- world-split exclusion ---------------- *)

let test_copy_excluding_framed_and_spilled () =
  let ring = Mailbox.create ~capacity:2 () in
  (* 0,1 framed; 2,3 spilled. *)
  for i = 0 to 3 do
    fill_one ring ~uid:i ~tag:"t" (Payload.int i)
  done;
  (* Exclude the framed uid 1. *)
  let c1 =
    Mailbox.copy_excluding ring ~uid:1 ~msg:(Mailbox.message_at ring 1)
  in
  check Alcotest.int "one framed entry excluded" 3 (Mailbox.length c1);
  (* Exclude the spilled entry at position 3 (uid -1: spilled entries are
     matched by physical message identity instead). *)
  let c2 =
    Mailbox.copy_excluding ring
      ~uid:(Mailbox.uid_at ring 3)
      ~msg:(Mailbox.message_at ring 3)
  in
  check Alcotest.int "one spilled entry excluded" 3 (Mailbox.length c2);
  (* The copy is independent: consuming from the original must not
     disturb the copy's content (frames were deep-copied). *)
  let before = (Mailbox.message_at c1 (Mailbox.head_pos c1)).Message.payload in
  ignore (pop_front ring);
  ignore (pop_front ring);
  let after = (Mailbox.message_at c1 (Mailbox.head_pos c1)).Message.payload in
  check Alcotest.bool "copy unaffected by original's consumption" true
    (Payload.equal before after)

(* ---------------- frame recycling vs aliasing ---------------- *)

(* The latent bug a shared-slot implementation has: if delivering (or
   duplicating) a frame shared the slot instead of deep-copying it, then
   consuming the original and letting a later send recycle the slot would
   rewrite the copy's bytes under it. [Frame.copy_into] is the fix; this
   pins it down. *)
let test_frame_recycle_cannot_corrupt_copy () =
  let src = Frame.create () in
  Frame.fill src ~sender:(pid 1) ~dest:(pid 2) ~predicate:Predicate.empty
    ~tag:"orig" ~seq:7 ~uid:42 ~size:25 ~cached:None (Payload.int 1234);
  let copy = Frame.create () in
  Frame.copy_into src copy;
  (* Recycle the source slot for an unrelated later send. *)
  Frame.clear src;
  Frame.fill src ~sender:(pid 9) ~dest:(pid 9) ~predicate:Predicate.empty
    ~tag:"evil" ~seq:8 ~uid:43 ~size:29 ~cached:None
    (Payload.str "overwrite");
  check Alcotest.bool "payload survived the recycle" true
    (Payload.equal (Payload.int 1234) (Frame.payload copy));
  check Alcotest.string "tag survived" "orig" (Frame.tag copy);
  check Alcotest.int "uid survived" 42 (Frame.uid copy)

(* End-to-end: a Duplicate fault injects two copies of one send. Each must
   be independently serialised — receiving both, interleaved with enough
   later traffic to recycle every slot, yields two intact copies. *)
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
        (* ...then drain the chaff that recycled the slots. *)
        for _ = 1 to n_chaff do
          ignore (Engine.receive ctx ~tag:"chaff" ())
        done)
  in
  ignore
    (Engine.spawn eng ~cloneable:false ~name:"source" (fun ctx ->
         Engine.send ctx ~tag:"dup" receiver (Payload.str "precious");
         for i = 1 to n_chaff do
           Engine.send ctx ~tag:"chaff" receiver (Payload.int i)
         done));
  Engine.run eng;
  match !got with
  | [ a; b ] ->
    check Alcotest.bool "first copy intact" true
      (Payload.equal a (Payload.str "precious"));
    check Alcotest.bool "second copy intact" true
      (Payload.equal b (Payload.str "precious"))
  | l -> Alcotest.failf "expected 2 copies, got %d" (List.length l)

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
           (* A fresh delivery batch per wanted message, so the receiver
              parks and rescans between them — the worst case for the old
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

(* ---------------- payload freezing / size stamping ---------------- *)

(* A message's wire size is stamped at send from the payload it carried at
   that moment, for framed (inline-encoded) and spilled (oversized)
   payloads alike — [Message.size_bytes] can no longer go stale relative
   to the payload, because the payload is frozen when it is serialised. *)
let test_size_stamped_and_payload_frozen_at_send () =
  let eng = Engine.create ~trace:false () in
  let small = Payload.int 7 in
  let big = Payload.str (String.make 200 'x') in
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
    check Alcotest.int "stamped size is live size" (Message.size_bytes m1)
      m1.Message.size;
    check Alcotest.bool "small payload round-trips" true
      (Payload.equal small m1.Message.payload);
    check Alcotest.int "oversized payload spills with its size intact"
      (Message.header_bytes + Payload.size_bytes big)
      m2.Message.size;
    check Alcotest.bool "oversized payload round-trips" true
      (Payload.equal big m2.Message.payload)
  | l -> Alcotest.failf "expected 2 messages, got %d" (List.length l)

(* ---------------- batched delivery vs zero-timeout polls ---------------- *)

(* [receive_timeout ~timeout:0.] is a pure poll: before the batch lands it
   must report None without parking; after the batch lands it must drain
   exactly the delivered messages in order. *)
let test_batch_vs_zero_timeout_polls () =
  let n = 50 in
  let eng = Engine.create ~trace:false () in
  let pre_polls = ref (-1) and post = ref [] and final = ref (Some []) in
  let receiver =
    Engine.spawn eng ~cloneable:false ~name:"poller" (fun ctx ->
        (* Sends are scheduled with a delivery latency: polls at t=0 run
           before the batch can possibly land. *)
        let misses = ref 0 in
        for _ = 1 to 10 do
          match Engine.receive_timeout ctx ~timeout:0. () with
          | None -> incr misses
          | Some _ -> ()
        done;
        pre_polls := !misses;
        (* Sleep past the batch's flush, then drain by pure polling. *)
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
  check Alcotest.int "polls before delivery all miss, none park" 10 !pre_polls;
  let drained = List.rev_map (function Payload.Int i -> i | _ -> -1) !post in
  check (Alcotest.list Alcotest.int) "batch drained in order"
    (List.init n (fun i -> i + 1))
    drained;
  check Alcotest.bool "and then the well is dry" true (!final = None)

(* ---------------- the batch-join guard vs zero-delay timers ----------------

   The open-batch join guard used to be "same flush time + unmoved
   event-queue stamp". The stamp counts only pushes: a zero-delay timer
   that pops and runs between two sends at the same virtual time — here by
   filling an ivar whose parked waiter resumes synchronously inside the
   timer's event — moves neither the stamp nor the flush time, so the
   second send silently joined a batch an event had ordered into. An
   intervening event must flush the open batch, which is why the guard
   also compares the engine's executed-event count. *)

let deliveries eng =
  Trace.find_all (Engine.trace eng) ~f:(function
    | Trace.Delivered _ -> true
    | _ -> false)
  |> List.map (function
       | _, Trace.Delivered { msg; _ } -> msg.Message.payload
       | _ -> Payload.Unit)

let run_timer_between_sends ~force_per_entry =
  let eng = Engine.create () in
  if force_per_entry then
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
  (* Scheduled after src's start event at the same virtual time: it pops
     (moving no stamp), fills the ivar, and src's continuation sends again
     synchronously inside the timer's event. *)
  Engine.after eng ~delay:0. (fun () -> ignore (Engine.Ivar.try_fill iv 0));
  Engine.run eng;
  (eng, List.rev !got)

let test_zero_delay_timer_flushes_open_batch () =
  let eng, got = run_timer_between_sends ~force_per_entry:false in
  let batches =
    Trace.count (Engine.trace eng) ~f:(function
      | Trace.Delivered_batch _ -> true
      | _ -> false)
  in
  check Alcotest.int "an intervening event flushed the open batch" 0 batches;
  check
    (Alcotest.list Alcotest.int)
    "per-channel FIFO kept"
    [ 1; 2 ]
    (List.map (function Payload.Int i -> i | _ -> -1) got);
  (* Determinism: the forced per-entry path receives and traces the very
     same delivery sequence. *)
  let eng', got' = run_timer_between_sends ~force_per_entry:true in
  check Alcotest.bool "received order matches the per-entry path" true
    (got = got');
  check Alcotest.bool "traced delivery order matches too" true
    (deliveries eng = deliveries eng');
  (* Control: two back-to-back sends in one event still batch — the new
     guard only breaks joins an event ordered into. *)
  let eng2 = Engine.create () in
  let r2 =
    Engine.spawn eng2 ~cloneable:false ~name:"sink" (fun ctx ->
        for _ = 1 to 2 do
          ignore (Engine.receive ctx ())
        done)
  in
  ignore
    (Engine.spawn eng2 ~cloneable:false ~name:"src" (fun ctx ->
         Engine.send ctx r2 (Payload.int 1);
         Engine.send ctx r2 (Payload.int 2)));
  Engine.run eng2;
  check Alcotest.int "uninterrupted sends still coalesce" 1
    (Trace.count (Engine.trace eng2) ~f:(function
      | Trace.Delivered_batch { count = 2; _ } -> true
      | _ -> false))

(* ---------------- spilled duplicates (fault injection) ----------------

   [F_duplicate] on a send whose outbox entry takes the spill path
   (uid = -1 inside the ring) pushes two entries sharing one immutable
   cached message. The shared value must behave as one logical send:
   receivers see both copies adjacent in FIFO order, the copies are
   physically identical (so they cannot diverge, and physical-identity /
   (sender, seq) dedup — what [Majority] uses — collapses them to one),
   and the batched flush path agrees byte-for-byte with the per-entry
   path. *)
let run_burst_with_duplicates ~trace ~n =
  let eng = Engine.create ~trace () in
  (* Duplicate every data message; the burst of [n] in a single event
     overflows the sender's 64-frame outbox pool, so the tail entries —
     and their duplicates — are spilled, not framed. *)
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

let test_spilled_duplicates_stay_one_logical_send () =
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
  (* Physical identity: both copies of a spilled send are the one shared
     immutable message — aliasing cannot make them diverge, and dedup by
     physical identity (or (sender, seq), as Majority tallies votes)
     counts one vote. Sampled well past the 64-frame pool. *)
  let copies s = List.filter (fun m -> m.Message.seq = s) got in
  (match copies 90 with
  | [ a; b ] ->
    check Alcotest.bool "spilled duplicate shares the message value" true
      (a == b)
  | l -> Alcotest.failf "expected 2 copies of seq 90, got %d" (List.length l));
  let distinct = Hashtbl.create 64 in
  List.iter
    (fun m -> Hashtbl.replace distinct (m.Message.sender, m.Message.seq) ())
    got;
  check Alcotest.int "dedup collapses every pair to one logical send" n
    (Hashtbl.length distinct);
  (* The per-entry (traced) path delivers the identical sequence. *)
  let got' = run_burst_with_duplicates ~trace:true ~n in
  check Alcotest.bool "batched path = per-entry path" true
    (List.map (fun m -> (m.Message.seq, m.Message.payload)) got
    = List.map (fun m -> (m.Message.seq, m.Message.payload)) got')

(* ---------------- bulk transfer / adoption ---------------- *)

let test_transfer_into_empty_ring_adopts () =
  let src = Mailbox.create ~capacity:4 () in
  for i = 0 to 9 do
    fill_one src ~uid:i ~tag:"t" (Payload.int i)
  done;
  let dst = Mailbox.create ~capacity:4 () in
  ignore (Mailbox.cursor dst "t");
  Mailbox.transfer_upto src ~upto:(Mailbox.tail_pos src) dst;
  check Alcotest.int "all moved" 10 (Mailbox.length dst);
  check Alcotest.int "source empty" 0 (Mailbox.length src);
  let c = Mailbox.cursor dst "t" in
  check Alcotest.int "destination cursor reset to the adopted head"
    (Mailbox.head_pos dst) c.Mailbox.cpos;
  for i = 0 to 9 do
    match (pop_front dst).Message.payload with
    | Payload.Int j -> check Alcotest.int "order preserved" i j
    | _ -> Alcotest.fail "unexpected payload"
  done;
  (* The source inherited usable (empty) state: it keeps working. *)
  fill_one src ~uid:100 ~tag:"t" (Payload.int 100);
  check Alcotest.int "source reusable after adoption" 1 (Mailbox.length src)

let test_transfer_into_nonempty_ring_copies () =
  let src = Mailbox.create ~capacity:2 () in
  for i = 10 to 14 do
    fill_one src ~uid:i ~tag:"t" (Payload.int i)
  done;
  let dst = Mailbox.create ~capacity:2 () in
  fill_one dst ~uid:0 ~tag:"t" (Payload.int 0);
  Mailbox.transfer_upto src ~upto:(Mailbox.tail_pos src) dst;
  check Alcotest.int "appended behind the resident entry" 6
    (Mailbox.length dst);
  check Alcotest.int "source drained" 0 (Mailbox.length src);
  let expected = [ 0; 10; 11; 12; 13; 14 ] in
  List.iter
    (fun e ->
      match (pop_front dst).Message.payload with
      | Payload.Int j -> check Alcotest.int "arrival order" e j
      | _ -> Alcotest.fail "unexpected payload")
    expected

(* Regression: whole-batch adoption used to skip the spill accounting the
   per-entry path records. A destination that adopts a batch containing
   spilled entries must show exactly the [spilled_total] the copying path
   would have produced — the two flush paths are required to be
   indistinguishable. Pre-fix this reported 0 after an adoption. *)
let test_adoption_spilled_accounting_matches_copy_path () =
  let mk_src () =
    let src = Mailbox.create ~capacity:4 () in
    for i = 0 to 9 do
      fill_one src ~uid:i ~tag:"t" (Payload.int i)
    done;
    src
  in
  (* Reference: the forced per-entry path (a partial transfer first, so
     the adoption guard never applies). *)
  let src = mk_src () in
  let dst_copy = Mailbox.create ~capacity:4 () in
  Mailbox.transfer_upto src ~upto:(Mailbox.head_pos src + 1) dst_copy;
  Mailbox.transfer_upto src ~upto:(Mailbox.tail_pos src) dst_copy;
  (* Same batch through the O(1) adoption path. *)
  let src = mk_src () in
  let dst_adopt = Mailbox.create ~capacity:4 () in
  Mailbox.transfer_upto src ~upto:(Mailbox.tail_pos src) dst_adopt;
  check Alcotest.int "both paths moved everything" (Mailbox.length dst_copy)
    (Mailbox.length dst_adopt);
  check Alcotest.int "source spilled 6 of 10" 6 (Mailbox.spilled_total src);
  check Alcotest.int "adoption accounts the spilled entries"
    (Mailbox.spilled_total dst_copy)
    (Mailbox.spilled_total dst_adopt);
  check Alcotest.int "live spill census matches too"
    (Mailbox.spilled_live dst_copy)
    (Mailbox.spilled_live dst_adopt);
  check Alcotest.int "source's live spill census drained" 0
    (Mailbox.spilled_live src);
  (* Draining returns the census to zero while the totals stay put. *)
  for i = 0 to 9 do
    match (pop_front dst_adopt).Message.payload with
    | Payload.Int j -> check Alcotest.int "adopted order" i j
    | _ -> Alcotest.fail "unexpected payload"
  done;
  check Alcotest.int "drained census" 0 (Mailbox.spilled_live dst_adopt);
  check Alcotest.int "total is monotone" 6 (Mailbox.spilled_total dst_adopt)

(* The destination pool exhausting mid-batch: the first entries of the
   transfer land in destination frames, the rest spill — and the
   spilled-vs-framed interleaving must preserve per-channel FIFO order
   exactly (locking the current behavior, which is correct: entries are
   appended in position order whichever representation they take). *)
let test_transfer_fifo_when_dst_pool_exhausts_mid_batch () =
  let src = Mailbox.create ~capacity:8 () in
  for i = 10 to 17 do
    fill_one src ~uid:i ~tag:"t" (Payload.int i)
  done;
  (* Two resident framed entries leave the 4-frame destination pool with
     only two free frames for an 8-entry batch. *)
  let dst = Mailbox.create ~capacity:4 () in
  fill_one dst ~uid:0 ~tag:"t" (Payload.int 0);
  fill_one dst ~uid:1 ~tag:"t" (Payload.int 1);
  Mailbox.transfer_upto src ~upto:(Mailbox.tail_pos src) dst;
  check Alcotest.int "all appended" 10 (Mailbox.length dst);
  check Alcotest.int "pool stayed at its bound" 4 (Mailbox.frames_made dst);
  check Alcotest.int "overflow of the batch spilled" 6
    (Mailbox.spilled_total dst);
  check Alcotest.int "spill census agrees" 6 (Mailbox.spilled_live dst);
  List.iteri
    (fun k e ->
      match (pop_front dst).Message.payload with
      | Payload.Int j ->
        check Alcotest.int (Printf.sprintf "FIFO across the boundary @%d" k) e j
      | _ -> Alcotest.fail "unexpected payload")
    [ 0; 1; 10; 11; 12; 13; 14; 15; 16; 17 ];
  check Alcotest.int "census zero after drain" 0 (Mailbox.spilled_live dst)

let test_drop_upto_discards () =
  let ring = Mailbox.create ~capacity:2 () in
  for i = 0 to 5 do
    fill_one ring ~uid:i ~tag:"t" (Payload.int i)
  done;
  Mailbox.drop_upto ring ~upto:(Mailbox.head_pos ring + 4);
  check Alcotest.int "four dropped" 2 (Mailbox.length ring);
  (match (pop_front ring).Message.payload with
  | Payload.Int j -> check Alcotest.int "survivors keep order" 4 j
  | _ -> Alcotest.fail "unexpected payload");
  check Alcotest.bool "dropped frames back in the pool" true
    (Mailbox.has_frame ring)

(* ---------------- model-based: two rings against a FIFO list ----------------

   Random operation sequences over two rings (an outbox and a mailbox, as
   a channel pairs them), checked after every step against a trivial
   reference: per ring, the live entries as a list in position order plus
   the tail position. Receive-by-tag takes the first entry with that tag;
   the head is the first live position (the tail when empty); an entry
   takes a pooled frame iff fewer than [capacity] framed entries are live;
   a transfer of the whole content into an empty ring of the same capacity
   adopts it (positions and representations move as they are), any other
   transfer appends copies that spill once the destination's frames run
   out. *)

type m_entry = { e_pos : int; e_uid : int; e_tag : string; e_spilled : bool }

type model = {
  m_cap : int;
  mutable m_entries : m_entry list;
  mutable m_tail : int;
  mutable m_spilled_total : int;
}

type op =
  | Push of int * string  (** ring, tag: a frame if one is free, else spill *)
  | Push_spilled of int * string
  | Receive of int * string  (** first live entry with the tag, via cursor *)
  | Remove_nth of int * int  (** tombstone the n-th live entry (mod length) *)
  | Transfer of int * int  (** [transfer_upto ~upto:(head + k)] to the other *)
  | Drop of int * int  (** [drop_upto ~upto:(head + k)] *)

let show_op = function
  | Push (r, t) -> Printf.sprintf "Push(%d,%s)" r t
  | Push_spilled (r, t) -> Printf.sprintf "Push_spilled(%d,%s)" r t
  | Receive (r, t) -> Printf.sprintf "Receive(%d,%s)" r t
  | Remove_nth (r, n) -> Printf.sprintf "Remove_nth(%d,%d)" r n
  | Transfer (r, k) -> Printf.sprintf "Transfer(%d,%d)" r k
  | Drop (r, k) -> Printf.sprintf "Drop(%d,%d)" r k

let m_framed m = List.length (List.filter (fun e -> not e.e_spilled) m.m_entries)

let m_head m = match m.m_entries with [] -> m.m_tail | e :: _ -> e.e_pos

let m_append m ~uid ~tag ~spilled =
  let spilled = spilled || m_framed m >= m.m_cap in
  m.m_entries <-
    m.m_entries @ [ { e_pos = m.m_tail; e_uid = uid; e_tag = tag; e_spilled = spilled } ];
  m.m_tail <- m.m_tail + 1;
  if spilled then m.m_spilled_total <- m.m_spilled_total + 1

let m_remove m e = m.m_entries <- List.filter (fun e' -> e' != e) m.m_entries

let m_transfer src ~upto dst =
  let upto = min upto src.m_tail in
  if upto > m_head src then
    if dst.m_entries = [] && upto = src.m_tail && dst.m_cap = src.m_cap then begin
      let dst_tail = dst.m_tail in
      dst.m_entries <- src.m_entries;
      dst.m_tail <- src.m_tail;
      dst.m_spilled_total <-
        dst.m_spilled_total
        + List.length (List.filter (fun e -> e.e_spilled) src.m_entries);
      src.m_entries <- [];
      src.m_tail <- dst_tail
    end
    else begin
      let moved, kept = List.partition (fun e -> e.e_pos < upto) src.m_entries in
      src.m_entries <- kept;
      List.iter
        (fun e -> m_append dst ~uid:e.e_uid ~tag:e.e_tag ~spilled:e.e_spilled)
        moved
    end

let uid_of_message m =
  match m.Message.payload with Payload.Int i -> i | _ -> -1

(* The ring's live entries in the model's shape. *)
let observe ring =
  let acc = ref [] in
  for pos = Mailbox.head_pos ring to Mailbox.tail_pos ring - 1 do
    if Mailbox.occupied_at ring pos then
      acc :=
        {
          e_pos = pos;
          e_uid = uid_of_message (Mailbox.message_at ring pos);
          e_tag = Mailbox.tag_at ring pos;
          e_spilled = Mailbox.uid_at ring pos = -1;
        }
        :: !acc
  done;
  List.rev !acc

let agree ring m =
  let facts =
    [
      ("length", Mailbox.length ring, List.length m.m_entries);
      ("head", Mailbox.head_pos ring, m_head m);
      ("tail", Mailbox.tail_pos ring, m.m_tail);
      ( "spilled_live",
        Mailbox.spilled_live ring,
        List.length (List.filter (fun e -> e.e_spilled) m.m_entries) );
      ("spilled_total", Mailbox.spilled_total ring, m.m_spilled_total);
      ( "has_frame",
        Bool.to_int (Mailbox.has_frame ring),
        Bool.to_int (m_framed m < m.m_cap) );
    ]
  in
  match List.find_opt (fun (_, got, want) -> got <> want) facts with
  | Some (what, got, want) -> Some (Printf.sprintf "%s: ring %d, model %d" what got want)
  | None ->
    if observe ring = m.m_entries then None
    else Some "entries (position, uid, tag, representation) differ"

(* Receive-by-tag the way the engine does: scan from the tag's cursor
   (clamped to the head), remove the first match, and advance the cursor
   past everything the scan proved tag-free. *)
let ring_receive ring tag =
  let c = Mailbox.cursor ring tag in
  if c.Mailbox.cpos < Mailbox.head_pos ring then
    c.Mailbox.cpos <- Mailbox.head_pos ring;
  let rec scan pos =
    if pos >= Mailbox.tail_pos ring then None
    else if Mailbox.occupied_at ring pos && Mailbox.tag_at ring pos = tag then
      Some pos
    else scan (pos + 1)
  in
  match scan c.Mailbox.cpos with
  | None ->
    c.Mailbox.cpos <- Mailbox.tail_pos ring;
    None
  | Some pos ->
    let uid = uid_of_message (Mailbox.message_at ring pos) in
    Mailbox.remove ring pos;
    c.Mailbox.cpos <- pos + 1;
    Some uid

let run_ops (cap_a, cap_b, ops) =
  let rings = [| Mailbox.create ~capacity:cap_a (); Mailbox.create ~capacity:cap_b () |] in
  let models =
    Array.map
      (fun cap -> { m_cap = cap; m_entries = []; m_tail = 0; m_spilled_total = 0 })
      [| cap_a; cap_b |]
  in
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
        fill_one rings.(r) ~uid ~tag (Payload.int uid);
        m_append models.(r) ~uid ~tag ~spilled:false
      | Push_spilled (r, tag) ->
        let uid = !next_uid in
        incr next_uid;
        Mailbox.emplace_spilled rings.(r) (spilled_message ~uid ~tag (Payload.int uid));
        m_append models.(r) ~uid ~tag ~spilled:true
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
          m_remove models.(r) e)
      | Transfer (r, k) ->
        let upto = m_head models.(r) + k in
        Mailbox.transfer_upto rings.(r) ~upto rings.(1 - r);
        m_transfer models.(r) ~upto models.(1 - r)
      | Drop (r, k) ->
        let m = models.(r) in
        let upto = m_head m + k in
        Mailbox.drop_upto rings.(r) ~upto;
        m.m_entries <- List.filter (fun e -> e.e_pos >= upto) m.m_entries);
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
        (6, map2 (fun r t -> Push (r, t)) ring tag);
        (2, map2 (fun r t -> Push_spilled (r, t)) ring tag);
        (4, map2 (fun r t -> Receive (r, t)) ring tag);
        (2, map2 (fun r n -> Remove_nth (r, n)) ring (int_bound 15));
        (3, map2 (fun r k -> Transfer (r, k)) ring (int_bound 12));
        (1, map2 (fun r k -> Drop (r, k)) ring (int_bound 12));
      ]
  in
  (* Equal capacities most of the time, so whole-ring adoption happens;
     otherwise the destination's pool differs and every transfer copies. *)
  let caps =
    oneofl [ 0; 1; 2; 4; 8 ] >>= fun a ->
    frequency [ (3, return (a, a)); (1, map (fun b -> (a, b)) (oneofl [ 0; 1; 4 ])) ]
  in
  QCheck.make
    ~print:(fun (a, b, ops) ->
      Printf.sprintf "caps %d/%d: %s" a b (String.concat " " (List.map show_op ops)))
    (map2 (fun (a, b) ops -> (a, b, ops)) caps (list_size (int_range 1 80) op))

let prop_mailbox_matches_model =
  QCheck.Test.make ~name:"random ops agree with a FIFO-list model" ~count:500
    arb_ops run_ops

let () =
  Alcotest.run "mailbox"
    [
      ( "ring",
        [
          Alcotest.test_case "wrap-around keeps the pool flat" `Quick
            test_wraparound_pool_stays_flat;
          Alcotest.test_case "overflow spills, never blocks" `Quick
            test_overflow_spills_never_blocks;
          Alcotest.test_case "zero capacity is all-spill" `Quick
            test_zero_capacity_is_all_spill;
          Alcotest.test_case "one-slot ring" `Quick test_one_slot_ring;
          Alcotest.test_case "copy_excluding over framed and spilled" `Quick
            test_copy_excluding_framed_and_spilled;
        ] );
      ( "aliasing",
        [
          Alcotest.test_case "frame recycle cannot corrupt a copy" `Quick
            test_frame_recycle_cannot_corrupt_copy;
          Alcotest.test_case "duplicate fault copies do not alias" `Quick
            test_duplicate_copies_do_not_alias;
          Alcotest.test_case "spilled duplicates stay one logical send" `Quick
            test_spilled_duplicates_stay_one_logical_send;
        ] );
      ( "hot path",
        [
          Alcotest.test_case "per-tag cursor scan budget" `Quick
            test_tag_cursor_scan_budget;
          Alcotest.test_case "size stamped and payload frozen at send" `Quick
            test_size_stamped_and_payload_frozen_at_send;
          Alcotest.test_case "batched delivery vs zero-timeout polls" `Quick
            test_batch_vs_zero_timeout_polls;
          Alcotest.test_case "zero-delay timer flushes the open batch" `Quick
            test_zero_delay_timer_flushes_open_batch;
        ] );
      ( "bulk",
        [
          Alcotest.test_case "transfer into empty ring adopts" `Quick
            test_transfer_into_empty_ring_adopts;
          Alcotest.test_case "transfer into non-empty ring copies" `Quick
            test_transfer_into_nonempty_ring_copies;
          Alcotest.test_case "adoption spilled accounting = copy path" `Quick
            test_adoption_spilled_accounting_matches_copy_path;
          Alcotest.test_case "FIFO when destination pool exhausts mid-batch"
            `Quick test_transfer_fifo_when_dst_pool_exhausts_mid_batch;
          Alcotest.test_case "drop_upto discards a prefix" `Quick
            test_drop_upto_discards;
        ] );
      ("model", [ QCheck_alcotest.to_alcotest prop_mailbox_matches_model ]);
    ]
