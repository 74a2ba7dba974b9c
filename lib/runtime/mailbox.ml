(* A ring-buffer mailbox with a bounded pool of preallocated frames.

   Used both as a receiver's mailbox and as a channel's outbox. Entries
   are addressed by *absolute* monotone positions: [head] is the first
   position that may still hold a live entry, [tail] is one past the
   newest. A position maps to a physical slot by masking with the
   (power-of-two) slot-array length, so positions survive growth and
   removal — the engine's per-tag receive cursors depend on that
   stability.

   Each entry is either *framed* — its payload serialised in place into
   one of at most [capacity] pooled frames, the alloc-free fast path —
   or *spilled* — a plain immutable [Message.t], the overflow path taken
   when every pooled frame is in flight (a burst deeper than the ring's
   capacity). Frames are recycled through a free stack as entries are
   consumed, so sustained traffic that stays within capacity touches the
   heap only for the growable one-word-per-slot position arrays. Spilled
   entries deliberately cost what the pre-ring engine paid per message,
   no more: senders are asynchronous, so overflow degrades to heap
   messages rather than blocking.

   Removal from the middle tombstones the entry in place (the frame goes
   back to the pool); [head] advances only over leading tombstones. *)

type cursor = { ctag : string; mutable cpos : int }

(* Physical slot [i] holds a framed entry iff [frames.(i) != Frame.dummy]
   (equivalently: its frame is occupied), a spilled entry iff
   [msgs.(i) != no_msg]; never both. *)
type t = {
  mutable frames : Frame.t array;  (* pooled frame or [Frame.dummy] *)
  mutable msgs : Message.t array;  (* spilled message or [no_msg] *)
  mutable head : int;
  mutable tail : int;
  mutable live : int;  (* occupied entries in [head, tail) *)
  pool_cap : int;  (* bound on pooled frames *)
  mutable pool : Frame.t array;  (* free frames, a stack in [0, pool_n) *)
  mutable pool_n : int;
  mutable pool_made : int;  (* frames created so far, <= pool_cap *)
  mutable spilled_total : int;  (* entries that took the overflow path *)
  mutable spilled_live : int;  (* spilled entries currently in [head, tail) *)
  mutable cursors : cursor list;  (* per-tag receive cursors *)
}

let default_capacity = 64

(* Sentinel for empty / framed slots in [msgs]; compared physically. *)
let no_msg : Message.t =
  {
    Message.sender = Pid.of_int (-1);
    dest = Pid.of_int (-1);
    predicate = Predicate.empty;
    payload = Payload.Unit;
    tag = "";
    seq = -1;
    size = 0;
  }

let empty_frames : Frame.t array = [||]
let empty_msgs : Message.t array = [||]

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (k * 2)

let create ?(capacity = default_capacity) () =
  if capacity < 0 then invalid_arg "Mailbox.create: negative capacity";
  let cap = if capacity = 0 then 0 else pow2_at_least capacity 1 in
  {
    frames = empty_frames;
    msgs = empty_msgs;
    head = 0;
    tail = 0;
    live = 0;
    pool_cap = cap;
    pool = empty_frames;
    pool_n = 0;
    pool_made = 0;
    spilled_total = 0;
    spilled_live = 0;
    cursors = [];
  }

let length t = t.live
let is_empty t = t.live = 0
let capacity t = t.pool_cap
let head_pos t = t.head
let tail_pos t = t.tail
let frames_made t = t.pool_made
let spilled_total t = t.spilled_total
let spilled_live t = t.spilled_live

let grow_to t ncap =
  let ocap = Array.length t.frames in
  let omask = ocap - 1 and nmask = ncap - 1 in
  let nframes = Array.make ncap Frame.dummy in
  let nmsgs = Array.make ncap no_msg in
  for pos = t.head to t.tail - 1 do
    (* Consecutive positions stay distinct mod the larger length, so live
       entries keep their absolute positions across growth. *)
    nframes.(pos land nmask) <- t.frames.(pos land omask);
    nmsgs.(pos land nmask) <- t.msgs.(pos land omask)
  done;
  t.frames <- nframes;
  t.msgs <- nmsgs

let grow t =
  (* Quadrupling (not doubling) keeps the total words ever allocated for
     position arrays near 1.3x the final size: these arrays are the only
     per-entry heap cost of a deep burst, so the growth schedule shows up
     directly in words-per-message. *)
  let ocap = Array.length t.frames in
  grow_to t (if ocap = 0 then 8 else ocap * 4)

let ensure_room t =
  if t.tail - t.head >= Array.length t.frames then grow t

let reserve t extra =
  (* Size for a known burst in one step instead of climbing the growth
     ladder (each rung would allocate an intermediate array and re-home
     every live entry into it). *)
  let need = t.tail - t.head + extra in
  if need > Array.length t.frames then grow_to t (pow2_at_least need 8)

let has_frame t = t.pool_n > 0 || t.pool_made < t.pool_cap

let take_frame t =
  if t.pool_n > 0 then begin
    t.pool_n <- t.pool_n - 1;
    Array.unsafe_get t.pool t.pool_n
  end
  else begin
    t.pool_made <- t.pool_made + 1;
    Frame.create ()
  end

let give_back t fr =
  if Array.length t.pool = 0 then t.pool <- Array.make t.pool_cap Frame.dummy;
  Array.unsafe_set t.pool t.pool_n fr;
  t.pool_n <- t.pool_n + 1

let emplace_frame t =
  ensure_room t;
  let fr = take_frame t in
  t.frames.(t.tail land (Array.length t.frames - 1)) <- fr;
  t.tail <- t.tail + 1;
  t.live <- t.live + 1;
  fr

let emplace_spilled t m =
  ensure_room t;
  t.msgs.(t.tail land (Array.length t.msgs - 1)) <- m;
  t.tail <- t.tail + 1;
  t.live <- t.live + 1;
  t.spilled_total <- t.spilled_total + 1;
  t.spilled_live <- t.spilled_live + 1

let frame_at t pos =
  Array.unsafe_get t.frames (pos land (Array.length t.frames - 1))

let spilled_at t pos =
  Array.unsafe_get t.msgs (pos land (Array.length t.msgs - 1))

let occupied_at t pos =
  Frame.occupied (frame_at t pos) || spilled_at t pos != no_msg

let tag_at t pos =
  let fr = frame_at t pos in
  if Frame.occupied fr then Frame.tag fr else (spilled_at t pos).Message.tag

let sender_at t pos =
  let fr = frame_at t pos in
  if Frame.occupied fr then Frame.sender fr
  else (spilled_at t pos).Message.sender

let predicate_at t pos =
  let fr = frame_at t pos in
  if Frame.occupied fr then Frame.predicate fr
  else (spilled_at t pos).Message.predicate

let message_at t pos =
  let fr = frame_at t pos in
  if Frame.occupied fr then Frame.message fr else spilled_at t pos

let uid_at t pos =
  let fr = frame_at t pos in
  if Frame.occupied fr then Frame.uid fr else -1

let remove t pos =
  let i = pos land (Array.length t.frames - 1) in
  let fr = Array.unsafe_get t.frames i in
  let removed =
    if Frame.occupied fr then begin
      Frame.clear fr;
      Array.unsafe_set t.frames i Frame.dummy;
      give_back t fr;
      true
    end
    else if Array.unsafe_get t.msgs i != no_msg then begin
      Array.unsafe_set t.msgs i no_msg;
      t.spilled_live <- t.spilled_live - 1;
      true
    end
    else false
  in
  if removed then begin
    t.live <- t.live - 1;
    while t.head < t.tail && not (occupied_at t t.head) do
      t.head <- t.head + 1
    done
  end

let no_message = no_msg

(* Bulk operations for batched delivery: the flush path hands a whole
   contiguous run of outbox entries to one destination, so moving them
   with one call (and setting [head] once) beats per-entry remove+advance
   on the hot path. *)

(* Whole-batch adoption: when the destination is empty and the batch is
   the source's entire content, the destination takes the source's slot
   arrays and frame pool wholesale and the source inherits the (empty)
   arrays and pool the destination held. O(1) instead of O(batch), and in
   a streaming steady state the two rings simply circulate one set of
   arrays and frames between them. Entry content is bit-for-bit what the
   copying path would have produced: framed entries keep their serialised
   bytes, spilled entries keep their shared message value. *)
let adopt t dst =
  let fr = dst.frames and ms = dst.msgs and pl = dst.pool in
  let pn = dst.pool_n and pm = dst.pool_made in
  let pos = dst.tail in
  dst.frames <- t.frames;
  dst.msgs <- t.msgs;
  dst.head <- t.head;
  dst.tail <- t.tail;
  dst.live <- t.live;
  dst.pool <- t.pool;
  dst.pool_n <- t.pool_n;
  dst.pool_made <- t.pool_made;
  (* Adopted spilled entries took the overflow path into [dst] exactly as
     the copying path's [emplace_spilled] would have recorded: without
     this, [spilled_total] on the destination silently under-counts by the
     whole adopted batch and diverges from the copying path. [dst] is
     empty (adoption precondition), so its own [spilled_live] is 0. *)
  dst.spilled_total <- dst.spilled_total + t.spilled_live;
  dst.spilled_live <- t.spilled_live;
  t.frames <- fr;
  t.msgs <- ms;
  t.pool <- pl;
  t.pool_n <- pn;
  t.pool_made <- pm;
  t.head <- pos;
  t.tail <- pos;
  t.live <- 0;
  t.spilled_live <- 0;
  (* Both rings' absolute numbering just jumped; cursors are lower bounds
     tied to the old numbering, so reset them to the new heads. *)
  List.iter (fun c -> c.cpos <- dst.head) dst.cursors;
  List.iter (fun c -> c.cpos <- t.head) t.cursors

let transfer_upto t ~upto dst =
  let upto = if upto > t.tail then t.tail else upto in
  if upto > t.head then
    if dst.live = 0 && upto = t.tail && dst.pool_cap = t.pool_cap then
      adopt t dst
    else begin
    reserve dst (upto - t.head);
    let mask = Array.length t.frames - 1 in
    for pos = t.head to upto - 1 do
      let i = pos land mask in
      let fr = Array.unsafe_get t.frames i in
      if Frame.occupied fr then begin
        (* Framed entries deep-copy into a destination frame (both rings
           recycle independently), or materialise and spill when the
           destination pool is exhausted. *)
        (if has_frame dst then Frame.copy_into fr (emplace_frame dst)
         else emplace_spilled dst (Frame.message fr));
        Frame.clear fr;
        Array.unsafe_set t.frames i Frame.dummy;
        give_back t fr;
        t.live <- t.live - 1
      end
      else begin
        let m = Array.unsafe_get t.msgs i in
        if m != no_msg then begin
          (* Spilled entries share the immutable message value, exactly
             like the old heap path delivered it. *)
          emplace_spilled dst m;
          Array.unsafe_set t.msgs i no_msg;
          t.live <- t.live - 1;
          t.spilled_live <- t.spilled_live - 1
        end
      end
    done;
    t.head <- upto;
    while t.head < t.tail && not (occupied_at t t.head) do
      t.head <- t.head + 1
    done
  end

let drop_upto t ~upto =
  let upto = if upto > t.tail then t.tail else upto in
  if upto > t.head then begin
    let mask = Array.length t.frames - 1 in
    for pos = t.head to upto - 1 do
      let i = pos land mask in
      let fr = Array.unsafe_get t.frames i in
      if Frame.occupied fr then begin
        Frame.clear fr;
        Array.unsafe_set t.frames i Frame.dummy;
        give_back t fr;
        t.live <- t.live - 1
      end
      else if Array.unsafe_get t.msgs i != no_msg then begin
        Array.unsafe_set t.msgs i no_msg;
        t.live <- t.live - 1;
        t.spilled_live <- t.spilled_live - 1
      end
    done;
    t.head <- upto;
    while t.head < t.tail && not (occupied_at t t.head) do
      t.head <- t.head + 1
    done
  end

let cursor t tag =
  let rec find = function
    | [] ->
      let c = { ctag = tag; cpos = t.head } in
      t.cursors <- c :: t.cursors;
      c
    | c :: rest -> if String.equal c.ctag tag then c else find rest
  in
  find t.cursors

let copy_excluding t ~uid ~msg =
  let r = create ~capacity:t.pool_cap () in
  for pos = t.head to t.tail - 1 do
    let fr = frame_at t pos in
    if Frame.occupied fr then begin
      (* Exclusion is by send identity: the uid, plus the shared cached
         message value for duplicate copies that overflowed to the spill
         path (duplicates always carry a cached message). *)
      if not (Frame.uid fr = uid || Frame.message fr == msg) then begin
        if has_frame r then Frame.copy_into fr (emplace_frame r)
        else emplace_spilled r (Frame.message fr)
      end
    end
    else
      let m = spilled_at t pos in
      if m != no_msg && m != msg then emplace_spilled r m
  done;
  r

let iter t f =
  for pos = t.head to t.tail - 1 do
    if occupied_at t pos then f ~pos (message_at t pos)
  done
