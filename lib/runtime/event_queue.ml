(* A binary min-heap over parallel arrays: position [i] is the event
   ([times.(i)], [seqs.(i)], [values.(i)]). Times live in a [floatarray],
   so neither a push nor a pop allocates a boxed float, an entry record or
   an option cell. Values are stored as [Obj.t]: an ['a array] would need
   an ['a] to fill empty positions with, and, for ['a = float], would be a
   flat float array that cannot hold the filler. Positions at or beyond
   [size] always hold [empty], so the heap never retains a value after it
   leaves the queue.

   An entry may carry a handle (a small non-negative int) through which
   [set_handle] re-keys it and [clear_handle] removes it in O(log n): two
   more arrays map a position to its entry's handle and a handle to its
   position, and every move within the heap keeps them in step. Both stay
   empty until the first [set_handle], so a queue that never uses a handle
   pays only for the emptiness test.

   Beside the heap sits one re-keyable slot, an event with its own
   (time, seq) that [set_slot] moves in place: the engine's pending CPU
   tick, rescheduled at every delay, kill and tick, stays O(1) there. The
   slot takes part in every (time, seq) comparison here, so the order is
   decided in this module alone. *)

type 'a t = {
  mutable times : floatarray;
  mutable seqs : int array;
  mutable values : Obj.t array;
  mutable handles : int array;
      (* position -> its entry's handle, -1 for none; [||] until the first
         [set_handle], then as long as [seqs] *)
  mutable pos_of : int array;  (* handle -> its position, -1 when not queued *)
  mutable popped : int;  (* the handle the last pop removed, -1 for none *)
  mutable size : int;
  mutable next_seq : int;
  slot_time : floatarray;  (* length 1: the slot's time, stored unboxed *)
  mutable slot_seq : int;  (* -1 while the slot is empty *)
  mutable slot_value : Obj.t;  (* [empty] while the slot is empty *)
}

let empty = Obj.repr 0

let create () =
  {
    times = Float.Array.create 0;
    seqs = [||];
    values = [||];
    handles = [||];
    pos_of = [||];
    popped = -1;
    size = 0;
    next_seq = 0;
    slot_time = Float.Array.make 1 0.;
    slot_seq = -1;
    slot_value = empty;
  }

let has_handles t = Array.length t.handles > 0

let grow t =
  let cap = Array.length t.seqs in
  let ncap = max 16 (cap * 2) in
  let times = Float.Array.create ncap in
  Float.Array.blit t.times 0 times 0 cap;
  let seqs = Array.make ncap 0 in
  Array.blit t.seqs 0 seqs 0 cap;
  let values = Array.make ncap empty in
  Array.blit t.values 0 values 0 cap;
  t.times <- times;
  t.seqs <- seqs;
  t.values <- values;
  if has_handles t then begin
    let handles = Array.make ncap (-1) in
    Array.blit t.handles 0 handles 0 cap;
    t.handles <- handles
  end

(* (time, seq) of position [i] orders before (time, seq). *)
let before t i time seq =
  let ti = Float.Array.unsafe_get t.times i in
  ti < time || (ti = time && Array.unsafe_get t.seqs i < seq)

let handle_at t i = if has_handles t then Array.unsafe_get t.handles i else -1

(* Record that handle [h] (if any) now lives at position [i]. *)
let place_handle t i h =
  Array.unsafe_set t.handles i h;
  if h >= 0 then Array.unsafe_set t.pos_of h i

(* Write an entry at position [i]. *)
let set t i time seq v h =
  Float.Array.unsafe_set t.times i time;
  Array.unsafe_set t.seqs i seq;
  Array.unsafe_set t.values i v;
  if has_handles t then place_handle t i h

(* The sift loops' step, spelt out rather than calling [set], so the
   common queue, with no handle, pays one test per move. *)
let move t ~src ~dst =
  Float.Array.unsafe_set t.times dst (Float.Array.unsafe_get t.times src);
  Array.unsafe_set t.seqs dst (Array.unsafe_get t.seqs src);
  Array.unsafe_set t.values dst (Array.unsafe_get t.values src);
  if has_handles t then place_handle t dst (Array.unsafe_get t.handles src)

(* Empty position [n], at or beyond [size]. *)
let vacate t n =
  Array.unsafe_set t.values n empty;
  if has_handles t then Array.unsafe_set t.handles n (-1)

let take_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

(* Move the hole at [i] up past every parent that does not order before
   (time, seq); return where the hole ends. *)
let sift_up t i time seq =
  let i = ref i in
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    not (before t parent time seq)
  do
    let parent = (!i - 1) / 2 in
    move t ~src:parent ~dst:!i;
    i := parent
  done;
  !i

(* Move the hole at [i] down past every smaller child that orders before
   (time, seq); return where the hole ends. *)
let sift_down t i time seq =
  let n = t.size in
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= n then continue := false
    else begin
      let r = l + 1 in
      let c =
        if r < n && before t r (Float.Array.unsafe_get t.times l)
                      (Array.unsafe_get t.seqs l)
        then r
        else l
      in
      if before t c time seq then begin
        move t ~src:c ~dst:!i;
        i := c
      end
      else continue := false
    end
  done;
  !i

(* Put an entry into the hole at [i], which may be anywhere in the heap:
   it goes up if it orders before the hole's parent, down otherwise. *)
let place t i time seq v h =
  let j = sift_up t i time seq in
  let j = if j = i then sift_down t i time seq else j in
  set t j time seq v h

(* Append an entry at the end and sift it up. *)
let insert t time seq v h =
  if t.size = Array.length t.seqs then grow t;
  let i = t.size in
  t.size <- i + 1;
  set t (sift_up t i time seq) time seq v h

let push t ~time v =
  if Float.is_nan time then invalid_arg "Event_queue.push: NaN time";
  insert t time (take_seq t) (Obj.repr v) (-1)

(* Remove the entry at position [i], filling its hole with the last
   entry. *)
let remove_at t i =
  let h = handle_at t i in
  if h >= 0 then Array.unsafe_set t.pos_of h (-1);
  let n = t.size - 1 in
  t.size <- n;
  if i < n then
    place t i (Float.Array.unsafe_get t.times n) (Array.unsafe_get t.seqs n)
      (Array.unsafe_get t.values n) (handle_at t n);
  vacate t n

let set_handle t h ~time v =
  if Float.is_nan time then invalid_arg "Event_queue.set_handle: NaN time";
  if h < 0 then invalid_arg "Event_queue.set_handle: negative handle";
  if not (has_handles t) then begin
    (* Grow an unused heap first: [has_handles] reads an empty array as
       "no handle yet". *)
    if Array.length t.seqs = 0 then grow t;
    t.handles <- Array.make (Array.length t.seqs) (-1)
  end;
  let len = Array.length t.pos_of in
  if h >= len then begin
    let pos_of = Array.make (max (2 * len) (max 16 (h + 1))) (-1) in
    Array.blit t.pos_of 0 pos_of 0 len;
    t.pos_of <- pos_of
  end;
  let seq = take_seq t in
  let i = Array.unsafe_get t.pos_of h in
  if i >= 0 then place t i time seq (Obj.repr v) h
  else insert t time seq (Obj.repr v) h

let clear_handle t h =
  if h >= 0 && h < Array.length t.pos_of then begin
    let i = Array.unsafe_get t.pos_of h in
    if i >= 0 then remove_at t i
  end

let set_slot t ~time v =
  if Float.is_nan time then invalid_arg "Event_queue.set_slot: NaN time";
  Float.Array.unsafe_set t.slot_time 0 time;
  t.slot_seq <- take_seq t;
  t.slot_value <- Obj.repr v

let clear_slot t =
  t.slot_seq <- -1;
  t.slot_value <- empty

(* The slot holds the earliest event: it is set, and the heap is empty or
   its root orders after the slot. *)
let slot_first t =
  t.slot_seq >= 0
  && (t.size = 0
     || not (before t 0 (Float.Array.unsafe_get t.slot_time 0) t.slot_seq))

let min_time t =
  if slot_first t then Float.Array.unsafe_get t.slot_time 0
  else begin
    if t.size = 0 then invalid_arg "Event_queue.min_time: empty queue";
    Float.Array.unsafe_get t.times 0
  end

(* Remove the heap's root and return its value. *)
let pop_heap t =
  if t.size = 0 then invalid_arg "Event_queue.pop_min: empty queue";
  let top = Array.unsafe_get t.values 0 in
  let h = handle_at t 0 in
  if h >= 0 then Array.unsafe_set t.pos_of h (-1);
  t.popped <- h;
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    (* Sift the last position's event down from the root. *)
    let time = Float.Array.unsafe_get t.times n in
    let seq = Array.unsafe_get t.seqs n in
    set t (sift_down t 0 time seq) time seq (Array.unsafe_get t.values n)
      (handle_at t n)
  end;
  (* The vacated position must not keep the popped (or moved) value
     reachable: every popped event would otherwise live until its position
     happened to be overwritten — a real leak in long simulations. *)
  vacate t n;
  Obj.obj top

let pop_min t =
  if slot_first t then begin
    let v = t.slot_value in
    clear_slot t;
    t.popped <- -1;
    Obj.obj v
  end
  else pop_heap t

let popped_handle t = t.popped
let is_empty t = t.size = 0 && t.slot_seq < 0

let size t = if t.slot_seq < 0 then t.size else t.size + 1

let clear t =
  (* Consistent with pop_min's clearing: keep the capacity, drop every
     reference. *)
  for i = 0 to t.size - 1 do
    let h = handle_at t i in
    if h >= 0 then Array.unsafe_set t.pos_of h (-1);
    vacate t i
  done;
  t.size <- 0;
  clear_slot t

let reset t =
  clear t;
  t.next_seq <- 0;
  t.popped <- -1;
  Float.Array.unsafe_set t.slot_time 0 0.
