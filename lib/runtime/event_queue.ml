(* A binary min-heap over parallel arrays: position [i] is the event
   ([times.(i)], [seqs.(i)], [values.(i)]). Times live in a [floatarray],
   so neither a push nor a pop allocates a boxed float, an entry record or
   an option cell. Values are stored as [Obj.t]: an ['a array] would need
   an ['a] to fill empty positions with, and, for ['a = float], would be a
   flat float array that cannot hold the filler. Positions at or beyond
   [size] always hold [empty], so the heap never retains a value after it
   leaves the queue.

   Beside the heap sits one re-keyable slot, an event with its own
   (time, seq) that [set_slot] moves in place: the engine's pending CPU
   tick, rescheduled at every delay, kill and tick, would otherwise cost a
   cancelled heap entry and a fresh push each time. The slot takes part in
   every (time, seq) comparison here, so the order is decided in this
   module alone. *)

type 'a t = {
  mutable times : floatarray;
  mutable seqs : int array;
  mutable values : Obj.t array;
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
    size = 0;
    next_seq = 0;
    slot_time = Float.Array.make 1 0.;
    slot_seq = -1;
    slot_value = empty;
  }

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
  t.values <- values

(* (time, seq) of position [i] orders before (time, seq). *)
let before t i time seq =
  let ti = Float.Array.unsafe_get t.times i in
  ti < time || (ti = time && Array.unsafe_get t.seqs i < seq)

let set t i time seq v =
  Float.Array.unsafe_set t.times i time;
  Array.unsafe_set t.seqs i seq;
  Array.unsafe_set t.values i v

let move t ~src ~dst =
  set t dst (Float.Array.unsafe_get t.times src) (Array.unsafe_get t.seqs src)
    (Array.unsafe_get t.values src)

let push t ~time v =
  if Float.is_nan time then invalid_arg "Event_queue.push: NaN time";
  if t.size = Array.length t.seqs then grow t;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  (* Sift the hole at the end up, moving larger parents down. *)
  let i = ref t.size in
  t.size <- t.size + 1;
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
  set t !i time seq (Obj.repr v)

let set_slot t ~time v =
  if Float.is_nan time then invalid_arg "Event_queue.set_slot: NaN time";
  Float.Array.unsafe_set t.slot_time 0 time;
  t.slot_seq <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
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
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    (* Sift the last position's event down from the root. *)
    let time = Float.Array.unsafe_get t.times n in
    let seq = Array.unsafe_get t.seqs n in
    let v = Array.unsafe_get t.values n in
    let i = ref 0 in
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
    set t !i time seq v
  end;
  (* The vacated position must not keep the popped (or moved) value
     reachable: every popped event would otherwise live until its position
     happened to be overwritten — a real leak in long simulations. *)
  Array.unsafe_set t.values n empty;
  Obj.obj top

let pop_min t =
  if slot_first t then begin
    let v = t.slot_value in
    clear_slot t;
    Obj.obj v
  end
  else pop_heap t

let is_empty t = t.size = 0 && t.slot_seq < 0

let pop t =
  if is_empty t then None
  else
    let time = min_time t in
    let v = pop_min t in
    Some (time, v)

let peek_time t = if is_empty t then None else Some (min_time t)

let stamp t = t.next_seq
let size t = if t.slot_seq < 0 then t.size else t.size + 1

let clear t =
  (* Consistent with pop's clearing: keep the capacity, drop every
     reference. *)
  Array.fill t.values 0 t.size empty;
  t.size <- 0;
  clear_slot t
