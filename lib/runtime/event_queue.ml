type 'a entry = { time : float; seq : int; value : 'a }

type 'a t = {
  mutable heap : 'a entry option array;  (* slots >= size are None *)
  mutable size : int;
  mutable next_seq : int;
}

let create () = { heap = [||]; size = 0; next_seq = 0 }

let lt a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let get t i =
  match t.heap.(i) with
  | Some e -> e
  | None -> invalid_arg "Event_queue: empty slot inside the heap"

let grow t =
  let cap = Array.length t.heap in
  if t.size >= cap then begin
    let ncap = max 16 (cap * 2) in
    let h = Array.make ncap None in
    Array.blit t.heap 0 h 0 cap;
    t.heap <- h
  end

let push t ~time v =
  if Float.is_nan time then invalid_arg "Event_queue.push: NaN time";
  grow t;
  t.heap.(t.size) <- Some { time; seq = t.next_seq; value = v };
  t.next_seq <- t.next_seq + 1;
  t.size <- t.size + 1;
  (* Sift up. *)
  let i = ref (t.size - 1) in
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    lt (get t !i) (get t parent)
  do
    let parent = (!i - 1) / 2 in
    let tmp = t.heap.(!i) in
    t.heap.(!i) <- t.heap.(parent);
    t.heap.(parent) <- tmp;
    i := parent
  done

let remove_top t =
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.heap.(0) <- t.heap.(t.size);
    (* Clear the vacated slot: the heap array must not retain a live
       reference to an entry (and its closure payload) after it leaves
       the queue, or every popped event lives until its slot happens to
       be overwritten — a real leak in long simulations. *)
    t.heap.(t.size) <- None;
    (* Sift down. *)
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < t.size && lt (get t l) (get t !smallest) then smallest := l;
      if r < t.size && lt (get t r) (get t !smallest) then smallest := r;
      if !smallest <> !i then begin
        let tmp = t.heap.(!i) in
        t.heap.(!i) <- t.heap.(!smallest);
        t.heap.(!smallest) <- tmp;
        i := !smallest
      end
      else continue := false
    done
  end
  else t.heap.(0) <- None

let pop t =
  if t.size = 0 then None
  else begin
    let top = get t 0 in
    remove_top t;
    Some (top.time, top.value)
  end

let peek_time t = if t.size = 0 then None else Some (get t 0).time

let stamp t = t.next_seq
let size t = t.size
let is_empty t = t.size = 0

let clear t =
  (* Consistent with pop's slot clearing: keep the capacity, drop every
     reference. *)
  Array.fill t.heap 0 (Array.length t.heap) None;
  t.size <- 0
