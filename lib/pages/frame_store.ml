type frame = { mutable fid : int; buf : bytes; mutable refs : int }

type t = {
  page_size : int;
  mutable next_id : int;
  mutable live : int;
  mutable allocs : int;
  mutable copies : int;
  mutable next_map : int;  (* map identities, for the observers *)
  mutable observers : observer list;
}

and observer = {
  on_write : map:int -> vpage:int -> frame:int -> unit;
  on_free : frame:int -> unit;
  on_release : map:int -> unit;
}

(* The free-frame pool is per domain, not per store, because a checker
   cell builds a fresh engine (and store) per run: a per-store free list
   would die with each run, and every page is a major-heap allocation
   (it exceeds the minor heap's object size limit). A serving domain
   resets one engine per batch instead, and [reset] forgets the store's
   counters but not the pool. Pooled frames keep stale bytes, id and
   count until [fresh] overwrites them. A bucket is an array stack, so
   recycling a frame in either direction allocates nothing once the
   stack has grown to the domain's working set. *)

type bucket = {
  size : int;
  mutable frames : frame array;  (* [frames.(0 .. count - 1)] are free *)
  mutable count : int;
}

type pool = { mutable buckets : bucket list; mutable retained : int }

(* Fills a bucket's slots above [count], so a taken frame is not kept
   alive by the pool. *)
let taken = { fid = -1; buf = Bytes.empty; refs = 0 }

(* Bytes of free frames a domain keeps; past it, freed frames go to the
   GC. Enough for the working set of a serving batch many times over. *)
let pool_cap_bytes = 16 * 1024 * 1024

let pool_key = Domain.DLS.new_key (fun () -> { buckets = []; retained = 0 })

let rec find_bucket size = function
  | b :: rest -> if b.size = size then b else find_bucket size rest
  | [] -> raise Not_found

let bucket pool size =
  match find_bucket size pool.buckets with
  | b -> b
  | exception Not_found ->
    let b = { size; frames = [||]; count = 0 } in
    pool.buckets <- b :: pool.buckets;
    b

let create ~page_size =
  if page_size <= 0 then invalid_arg "Frame_store.create: page_size";
  { page_size; next_id = 0; live = 0; allocs = 0; copies = 0; next_map = 0;
    observers = [] }

let reset t =
  t.next_id <- 0;
  t.live <- 0;
  t.allocs <- 0;
  t.copies <- 0;
  t.next_map <- 0;
  t.observers <- []

let fresh_map_id t =
  let id = t.next_map in
  t.next_map <- t.next_map + 1;
  id

let add_observer t o = t.observers <- o :: t.observers
let remove_observer t o =
  t.observers <- List.filter (fun o' -> o' != o) t.observers

(* Top-level walks, so a notification allocates no closure. *)
let rec write_all os ~map ~vpage ~frame =
  match os with
  | [] -> ()
  | o :: rest ->
    o.on_write ~map ~vpage ~frame;
    write_all rest ~map ~vpage ~frame

let rec free_all os ~frame =
  match os with
  | [] -> ()
  | o :: rest ->
    o.on_free ~frame;
    free_all rest ~frame

let rec release_all os ~map =
  match os with
  | [] -> ()
  | o :: rest ->
    o.on_release ~map;
    release_all rest ~map

let notify_write t ~map ~vpage f =
  match t.observers with
  | [] -> ()
  | os -> write_all os ~map ~vpage ~frame:f.fid

let notify_release t ~map = release_all t.observers ~map

let page_size t = t.page_size

(* A frame with reference count 1 and the store's next id — never an id
   it has handed out since its last reset, so within a run a frame id an
   observer reports always denotes one physical write target (the
   isolation checker depends on this). Its contents are unspecified:
   the callers overwrite the whole page. *)
let fresh t =
  let id = t.next_id in
  t.next_id <- id + 1;
  t.live <- t.live + 1;
  t.allocs <- t.allocs + 1;
  let pool = Domain.DLS.get pool_key in
  let b = bucket pool t.page_size in
  if b.count > 0 then begin
    b.count <- b.count - 1;
    let f = b.frames.(b.count) in
    b.frames.(b.count) <- taken;
    pool.retained <- pool.retained - t.page_size;
    f.fid <- id;
    f.refs <- 1;
    f
  end
  else { fid = id; buf = Bytes.create t.page_size; refs = 1 }

let alloc t =
  let f = fresh t in
  Bytes.fill f.buf 0 t.page_size '\000';
  f

let alloc_copy t src =
  let f = fresh t in
  Bytes.blit src.buf 0 f.buf 0 t.page_size;
  t.copies <- t.copies + 1;
  f

let incref f =
  assert (f.refs > 0);
  f.refs <- f.refs + 1

let decref t f =
  assert (f.refs > 0);
  f.refs <- f.refs - 1;
  if f.refs = 0 then begin
    t.live <- t.live - 1;
    free_all t.observers ~frame:f.fid;
    let pool = Domain.DLS.get pool_key in
    let size = Bytes.length f.buf in
    if pool.retained + size <= pool_cap_bytes then begin
      let b = bucket pool size in
      if b.count = Array.length b.frames then begin
        let frames = Array.make (Int.max 16 (2 * b.count)) taken in
        Array.blit b.frames 0 frames 0 b.count;
        b.frames <- frames
      end;
      b.frames.(b.count) <- f;
      b.count <- b.count + 1;
      pool.retained <- pool.retained + size
    end
  end

let refcount f = f.refs
let data f = f.buf
let id f = f.fid
let live_frames t = t.live
let total_allocations t = t.allocs
let cow_copies t = t.copies
