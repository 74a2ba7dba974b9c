type frame = { mutable fid : int; buf : bytes; mutable refs : int }

type t = {
  page_size : int;
  mutable next_id : int;
  mutable live : int;
  mutable allocs : int;
  mutable copies : int;
  mutable next_map : int;  (* map identities, for the observer *)
  mutable observer : observer option;
}

and observer = {
  on_write : map:int -> vpage:int -> frame:int -> unit;
  on_free : frame:int -> unit;
  on_release : map:int -> unit;
}

(* The free-frame pool is per domain, not per store, because a serving
   domain builds a fresh engine (and store) per batch: a per-store free
   list would die with each batch, and every page is a major-heap
   allocation (it exceeds the minor heap's object size limit). Pooled
   frames keep stale bytes, id and count until [fresh] overwrites them. *)

type bucket = { size : int; mutable frames : frame list }
type pool = { mutable buckets : bucket list; mutable retained : int }

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
    let b = { size; frames = [] } in
    pool.buckets <- b :: pool.buckets;
    b

let create ~page_size =
  if page_size <= 0 then invalid_arg "Frame_store.create: page_size";
  { page_size; next_id = 0; live = 0; allocs = 0; copies = 0; next_map = 0;
    observer = None }

let fresh_map_id t =
  let id = t.next_map in
  t.next_map <- t.next_map + 1;
  id

let set_observer t o = t.observer <- o

let notify_write t ~map ~vpage f =
  match t.observer with
  | Some o -> o.on_write ~map ~vpage ~frame:f.fid
  | None -> ()

let notify_release t ~map =
  match t.observer with Some o -> o.on_release ~map | None -> ()

let page_size t = t.page_size

(* A frame with reference count 1 and the store's next id — never an id
   it has handed out before, so an id recorded in a write log always
   denotes one physical write target (the isolation checker depends on
   this). Its contents are unspecified: the callers overwrite the whole
   page. *)
let fresh t =
  let id = t.next_id in
  t.next_id <- id + 1;
  t.live <- t.live + 1;
  t.allocs <- t.allocs + 1;
  let pool = Domain.DLS.get pool_key in
  let b = bucket pool t.page_size in
  match b.frames with
  | f :: rest ->
    b.frames <- rest;
    pool.retained <- pool.retained - t.page_size;
    f.fid <- id;
    f.refs <- 1;
    f
  | [] -> { fid = id; buf = Bytes.create t.page_size; refs = 1 }

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
    (match t.observer with Some o -> o.on_free ~frame:f.fid | None -> ());
    let pool = Domain.DLS.get pool_key in
    let size = Bytes.length f.buf in
    if pool.retained + size <= pool_cap_bytes then begin
      let b = bucket pool size in
      b.frames <- f :: b.frames;
      pool.retained <- pool.retained + size
    end
  end

let refcount f = f.refs
let data f = f.buf
let id f = f.fid
let live_frames t = t.live
let total_allocations t = t.allocs
let cow_copies t = t.copies
