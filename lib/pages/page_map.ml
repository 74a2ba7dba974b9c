(* A page map is one table from vpage to frame, holding one reference on
   each frame it maps: the frame store's reference count is the number of
   maps sharing a frame. [fork] copies the table and takes a reference on
   every frame; a write to a frame whose count is above one takes a
   copy-on-write fault (copy, drop the shared reference, map the copy in
   place); [absorb] drops the parent's references and hands it the
   child's table; [release] drops every reference. *)

(* ------------------------------------------------------------------ *)
(* An int-keyed open-addressing table: power-of-two capacity, linear
   probing, backward-shift deletion. An empty table holds no arrays until
   its first insert, so a fresh map's table costs one record; lookups
   and the replacement of an existing key allocate nothing. [min_int]
   marks an empty slot, so every other int (negative vpages included) is
   a valid key. Removed and reset slots take [dummy], so the table drops
   its references to them. *)

module Tbl = struct
  type 'a t = {
    mutable keys : int array;
    mutable vals : 'a array;
    mutable size : int;
    dummy : 'a;
  }

  let no_key = min_int

  let create dummy = { keys = [||]; vals = [||]; size = 0; dummy }

  let length t = t.size

  (* Fibonacci hashing: spreads strided keys (0, 1024, 2048, ...) that an
     identity hash would pile into one probe run. *)
  let home k mask =
    let h = k * 0x9E3779B97F4A7C1 in
    (h lxor (h lsr 29)) land mask

  let rec probe keys k i mask =
    let k' = Array.unsafe_get keys i in
    if k' = k then i
    else if k' = no_key then -1
    else probe keys k ((i + 1) land mask) mask

  (* Slot holding [k], or -1. *)
  let slot t k =
    if t.size = 0 then -1
    else
      let mask = Array.length t.keys - 1 in
      probe t.keys k (home k mask) mask

  let find t k =
    let i = slot t k in
    if i >= 0 then Array.unsafe_get t.vals i else t.dummy

  let rec free_slot keys i mask =
    if Array.unsafe_get keys i = no_key then i else free_slot keys ((i + 1) land mask) mask

  let add_absent t k v =
    let mask = Array.length t.keys - 1 in
    let i = free_slot t.keys (home k mask) mask in
    Array.unsafe_set t.keys i k;
    Array.unsafe_set t.vals i v;
    t.size <- t.size + 1

  let first_slots = 8

  (* Keep the load at most 3/4. A table's first insert builds its
     [first_slots]-slot arrays as literals: the key array is allocated
     inline, and the value array needs only the runtime's float-array
     check, where [Array.make] is a runtime call per array. *)
  let grow t =
    let cap = Array.length t.keys in
    if cap = 0 then begin
      let k = no_key and d = t.dummy in
      t.keys <- [| k; k; k; k; k; k; k; k |];
      t.vals <- [| d; d; d; d; d; d; d; d |]
    end
    else if 4 * (t.size + 1) > 3 * cap then begin
      let keys = t.keys and vals = t.vals in
      t.keys <- Array.make (2 * cap) no_key;
      t.vals <- Array.make (2 * cap) t.dummy;
      t.size <- 0;
      for i = 0 to cap - 1 do
        let k = Array.unsafe_get keys i in
        if k <> no_key then add_absent t k (Array.unsafe_get vals i)
      done
    end

  let replace t k v =
    let i = slot t k in
    if i >= 0 then Array.unsafe_set t.vals i v
    else begin
      grow t;
      add_absent t k v
    end

  (* Backward-shift deletion: walk the probe run after the hole and move
     back every entry whose home does not lie cyclically in (hole, j], so
     no lookup ever stops early at a hole. *)
  let rec shift_back t hole j mask =
    let k = Array.unsafe_get t.keys j in
    if k = no_key then hole
    else if (j - home k mask) land mask >= (j - hole) land mask then begin
      Array.unsafe_set t.keys hole k;
      Array.unsafe_set t.vals hole (Array.unsafe_get t.vals j);
      shift_back t j ((j + 1) land mask) mask
    end
    else shift_back t hole ((j + 1) land mask) mask

  let remove_slot t i =
    let mask = Array.length t.keys - 1 in
    let hole = shift_back t i ((i + 1) land mask) mask in
    Array.unsafe_set t.keys hole no_key;
    Array.unsafe_set t.vals hole t.dummy;
    t.size <- t.size - 1

  let remove t k =
    let i = slot t k in
    if i >= 0 then remove_slot t i

  (* A removal shifts the rest of the probe run back into slot [i], so
     [i] is examined again. Only an entry that wraps from the array's
     start to its end moves behind the scan, and it is merely examined
     twice. [env] lets a top-level [f] run without a closure. *)
  let remove_if f env t =
    let i = ref 0 in
    while !i < Array.length t.keys do
      let k = Array.unsafe_get t.keys !i in
      if k <> no_key && f env k (Array.unsafe_get t.vals !i) then remove_slot t !i
      else incr i
    done

  (* Drop every entry and keep the capacity: [dummy] in every slot. *)
  let clear t =
    if t.size > 0 then begin
      Array.fill t.keys 0 (Array.length t.keys) no_key;
      Array.fill t.vals 0 (Array.length t.vals) t.dummy;
      t.size <- 0
    end

  (* Drop every entry and both arrays. *)
  let reset t =
    t.keys <- [||];
    t.vals <- [||];
    t.size <- 0

  let iter f t =
    let keys = t.keys in
    for i = 0 to Array.length keys - 1 do
      let k = Array.unsafe_get keys i in
      if k <> no_key then f k (Array.unsafe_get t.vals i)
    done

  let fold f t acc =
    let acc = ref acc in
    iter (fun k v -> acc := f k v !acc) t;
    !acc
end

(* Fills the frame tables' empty slots and is what [Tbl.find] returns
   for an unmapped page: a frame of a private store, never mapped. *)
let no_frame = Frame_store.alloc (Frame_store.create ~page_size:1)

type t = {
  store : Frame_store.t;
  id : int;  (* store-unique map identity, for the store's observer *)
  mutable frames : Frame_store.frame Tbl.t;
  mutable fault : bool;  (* scratch: did the last prepare_write COW? *)
  mutable cow_copies : int;
  mutable released : bool;
}

let create store =
  { store; id = Frame_store.fresh_map_id store; frames = Tbl.create no_frame;
    fault = false; cow_copies = 0; released = false }

(* ------------------------------------------------------------------ *)
(* Spare tables. Most maps never outgrow their first [Tbl.first_slots]
   slots, and a serving domain forks, releases and absorbs thousands of
   them. Like the frame store's free frames, a released or absorbed map's
   first-size arrays go to a stack per domain, cleared (every key
   [no_key], every frame [no_frame]) so the stack keeps no frame alive; a
   fork of a map of that size and a fresh map's first insert take them
   back. The stack keeps at most [spare_cap] tables (about 9 KB); past
   it, released tables go to the GC. Taken slots are emptied, so the
   stack holds only free tables. *)

let spare_cap = 64

type spares = {
  spare_keys : int array array;
  spare_vals : Frame_store.frame array array;
  mutable spare_count : int;
}

let spares_key =
  Domain.DLS.new_key (fun () ->
      { spare_keys = Array.make spare_cap [||]; spare_vals = Array.make spare_cap [||];
        spare_count = 0 })

(* Empty the occupied slots of a first-size table. A loop over the few
   slots in use: the stores into a table that outlived a minor collection
   pass the write barrier one by one, and [Array.fill] is a C call. *)
let empty_first (frames : Frame_store.frame Tbl.t) =
  let keys = frames.keys in
  for i = 0 to Tbl.first_slots - 1 do
    if Array.unsafe_get keys i <> Tbl.no_key then begin
      Array.unsafe_set keys i Tbl.no_key;
      Array.unsafe_set frames.vals i no_frame
    end
  done

(* Hand [frames]' arrays to the domain's stack, if it is of the first size
   and the stack has room, and leave [frames] empty. Every frame it maps
   must have been released. *)
let give_table (frames : Frame_store.frame Tbl.t) =
  if Array.length frames.keys = Tbl.first_slots then begin
    let s = Domain.DLS.get spares_key in
    let n = s.spare_count in
    if n < spare_cap then begin
      empty_first frames;
      s.spare_keys.(n) <- frames.keys;
      s.spare_vals.(n) <- frames.vals;
      s.spare_count <- n + 1
    end
  end;
  Tbl.reset frames

(* Give the empty [frames] a spare table's arrays: [false] when the
   domain has none. *)
let take_table (frames : Frame_store.frame Tbl.t) =
  let s = Domain.DLS.get spares_key in
  let n = s.spare_count - 1 in
  if n < 0 then false
  else begin
    frames.keys <- s.spare_keys.(n);
    frames.vals <- s.spare_vals.(n);
    s.spare_keys.(n) <- [||];
    s.spare_vals.(n) <- [||];
    s.spare_count <- n;
    true
  end

let id t = t.id
let page_size t = Frame_store.page_size t.store

let check t = if t.released then invalid_arg "Page_map: use after release"

(* Walks over the occupied slots only: [no_frame] is shared by every
   domain and must never be counted. Top-level, so neither allocates a
   closure. *)
let incref_all (frames : Frame_store.frame Tbl.t) =
  let keys = frames.keys in
  for i = 0 to Array.length keys - 1 do
    if Array.unsafe_get keys i <> Tbl.no_key then
      Frame_store.incref (Array.unsafe_get frames.vals i)
  done

let decref_all store (frames : Frame_store.frame Tbl.t) =
  let keys = frames.keys in
  for i = 0 to Array.length keys - 1 do
    if Array.unsafe_get keys i <> Tbl.no_key then
      Frame_store.decref store (Array.unsafe_get frames.vals i)
  done

(* [src]'s entries in a table of their own, with one more reference on
   each frame: in a spare's arrays when [src] is of the first size and the
   domain has one (only the occupied slots are written: a spare is
   empty), else in copies of [src]'s. *)
let share_table (src : Frame_store.frame Tbl.t) =
  let frames = Tbl.create no_frame in
  if Array.length src.keys = Tbl.first_slots && take_table frames then
    for i = 0 to Tbl.first_slots - 1 do
      let k = Array.unsafe_get src.keys i in
      if k <> Tbl.no_key then begin
        let f = Array.unsafe_get src.vals i in
        Frame_store.incref f;
        Array.unsafe_set frames.keys i k;
        Array.unsafe_set frames.vals i f
      end
    done
  else begin
    frames.keys <- Array.copy src.keys;
    frames.vals <- Array.copy src.vals;
    incref_all frames
  end;
  frames.size <- src.size;
  frames

let fork parent =
  check parent;
  let frames = share_table parent.frames in
  { store = parent.store; id = Frame_store.fresh_map_id parent.store; frames;
    fault = false; cow_copies = 0; released = false }

let mapped_pages t =
  check t;
  Tbl.length t.frames

let private_pages t =
  check t;
  Tbl.fold (fun _ f n -> if Frame_store.refcount f = 1 then n + 1 else n) t.frames 0

let bounds_check t ~off ~len =
  let ps = page_size t in
  if off < 0 || len < 0 || off + len > ps then
    invalid_arg "Page_map: access crosses page boundary"

let read_into t ~vpage ~off ~len ~dst ~dst_off =
  check t;
  bounds_check t ~off ~len;
  if dst_off < 0 || dst_off + len > Bytes.length dst then
    invalid_arg "Page_map.read_into: destination range";
  let f = Tbl.find t.frames vpage in
  if f == no_frame then Bytes.fill dst dst_off len '\000'
  else Bytes.blit (Frame_store.data f) off dst dst_off len

(* Return the writable frame for [vpage], materialising a zero frame for
   an unmapped page and privatising a shared one; [t.fault] says whether
   a copy-on-write fault was serviced. Allocation-free unless a frame is
   allocated. *)
let prepare_write t vpage =
  let frames = t.frames in
  let i = Tbl.slot frames vpage in
  if i < 0 then begin
    t.fault <- false;
    let f = Frame_store.alloc t.store in
    if Array.length frames.keys = 0 then ignore (take_table frames : bool);
    Tbl.replace frames vpage f;
    f
  end
  else begin
    let f = Array.unsafe_get frames.vals i in
    if Frame_store.refcount f = 1 then begin
      t.fault <- false;
      f
    end
    else begin
      (* Another map still holds this frame: privatise it. *)
      let g = Frame_store.alloc_copy t.store f in
      Frame_store.decref t.store f;
      Array.unsafe_set frames.vals i g;
      t.cow_copies <- t.cow_copies + 1;
      t.fault <- true;
      g
    end
  end

let write_from t ~vpage ~off ~src ~src_off ~len =
  check t;
  bounds_check t ~off ~len;
  if src_off < 0 || src_off + len > Bytes.length src then
    invalid_arg "Page_map.write_from: source range";
  let f = prepare_write t vpage in
  Frame_store.notify_write t.store ~map:t.id ~vpage f;
  Bytes.blit src src_off (Frame_store.data f) off len;
  t.fault

let write t ~vpage ~off ~src ~copied =
  if write_from t ~vpage ~off ~src ~src_off:0 ~len:(Bytes.length src) then
    copied := true

(* ------------------------------------------------------------------ *)
(* Scalar fast paths: no [Bytes.sub]/[Bytes.make] per access, and no
   allocation. *)

let get_u8 t ~vpage ~off =
  check t;
  bounds_check t ~off ~len:1;
  let f = Tbl.find t.frames vpage in
  if f == no_frame then 0 else Char.code (Bytes.unsafe_get (Frame_store.data f) off)

let set_u8 t ~vpage ~off v =
  check t;
  bounds_check t ~off ~len:1;
  if v < 0 || v > 0xff then invalid_arg "Page_map.set_u8";
  let f = prepare_write t vpage in
  Frame_store.notify_write t.store ~map:t.id ~vpage f;
  Bytes.unsafe_set (Frame_store.data f) off (Char.unsafe_chr v);
  t.fault

(* Little-endian 63-bit load: equals [Int64.to_int] of the little-endian
   [int64] (the top bit is dropped by [lsl]'s modular semantics), written
   out byte by byte so no intermediate [int64] is boxed. *)
let get_int t ~vpage ~off =
  check t;
  bounds_check t ~off ~len:8;
  let f = Tbl.find t.frames vpage in
  if f == no_frame then 0
  else
    let b = Frame_store.data f in
    Char.code (Bytes.unsafe_get b off)
    lor (Char.code (Bytes.unsafe_get b (off + 1)) lsl 8)
    lor (Char.code (Bytes.unsafe_get b (off + 2)) lsl 16)
    lor (Char.code (Bytes.unsafe_get b (off + 3)) lsl 24)
    lor (Char.code (Bytes.unsafe_get b (off + 4)) lsl 32)
    lor (Char.code (Bytes.unsafe_get b (off + 5)) lsl 40)
    lor (Char.code (Bytes.unsafe_get b (off + 6)) lsl 48)
    lor (Char.code (Bytes.unsafe_get b (off + 7)) lsl 56)

let set_int t ~vpage ~off v =
  check t;
  bounds_check t ~off ~len:8;
  let f = prepare_write t vpage in
  Frame_store.notify_write t.store ~map:t.id ~vpage f;
  let b = Frame_store.data f in
  Bytes.unsafe_set b off (Char.unsafe_chr (v land 0xff));
  Bytes.unsafe_set b (off + 1) (Char.unsafe_chr ((v asr 8) land 0xff));
  Bytes.unsafe_set b (off + 2) (Char.unsafe_chr ((v asr 16) land 0xff));
  Bytes.unsafe_set b (off + 3) (Char.unsafe_chr ((v asr 24) land 0xff));
  Bytes.unsafe_set b (off + 4) (Char.unsafe_chr ((v asr 32) land 0xff));
  Bytes.unsafe_set b (off + 5) (Char.unsafe_chr ((v asr 40) land 0xff));
  Bytes.unsafe_set b (off + 6) (Char.unsafe_chr ((v asr 48) land 0xff));
  Bytes.unsafe_set b (off + 7) (Char.unsafe_chr ((v asr 56) land 0xff));
  t.fault

(* Fault-only probe: privatise or materialise [vpage] without reading or
   changing its contents. Returns [true] (so the caller charges the copy)
   only when a copy-on-write fault is actually serviced; a page that is
   already private is a no-op apart from the write notification, and an
   unmapped page is materialised for free (zero-fill costs nothing in the
   model). *)
let touch_page t ~vpage =
  check t;
  let f = prepare_write t vpage in
  Frame_store.notify_write t.store ~map:t.id ~vpage f;
  t.fault

(* ------------------------------------------------------------------ *)

let release t =
  if not t.released then begin
    decref_all t.store t.frames;
    give_table t.frames;
    t.released <- true;
    Frame_store.notify_release t.store ~map:t.id
  end

let released t = t.released

let absorb ~parent ~child =
  check parent;
  check child;
  let old = parent.frames in
  decref_all parent.store old;
  give_table old;
  parent.frames <- child.frames;
  parent.cow_copies <- parent.cow_copies + child.cow_copies;
  child.frames <- old;
  child.released <- true;
  Frame_store.notify_release child.store ~map:child.id

let cow_copies t = t.cow_copies

(* Insertion sort, which allocates nothing ([Array.sort] raises an
   exception per sift). A map's pages are few; a checkpoint of [n] pages
   copies [n] pages, which dwarfs the sort until [n] is in the
   thousands. *)
let sort_ints (a : int array) =
  for i = 1 to Array.length a - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

let mapped_vpage_array t =
  check t;
  let frames = t.frames in
  let a = Array.make (Tbl.length frames) 0 in
  let n = ref 0 in
  for i = 0 to Array.length frames.keys - 1 do
    let k = Array.unsafe_get frames.keys i in
    if k <> Tbl.no_key then begin
      a.(!n) <- k;
      incr n
    end
  done;
  sort_ints a;
  a

let frame_id t ~vpage =
  check t;
  let f = Tbl.find t.frames vpage in
  if f == no_frame then None else Some (Frame_store.id f)

(* Stat-neutral by design: auditing a map reads frames directly, so it
   takes no fault and notifies no observer. Frames are compared by
   physical identity first — only valid within one store — and byte-wise
   otherwise; an unmapped page equals a mapped one that is all zeroes. *)
let is_zero_page b =
  let rec go i = i < 0 || (Bytes.unsafe_get b i = '\000' && go (i - 1)) in
  go (Bytes.length b - 1)

let snapshot_equal a b =
  check a;
  check b;
  if page_size a <> page_size b then false
  else begin
    let same_store = a.store == b.store in
    Tbl.fold
      (fun vpage fa acc ->
        acc
        &&
        let fb = Tbl.find b.frames vpage in
        if fb == no_frame then is_zero_page (Frame_store.data fa)
        else
          (same_store && fa == fb)
          || Bytes.equal (Frame_store.data fa) (Frame_store.data fb))
      a.frames true
    && Tbl.fold
         (fun vpage fb acc ->
           acc && (Tbl.slot a.frames vpage >= 0 || is_zero_page (Frame_store.data fb)))
         b.frames true
  end

(* Exported for the analysis layer's per-operation tables. It is named
   here, after every use, because a module the signature restricts is
   captured by each closure that calls into it. *)
module Int_table = Tbl
