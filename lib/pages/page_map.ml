(* A page map is a chain of overlay nodes. [top] is always exclusively
   owned by this map and is the only layer it may freely mutate; deeper
   nodes are frozen layers shared copy-on-write with relatives. [fork]
   freezes the top into a shared base and gives both sides fresh empty
   overlays, so forking is O(1) regardless of how many pages are mapped,
   and [absorb] transplants just the child's overlay (O(dirty)).

   Sharing is tracked on nodes, not frames: a frozen node records the
   nodes layered directly on top of it ([deps]), a top belongs to exactly
   one live map ([is_top]). A frame is shared — and a write to it must
   take a copy-on-write fault — exactly when more than one live map
   currently resolves its page through the node holding it; [resolvers]
   computes that by walking the dependent tree upward, cutting branches
   that shadow the page. This reproduces the per-frame reference counts
   of an eager fork exactly (a loser sibling that keeps running after the
   winner was absorbed writes its still-exclusive pages in place, for
   instance), while keeping fork and absorb off the O(mapped) path. *)

(* ------------------------------------------------------------------ *)
(* An int-keyed open-addressing table: power-of-two capacity, linear
   probing, backward-shift deletion. An empty table holds no arrays until
   its first insert, so a fresh overlay or log costs one record; lookups
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

  let mem t k = slot t k >= 0

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

  (* Keep the load at most 3/4. A table's first insert builds its
     8-slot arrays as literals: the key array is allocated inline, and
     the value array needs only the runtime's float-array check, where
     [Array.make] is a runtime call per array. *)
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

(* Fills the frame tables' empty slots: a frame of a private store, never
   resolved by any map. *)
let no_frame = Frame_store.alloc (Frame_store.create ~page_size:1)

type node = {
  frames : Frame_store.frame Tbl.t;
  mutable is_top : bool;  (* the private top layer of one live map *)
  mutable deps : node list;  (* nodes whose [base] is this node *)
  mutable base : node option;
}

type t = {
  store : Frame_store.t;
  id : int;  (* store-unique map identity, for the store's observer *)
  mutable top : node;
  mutable mapped : int;  (* distinct vpages resolving to a frame *)
  mutable fault : bool;  (* scratch: did the last prepare_write COW? *)
  mutable cow_copies : int;
  mutable writes : int;
  mutable reads : int;
  mutable released : bool;
  (* The write log survives release so that the analysis layer can audit
     the page behaviour of eliminated processes post mortem. *)
  mutable track : bool;
  writes_log : int Tbl.t;  (* vpage -> id of the frame written *)
}

let fresh_top base = { frames = Tbl.create no_frame; is_top = true; deps = []; base }

let create store =
  { store; id = Frame_store.fresh_map_id store; top = fresh_top None;
    mapped = 0; fault = false; cow_copies = 0;
    writes = 0; reads = 0; released = false; track = false;
    writes_log = Tbl.create 0 }

let id t = t.id
let page_size t = Frame_store.page_size t.store

let check t = if t.released then invalid_arg "Page_map: use after release"

(* Resolve [vpage] through the overlay chain; raises [Not_found] when the
   page is unmapped. Allocation-free. *)
let rec resolve_node node vpage =
  let i = Tbl.slot node.frames vpage in
  if i >= 0 then Array.unsafe_get node.frames.vals i
  else
    match node.base with
    | Some b -> resolve_node b vpage
    | None -> raise Not_found

let resolve_opt t vpage =
  match resolve_node t.top vpage with
  | f -> Some f
  | exception Not_found -> None

(* Stands for "no layer": no map ever resolves through it. *)
let no_node = { frames = Tbl.create no_frame; is_top = false; deps = []; base = None }

(* The layer [vpage] resolves in, or [no_node] when it is unmapped.
   Slow path only; allocation-free. *)
let rec resolve_layer node vpage =
  if Tbl.mem node.frames vpage then node
  else match node.base with Some b -> resolve_layer b vpage | None -> no_node

(* Number of live maps currently resolving [vpage] to the frame held by
   [node]: walk the layers stacked on [node], cutting any branch that
   shadows the page. Equals the reference count an eager per-frame scheme
   would have, at slow-path-only cost. Top-level walks taking [vpage], so
   a count allocates no closure. *)
let rec above vpage n acc =
  if Tbl.mem n.frames vpage then acc
  else if n.is_top then acc + 1
  else above_all vpage n.deps acc

and above_all vpage deps acc =
  match deps with [] -> acc | d :: rest -> above_all vpage rest (above vpage d acc)

let resolvers node vpage = if node.is_top then 1 else above_all vpage node.deps 0

let rec without n = function
  | [] -> []
  | d :: rest -> if d == n then without n rest else d :: without n rest

let remove_dep b n = b.deps <- without n b.deps

(* While the layer under the top is referenced by nobody else, its history
   is private: merge the top's entries down over it (freeing the frames
   they shadow) and adopt it as the new top. Keeps chains short once
   relatives have released or been absorbed. The no-merge check is
   allocation-free, so writers run it on every access. *)
let rec compact t =
  let top = t.top in
  match top.base with
  | Some b when (match b.deps with [ _ ] -> true | _ -> false) ->
    Tbl.iter
      (fun vpage f ->
        let i = Tbl.slot b.frames vpage in
        if i >= 0 then begin
          Frame_store.decref t.store (Array.unsafe_get b.frames.vals i);
          Array.unsafe_set b.frames.vals i f
        end
        else Tbl.replace b.frames vpage f)
      top.frames;
    b.deps <- [];
    b.is_top <- true;
    t.top <- b;
    compact t
  | _ -> ()

let fork parent =
  check parent;
  compact parent;
  let top = parent.top in
  let child_top =
    if Tbl.length top.frames = 0 then begin
      (* Idle overlay: the child can share the existing base directly
         (after compaction it is either shared already or absent). *)
      let ct = fresh_top top.base in
      (match top.base with Some b -> b.deps <- ct :: b.deps | None -> ());
      ct
    end
    else begin
      (* Freeze the parent's private layer; parent and child both overlay
         it from now on. O(1): no frame is touched. *)
      top.is_top <- false;
      let pt = fresh_top (Some top) and ct = fresh_top (Some top) in
      top.deps <- [ pt; ct ];
      parent.top <- pt;
      ct
    end
  in
  { store = parent.store; id = Frame_store.fresh_map_id parent.store;
    top = child_top; mapped = parent.mapped;
    fault = false; cow_copies = 0; writes = 0; reads = 0; released = false;
    track = parent.track; writes_log = Tbl.create 0 }

let mapped_pages t =
  check t;
  t.mapped

(* Fold [f] over every mapped vpage with its resolving frame and the
   layer holding it (topmost occurrence wins, as in [resolve_node]). *)
let fold_resolved t f acc =
  let seen = Tbl.create () in
  let rec go node acc =
    let acc =
      Tbl.fold
        (fun vp fr acc ->
          if Tbl.mem seen vp then acc
          else begin
            Tbl.replace seen vp ();
            f vp fr node acc
          end)
        node.frames acc
    in
    match node.base with Some b -> go b acc | None -> acc
  in
  go t.top acc

let private_pages t =
  check t;
  fold_resolved t
    (fun vp _ node acc -> if resolvers node vp <= 1 then acc + 1 else acc)
    0

let shared_pages t = mapped_pages t - private_pages t

let bounds_check t ~off ~len =
  let ps = page_size t in
  if off < 0 || len < 0 || off + len > ps then
    invalid_arg "Page_map: access crosses page boundary"

let read_into t ~vpage ~off ~len ~dst ~dst_off =
  check t;
  bounds_check t ~off ~len;
  if dst_off < 0 || dst_off + len > Bytes.length dst then
    invalid_arg "Page_map.read_into: destination range";
  t.reads <- t.reads + 1;
  match resolve_node t.top vpage with
  | f -> Bytes.blit (Frame_store.data f) off dst dst_off len
  | exception Not_found -> Bytes.fill dst dst_off len '\000'

let read t ~vpage ~off ~len =
  check t;
  bounds_check t ~off ~len;
  t.reads <- t.reads + 1;
  match resolve_node t.top vpage with
  | f -> Bytes.sub (Frame_store.data f) off len
  | exception Not_found -> Bytes.make len '\000'

(* Materialise a zero frame for an unmapped page in the top layer. *)
let materialize t vpage =
  let f = Frame_store.alloc t.store in
  Tbl.replace t.top.frames vpage f;
  t.mapped <- t.mapped + 1;
  f

let prepare_slow t vpage =
  match t.top.base with
  | Some b ->
    let owner = resolve_layer b vpage in
    if owner == no_node then materialize t vpage
    else begin
      let shared = Array.unsafe_get owner.frames.vals (Tbl.slot owner.frames vpage) in
      if resolvers owner vpage > 1 then begin
        (* Someone else still resolves this frame: privatise it. *)
        let f = Frame_store.alloc_copy t.store shared in
        Tbl.replace t.top.frames vpage f;
        t.cow_copies <- t.cow_copies + 1;
        t.fault <- true;
        f
      end
      else begin
        (* We are the frame's only claimant (relatives shadowed it or
           died): adopt it into the top so later writes take the fast
           path. Equivalent to the eager scheme's refcount-1 in-place
           write — no fault, no copy. *)
        Tbl.remove owner.frames vpage;
        Tbl.replace t.top.frames vpage shared;
        shared
      end
    end
  | None -> materialize t vpage

(* Return the writable frame for [vpage], privatising or materialising as
   needed; [t.fault] says whether a copy-on-write fault was serviced.
   Allocation-free when the page is already in the top layer. *)
let prepare_write t vpage =
  compact t;
  t.fault <- false;
  let frames = t.top.frames in
  let i = Tbl.slot frames vpage in
  if i >= 0 then Array.unsafe_get frames.vals i else prepare_slow t vpage

(* Every write reaches the store's observer; [track] gates only the log. *)
let note_write t vpage f =
  if t.track then Tbl.replace t.writes_log vpage (Frame_store.id f);
  Frame_store.notify_write t.store ~map:t.id ~vpage f

let write_from t ~vpage ~off ~src ~src_off ~len =
  check t;
  bounds_check t ~off ~len;
  if src_off < 0 || src_off + len > Bytes.length src then
    invalid_arg "Page_map.write_from: source range";
  t.writes <- t.writes + 1;
  let f = prepare_write t vpage in
  note_write t vpage f;
  Bytes.blit src src_off (Frame_store.data f) off len;
  t.fault

let write t ~vpage ~off ~src ~copied =
  if write_from t ~vpage ~off ~src ~src_off:0 ~len:(Bytes.length src) then
    copied := true

(* ------------------------------------------------------------------ *)
(* Scalar fast paths: no [Bytes.sub]/[Bytes.make] per access. The [int]
   forms are additionally allocation-free (the [int64] forms return a
   boxed value by nature). *)

let get_u8 t ~vpage ~off =
  check t;
  bounds_check t ~off ~len:1;
  t.reads <- t.reads + 1;
  match resolve_node t.top vpage with
  | f -> Char.code (Bytes.unsafe_get (Frame_store.data f) off)
  | exception Not_found -> 0

let set_u8 t ~vpage ~off v =
  check t;
  bounds_check t ~off ~len:1;
  if v < 0 || v > 0xff then invalid_arg "Page_map.set_u8";
  t.writes <- t.writes + 1;
  let f = prepare_write t vpage in
  note_write t vpage f;
  Bytes.unsafe_set (Frame_store.data f) off (Char.unsafe_chr v);
  t.fault

let get_i64 t ~vpage ~off =
  check t;
  bounds_check t ~off ~len:8;
  t.reads <- t.reads + 1;
  match resolve_node t.top vpage with
  | f -> Bytes.get_int64_le (Frame_store.data f) off
  | exception Not_found -> 0L

let set_i64 t ~vpage ~off v =
  check t;
  bounds_check t ~off ~len:8;
  t.writes <- t.writes + 1;
  let f = prepare_write t vpage in
  note_write t vpage f;
  Bytes.set_int64_le (Frame_store.data f) off v;
  t.fault

(* Little-endian 63-bit load: equals [Int64.to_int (get_i64 ...)] (the
   top bit is dropped by [lsl]'s modular semantics), written out byte by
   byte so no intermediate [int64] is boxed. *)
let get_int t ~vpage ~off =
  check t;
  bounds_check t ~off ~len:8;
  t.reads <- t.reads + 1;
  match resolve_node t.top vpage with
  | exception Not_found -> 0
  | f ->
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
  t.writes <- t.writes + 1;
  let f = prepare_write t vpage in
  note_write t vpage f;
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
   changing its contents. Counts a write (and returns [true], so the
   caller charges the copy) only when a copy-on-write fault is actually
   serviced; a page that is already private is a no-op apart from the
   write log, and an unmapped page is materialised for free (zero-fill
   costs nothing in the model). *)
let touch_page t ~vpage =
  check t;
  compact t;
  let frames = t.top.frames in
  let i = Tbl.slot frames vpage in
  if i >= 0 then begin
    note_write t vpage (Array.unsafe_get frames.vals i);
    false
  end
  else begin
    t.fault <- false;
    let f = prepare_slow t vpage in
    note_write t vpage f;
    if t.fault then t.writes <- t.writes + 1;
    t.fault
  end

(* ------------------------------------------------------------------ *)

(* Free a map's hold on [node]: its frames go back to the store and the
   layer below loses a dependent (recursively, when it was the last). *)
let rec free_node store node =
  Tbl.iter (fun _ f -> Frame_store.decref store f) node.frames;
  Tbl.reset node.frames;
  match node.base with
  | Some b ->
    remove_dep b node;
    if b.deps = [] then free_node store b
  | None -> ()

let release t =
  if not t.released then begin
    free_node t.store t.top;
    t.top <- fresh_top None;
    t.mapped <- 0;
    t.released <- true;
    Frame_store.notify_release t.store ~map:t.id
  end

let released t = t.released

let absorb ~parent ~child =
  check parent;
  check child;
  (* Drop the parent's chain and transplant the child's overlay wholesale:
     O(child dirty pages), not O(mapped). *)
  free_node parent.store parent.top;
  parent.top <- child.top;
  parent.mapped <- child.mapped;
  parent.cow_copies <- parent.cow_copies + child.cow_copies;
  parent.writes <- parent.writes + child.writes;
  parent.reads <- parent.reads + child.reads;
  (* The surviving timeline inherits the winner's write history; the
     child keeps its own copy for post-mortem analysis. *)
  Tbl.iter (fun k v -> Tbl.replace parent.writes_log k v) child.writes_log;
  child.top <- fresh_top None;
  child.mapped <- 0;
  child.released <- true;
  Frame_store.notify_release child.store ~map:child.id;
  compact parent

let cow_copies t = t.cow_copies
let writes t = t.writes
let reads t = t.reads

let set_tracking t b = t.track <- b
let tracking t = t.track

(* Deliberately usable after [release]: eliminated siblings are audited
   through this log. *)
let write_log t =
  Tbl.fold (fun vpage fid acc -> (vpage, fid) :: acc) t.writes_log []
  |> List.sort compare

let mapped_vpages t =
  check t;
  fold_resolved t (fun vp _ _ acc -> vp :: acc) [] |> List.sort compare

let frame_id t ~vpage =
  check t;
  Option.map Frame_store.id (resolve_opt t vpage)

(* Stat-neutral by design: auditing a map must not perturb the access
   counters and log the analysis layer is about to read (the observer
   effect the old [read]-based implementation had). Frames are compared by
   physical identity first — only valid within one store — and byte-wise
   otherwise; an unmapped page equals a mapped one that is all zeroes. *)
let is_zero_page b =
  let rec go i = i < 0 || (Bytes.unsafe_get b i = '\000' && go (i - 1)) in
  go (Bytes.length b - 1)

let snapshot_equal a b =
  check a;
  check b;
  let ps = page_size a in
  if ps <> page_size b then false
  else begin
    let pages = Tbl.create () in
    let add t =
      let rec go node =
        Tbl.iter (fun v _ -> Tbl.replace pages v ()) node.frames;
        match node.base with Some base -> go base | None -> ()
      in
      go t.top
    in
    add a;
    add b;
    let same_store = a.store == b.store in
    Tbl.fold
      (fun vpage () acc ->
        acc
        &&
        match (resolve_opt a vpage, resolve_opt b vpage) with
        | None, None -> true
        | Some fa, Some fb ->
          (same_store && fa == fb)
          || Bytes.equal (Frame_store.data fa) (Frame_store.data fb)
        | Some f, None | None, Some f -> is_zero_page (Frame_store.data f))
      pages true
  end

(* Exported for the analysis layer's per-operation tables. It is named
   here, after every use, because a module the signature restricts is
   captured by each closure that calls into it. *)
module Int_table = Tbl
