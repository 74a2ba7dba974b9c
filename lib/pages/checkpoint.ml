(* An image's pages are frames of a store private to the image, so they
   come from (and, at [release], go back to) the domain's free-frame pool
   without touching the captured space's store: its ids and counters stay
   exactly what they would be with no checkpoint taken. *)
type image = {
  psize : int;
  store : Frame_store.t;
  pages : (int * Frame_store.frame) list;  (* vpage, contents *)
  tracked : bool;  (* the source space's page tracking, re-applied at restore *)
  mutable released : bool;
}

(* One frame per source entry; [fill] writes the page into the frame and
   names its vpage. *)
let of_pages psize ~tracked fill entries =
  let store = Frame_store.create ~page_size:psize in
  let pages =
    List.map
      (fun e ->
        let f = Frame_store.alloc store in
        (fill e (Frame_store.data f), f))
      entries
  in
  { psize; store; pages; tracked; released = false }

let capture space =
  let map = Address_space.map space in
  let psize = Page_map.page_size map in
  of_pages psize ~tracked:(Page_map.tracking map)
    (fun vpage dst ->
      Page_map.read_into map ~vpage ~off:0 ~len:psize ~dst ~dst_off:0;
      vpage)
    (Page_map.mapped_vpages map)

let release image =
  if not image.released then begin
    image.released <- true;
    List.iter (fun (_, f) -> Frame_store.decref image.store f) image.pages
  end

(* A released image's frames may already hold another store's pages. *)
let check_live image =
  if image.released then invalid_arg "Checkpoint: image released"

let restore store model image =
  check_live image;
  if Frame_store.page_size store <> image.psize then
    invalid_arg "Checkpoint.restore: page size mismatch";
  if model.Cost_model.page_size <> image.psize then
    invalid_arg "Checkpoint.restore: model page size mismatch";
  let space = Address_space.create store model in
  List.iter
    (fun (vpage, f) ->
      let copied = ref false in
      Page_map.write (Address_space.map space) ~vpage ~off:0
        ~src:(Frame_store.data f) ~copied)
    image.pages;
  ignore (Address_space.drain_cost space);
  (* After the fill, so the restore's own writes stay unobserved. *)
  if image.tracked then Address_space.set_tracking space true;
  space

let mapped_pages image = List.length image.pages

let header_bytes = 16
let per_page_header = 8

let size_bytes image =
  header_bytes + List.length image.pages * (per_page_header + image.psize)

let to_bytes image =
  check_live image;
  let buf = Buffer.create (size_bytes image) in
  let add_int n =
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 (Int64.of_int n);
    Buffer.add_bytes buf b
  in
  add_int image.psize;
  add_int (List.length image.pages);
  List.iter
    (fun (vpage, f) ->
      add_int vpage;
      Buffer.add_bytes buf (Frame_store.data f))
    image.pages;
  Buffer.to_bytes buf

let of_bytes b =
  let fail () = invalid_arg "Checkpoint.of_bytes: malformed image" in
  let len = Bytes.length b in
  if len < header_bytes then fail ();
  let int_at off = Int64.to_int (Bytes.get_int64_le b off) in
  let psize = int_at 0 in
  let count = int_at 8 in
  (* Field-by-field bounds, overflow-safe: [psize] and [count] come off the
     wire, so [count * (per_page_header + psize)] may wrap around and
     accidentally equal [len]. Any page at all means [psize] must fit in
     the buffer; bounding [count] by the room actually left then keeps the
     product below [len] — a truncated or oversized buffer fails here,
     with this error, rather than as an out-of-range access deep inside
     [Bytes]. An empty image ([count = 0], legal whatever its [psize])
     multiplies by zero, which cannot wrap. *)
  if psize <= 0 || count < 0 then fail ();
  if count > 0 then begin
    if psize > len then fail ();
    if count > (len - header_bytes) / (per_page_header + psize) then fail ()
  end;
  let per_page = per_page_header + psize in
  if len <> header_bytes + (count * per_page) then fail ();
  let seen = Hashtbl.create (max 16 count) in
  let offsets =
    List.init count (fun i ->
        let off = header_bytes + (i * per_page) in
        let vpage = int_at off in
        (* A negative page number or a repeated entry cannot come from
           [to_bytes]; restoring such an image would double-write pages
           silently. *)
        if vpage < 0 || Hashtbl.mem seen vpage then fail ();
        Hashtbl.replace seen vpage ();
        off)
  in
  of_pages psize ~tracked:false
    (fun off dst ->
      Bytes.blit b (off + per_page_header) dst 0 psize;
      int_at off)
    offsets

let transfer_cost model image =
  Cost_model.remote_spawn_cost model ~mapped_pages:(mapped_pages image)
