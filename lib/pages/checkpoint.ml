(* An image's pages are frames of a store private to the image, so they
   come from (and, at [release], go back to) the domain's free-frame pool
   without touching the captured space's store: its ids and counters stay
   exactly what they would be with no checkpoint taken. *)
type image = {
  psize : int;
  store : Frame_store.t;
  vpages : int array;  (* ascending in a captured image; wire order in a parsed one *)
  frames : Frame_store.frame array;  (* [frames.(i)] holds page [vpages.(i)] *)
  mutable released : bool;
}

(* A frame of [store] holding page [vpage] of [map]. *)
let read_page store map psize vpage =
  let f = Frame_store.alloc store in
  Page_map.read_into map ~vpage ~off:0 ~len:psize ~dst:(Frame_store.data f) ~dst_off:0;
  f

let capture space =
  let map = Address_space.map space in
  let psize = Page_map.page_size map in
  let vpages = Page_map.mapped_vpage_array map in
  let store = Frame_store.create ~page_size:psize in
  {
    psize;
    store;
    vpages;
    frames = Array.map (read_page store map psize) vpages;
    released = false;
  }

let release image =
  if not image.released then begin
    image.released <- true;
    Array.iter (Frame_store.decref image.store) image.frames
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
  let map = Address_space.map space and copied = ref false in
  for i = 0 to Array.length image.vpages - 1 do
    Page_map.write map ~vpage:image.vpages.(i) ~off:0
      ~src:(Frame_store.data image.frames.(i)) ~copied
  done;
  ignore (Address_space.drain_cost space);
  space

let mapped_pages image = Array.length image.vpages

let header_bytes = 16
let per_page_header = 8

let size_bytes image =
  header_bytes + (mapped_pages image * (per_page_header + image.psize))

let to_bytes image =
  check_live image;
  let buf = Buffer.create (size_bytes image) in
  let add_int n =
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 (Int64.of_int n);
    Buffer.add_bytes buf b
  in
  add_int image.psize;
  add_int (mapped_pages image);
  Array.iteri
    (fun i vpage ->
      add_int vpage;
      Buffer.add_bytes buf (Frame_store.data image.frames.(i)))
    image.vpages;
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
  let vpages =
    Array.init count (fun i ->
        let vpage = int_at (header_bytes + (i * per_page)) in
        (* A negative page number or a repeated entry cannot come from
           [to_bytes]; restoring such an image would double-write pages
           silently. *)
        if vpage < 0 || Hashtbl.mem seen vpage then fail ();
        Hashtbl.replace seen vpage ();
        vpage)
  in
  let store = Frame_store.create ~page_size:psize in
  let frames =
    Array.init count (fun i ->
        let f = Frame_store.alloc store in
        Bytes.blit b (header_bytes + (i * per_page) + per_page_header)
          (Frame_store.data f) 0 psize;
        f)
  in
  { psize; store; vpages; frames; released = false }

let transfer_cost model image =
  Cost_model.remote_spawn_cost model ~mapped_pages:(mapped_pages image)
