type t = {
  map_ : Page_map.t;
  model_ : Cost_model.t;
  pending : floatarray;
      (* length 1: the cost not yet drained. A mutable float field of
         this mixed record would box every value stored in it. *)
}

let model t = t.model_
let map t = t.map_

let page_size t = t.model_.Cost_model.page_size

let pending_cost t = Float.Array.unsafe_get t.pending 0
let set_pending t c = Float.Array.unsafe_set t.pending 0 c
let add_cost t c = set_pending t (pending_cost t +. c)

let drain_cost t =
  let c = pending_cost t in
  set_pending t 0.;
  c

let check_addr ~addr ~len =
  if addr < 0 || len < 0 then invalid_arg "Address_space: negative address"

let fault_cost t = add_cost t (Cost_model.copy_cost t.model_ ~pages:1)

(* Apply [f page off chunk_len data_off] to each page-aligned chunk of the
   range [addr, addr+len). *)
let iter_chunks t ~addr ~len f =
  check_addr ~addr ~len;
  let ps = page_size t in
  let pos = ref addr in
  let remaining = ref len in
  while !remaining > 0 do
    let vpage = !pos / ps in
    let off = !pos mod ps in
    let chunk = min !remaining (ps - off) in
    f ~vpage ~off ~chunk ~data_off:(!pos - addr);
    pos := !pos + chunk;
    remaining := !remaining - chunk
  done

let read_bytes t ~addr ~len =
  let out = Bytes.create len in
  iter_chunks t ~addr ~len (fun ~vpage ~off ~chunk ~data_off ->
      Page_map.read_into t.map_ ~vpage ~off ~len:chunk ~dst:out ~dst_off:data_off);
  out

let write_bytes t ~addr src =
  let len = Bytes.length src in
  iter_chunks t ~addr ~len (fun ~vpage ~off ~chunk ~data_off ->
      if Page_map.write_from t.map_ ~vpage ~off ~src ~src_off:data_off ~len:chunk
      then fault_cost t)

let create ?(size_hint = 0) store model =
  if Frame_store.page_size store <> model.Cost_model.page_size then
    invalid_arg "Address_space.create: store/model page size mismatch";
  let t =
    { map_ = Page_map.create store; model_ = model;
      pending = Float.Array.make 1 0. }
  in
  if size_hint > 0 then begin
    (* Materialise the image pages, then discard the setup cost: the hinted
       image exists before the measured operations begin. *)
    let ps = model.Cost_model.page_size in
    let zero = Bytes.make 1 '\000' in
    for vpage = 0 to Cost_model.pages_for model ~bytes:size_hint - 1 do
      let copied = ref false in
      Page_map.write t.map_ ~vpage ~off:(ps - 1) ~src:zero ~copied
    done;
    ignore (drain_cost t)
  end;
  t

let fork ?model parent =
  let model = Option.value ~default:parent.model_ model in
  if model.Cost_model.page_size <> parent.model_.Cost_model.page_size then
    invalid_arg "Address_space.fork: model page size mismatch";
  let child_map = Page_map.fork parent.map_ in
  let child =
    { map_ = child_map; model_ = model; pending = Float.Array.make 1 0. }
  in
  add_cost child
    (Cost_model.fork_cost model ~mapped_pages:(Page_map.mapped_pages parent.map_));
  child

let absorb ~parent ~child =
  Page_map.absorb ~parent:parent.map_ ~child:child.map_;
  add_cost parent parent.model_.Cost_model.absorb_base;
  (* Unflushed child cost belongs to the surviving timeline. *)
  add_cost parent (drain_cost child)

let release t = Page_map.release t.map_

(* Scalar accessors ride the page map's in-place fast paths whenever the
   access stays inside one page; only a page-crossing access (or a
   serviced fault, which is priced anyway) takes the allocating route. *)

let get_u8 t ~addr =
  check_addr ~addr ~len:1;
  let ps = page_size t in
  Page_map.get_u8 t.map_ ~vpage:(addr / ps) ~off:(addr mod ps)

let set_u8 t ~addr v =
  if v < 0 || v > 0xff then invalid_arg "Address_space.set_u8";
  check_addr ~addr ~len:1;
  let ps = page_size t in
  if Page_map.set_u8 t.map_ ~vpage:(addr / ps) ~off:(addr mod ps) v then
    fault_cost t

let get_i64 t ~addr =
  check_addr ~addr ~len:8;
  let ps = page_size t in
  let off = addr mod ps in
  if off + 8 <= ps then Page_map.get_i64 t.map_ ~vpage:(addr / ps) ~off
  else Bytes.get_int64_le (read_bytes t ~addr ~len:8) 0

let set_i64 t ~addr v =
  check_addr ~addr ~len:8;
  let ps = page_size t in
  let off = addr mod ps in
  if off + 8 <= ps then begin
    if Page_map.set_i64 t.map_ ~vpage:(addr / ps) ~off v then fault_cost t
  end
  else begin
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 v;
    write_bytes t ~addr b
  end

let get_int t ~addr =
  check_addr ~addr ~len:8;
  let ps = page_size t in
  let off = addr mod ps in
  if off + 8 <= ps then Page_map.get_int t.map_ ~vpage:(addr / ps) ~off
  else Int64.to_int (Bytes.get_int64_le (read_bytes t ~addr ~len:8) 0)

let set_int t ~addr v =
  check_addr ~addr ~len:8;
  let ps = page_size t in
  let off = addr mod ps in
  if off + 8 <= ps then begin
    if Page_map.set_int t.map_ ~vpage:(addr / ps) ~off v then fault_cost t
  end
  else begin
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 (Int64.of_int v);
    write_bytes t ~addr b
  end

let get_float t ~addr = Int64.float_of_bits (get_i64 t ~addr)
let set_float t ~addr v = set_i64 t ~addr (Int64.bits_of_float v)

let get_string t ~addr ~len = Bytes.to_string (read_bytes t ~addr ~len)
let set_string t ~addr s = write_bytes t ~addr (Bytes.of_string s)

(* A pure fault probe: no byte is read or written, so a page that is
   already private costs (and counts) nothing — the old read-then-rewrite
   implementation charged a spurious write per page. *)
let touch t ~addr ~len =
  iter_chunks t ~addr ~len (fun ~vpage ~off:_ ~chunk:_ ~data_off:_ ->
      if Page_map.touch_page t.map_ ~vpage then fault_cost t)

let cow_copies t = Page_map.cow_copies t.map_
let mapped_pages t = Page_map.mapped_pages t.map_
let private_pages t = Page_map.private_pages t.map_

let set_tracking _ _ = ()
