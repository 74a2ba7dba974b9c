(* Tests for the paged store: frames, COW page maps, address spaces, the
   calibrated cost models, and the store's allocation contracts. *)

let check = Alcotest.check
let cf = Alcotest.float 1e-9

let mk_store ?(page_size = 256) () = Frame_store.create ~page_size

(* ---------------- Frame_store ---------------- *)

let test_frame_alloc_zeroed () =
  let s = mk_store () in
  let f = Frame_store.alloc s in
  check Alcotest.int "refcount 1" 1 (Frame_store.refcount f);
  check Alcotest.bool "zero filled" true
    (Bytes.for_all (fun c -> c = '\000') (Frame_store.data f));
  check Alcotest.int "live" 1 (Frame_store.live_frames s)

let test_frame_copy_independent () =
  let s = mk_store () in
  let f = Frame_store.alloc s in
  Bytes.set (Frame_store.data f) 0 'a';
  let g = Frame_store.alloc_copy s f in
  check Alcotest.char "copied contents" 'a' (Bytes.get (Frame_store.data g) 0);
  Bytes.set (Frame_store.data g) 0 'b';
  check Alcotest.char "original untouched" 'a' (Bytes.get (Frame_store.data f) 0);
  check Alcotest.int "cow count" 1 (Frame_store.cow_copies s)

let test_frame_refcounting () =
  let s = mk_store () in
  let f = Frame_store.alloc s in
  Frame_store.incref f;
  check Alcotest.int "refs 2" 2 (Frame_store.refcount f);
  Frame_store.decref s f;
  check Alcotest.int "still live" 1 (Frame_store.live_frames s);
  Frame_store.decref s f;
  check Alcotest.int "freed" 0 (Frame_store.live_frames s)

let test_frame_recycling_zeroes () =
  let s = mk_store () in
  let f = Frame_store.alloc s in
  Bytes.set (Frame_store.data f) 3 'x';
  Frame_store.decref s f;
  let g = Frame_store.alloc s in
  check Alcotest.bool "recycled frame zeroed" true
    (Bytes.for_all (fun c -> c = '\000') (Frame_store.data g));
  check Alcotest.int "two allocations total" 2 (Frame_store.total_allocations s)

let test_frame_pool_crosses_stores () =
  (* Two stores on one domain, like two batch engines in turn: a frame the
     first frees serves the second, zeroed and under the second's ids. *)
  let a = mk_store () and b = mk_store () in
  ignore (Frame_store.alloc b);
  let f = Frame_store.alloc a in
  let buf = Frame_store.data f in
  Bytes.fill buf 0 (Bytes.length buf) 'x';
  Frame_store.decref a f;
  let g = Frame_store.alloc b in
  check Alcotest.bool "b reuses a's freed frame" true (Frame_store.data g == buf);
  check Alcotest.bool "recycled frame zeroed" true
    (Bytes.for_all (fun c -> c = '\000') (Frame_store.data g));
  check Alcotest.int "b's next id" 1 (Frame_store.id g);
  check Alcotest.int "a live" 0 (Frame_store.live_frames a);
  check Alcotest.int "b live" 2 (Frame_store.live_frames b);
  check Alcotest.int "a allocations" 1 (Frame_store.total_allocations a);
  check Alcotest.int "b allocations" 2 (Frame_store.total_allocations b)

(* ---------------- Page_map ---------------- *)

(* [len] bytes at [off] of page [vpage], in a fresh buffer. *)
let read m ~vpage ~off ~len =
  let dst = Bytes.create len in
  Page_map.read_into m ~vpage ~off ~len ~dst ~dst_off:0;
  dst

let shared_pages m = Page_map.mapped_pages m - Page_map.private_pages m

let test_map_read_unmapped_zero () =
  let s = mk_store () in
  let m = Page_map.create s in
  let b = read m ~vpage:5 ~off:10 ~len:4 in
  check Alcotest.string "zeros" "\000\000\000\000" (Bytes.to_string b);
  check Alcotest.int "no page materialised" 0 (Page_map.mapped_pages m)

let test_map_write_then_read () =
  let s = mk_store () in
  let m = Page_map.create s in
  let copied = ref false in
  Page_map.write m ~vpage:2 ~off:7 ~src:(Bytes.of_string "hey") ~copied;
  check Alcotest.bool "first write is not a cow fault" false !copied;
  check Alcotest.string "read back" "hey"
    (Bytes.to_string (read m ~vpage:2 ~off:7 ~len:3));
  check Alcotest.int "one page" 1 (Page_map.mapped_pages m)

let test_map_fork_shares_frames () =
  let s = mk_store () in
  let m = Page_map.create s in
  let copied = ref false in
  Page_map.write m ~vpage:0 ~off:0 ~src:(Bytes.of_string "abc") ~copied;
  let c = Page_map.fork m in
  check Alcotest.(option int) "same frame" (Page_map.frame_id m ~vpage:0)
    (Page_map.frame_id c ~vpage:0);
  check Alcotest.int "parent shared" 1 (shared_pages m);
  check Alcotest.int "child shared" 1 (shared_pages c);
  check Alcotest.string "child reads parent data" "abc"
    (Bytes.to_string (read c ~vpage:0 ~off:0 ~len:3))

let test_map_cow_isolation () =
  let s = mk_store () in
  let m = Page_map.create s in
  let copied = ref false in
  Page_map.write m ~vpage:0 ~off:0 ~src:(Bytes.of_string "abc") ~copied;
  let c = Page_map.fork m in
  let copied = ref false in
  Page_map.write c ~vpage:0 ~off:0 ~src:(Bytes.of_string "xyz") ~copied;
  check Alcotest.bool "write to shared page faults" true !copied;
  check Alcotest.string "child sees new" "xyz"
    (Bytes.to_string (read c ~vpage:0 ~off:0 ~len:3));
  check Alcotest.string "parent sees old" "abc"
    (Bytes.to_string (read m ~vpage:0 ~off:0 ~len:3));
  check Alcotest.bool "frames diverged" true
    (Page_map.frame_id m ~vpage:0 <> Page_map.frame_id c ~vpage:0);
  check Alcotest.int "child cow count" 1 (Page_map.cow_copies c);
  (* Second write to the now-private page must not fault again. *)
  let copied = ref false in
  Page_map.write c ~vpage:0 ~off:1 ~src:(Bytes.of_string "q") ~copied;
  check Alcotest.bool "private write no fault" false !copied

let test_map_absorb () =
  let s = mk_store () in
  let parent = Page_map.create s in
  let copied = ref false in
  Page_map.write parent ~vpage:0 ~off:0 ~src:(Bytes.of_string "old") ~copied;
  let child = Page_map.fork parent in
  let copied = ref false in
  Page_map.write child ~vpage:0 ~off:0 ~src:(Bytes.of_string "new") ~copied;
  Page_map.write child ~vpage:1 ~off:0 ~src:(Bytes.of_string "extra") ~copied;
  let child_cows = Page_map.cow_copies child in
  Page_map.absorb ~parent ~child;
  check Alcotest.string "parent sees child's update" "new"
    (Bytes.to_string (read parent ~vpage:0 ~off:0 ~len:3));
  check Alcotest.string "parent sees child's new page" "extra"
    (Bytes.to_string (read parent ~vpage:1 ~off:0 ~len:5));
  check Alcotest.bool "child released" true (Page_map.released child);
  check Alcotest.bool "cow history survives" true
    (Page_map.cow_copies parent >= child_cows);
  (* Old parent frame must have been dropped. *)
  check Alcotest.int "live frames = child's two" 2 (Frame_store.live_frames s)

let test_map_release_idempotent () =
  let s = mk_store () in
  let m = Page_map.create s in
  let copied = ref false in
  Page_map.write m ~vpage:0 ~off:0 ~src:(Bytes.of_string "a") ~copied;
  Page_map.release m;
  Page_map.release m;
  check Alcotest.int "frames freed" 0 (Frame_store.live_frames s);
  Alcotest.check_raises "use after release"
    (Invalid_argument "Page_map: use after release") (fun () ->
      ignore (Page_map.mapped_pages m))

(* A released or absorbed map's table goes to the domain's spare tables,
   and the next fork or first insert takes it back: it must come back
   empty, whatever the map it left held. Each round fills a table with
   four pages, gives it back by a release or an absorb, and reads a map
   built on the spare. *)
let test_map_recycled_table_empty () =
  let s = mk_store () in
  let fill m =
    for vp = 0 to 3 do
      ignore (Page_map.set_u8 m ~vpage:vp ~off:0 (vp + 1))
    done
  in
  let check_fresh what =
    let m = Page_map.create s in
    ignore (Page_map.set_u8 m ~vpage:100 ~off:0 7);
    check Alcotest.(array int) (what ^ ": mapped") [| 100 |] (Page_map.mapped_vpage_array m);
    for vp = 0 to 3 do
      check Alcotest.int (what ^ ": unmapped page reads 0") 0 (Page_map.get_u8 m ~vpage:vp ~off:0)
    done;
    let child = Page_map.fork m in
    check Alcotest.(array int) (what ^ ": fork") [| 100 |] (Page_map.mapped_vpage_array child);
    Page_map.release child;
    Page_map.release m
  in
  for _ = 1 to 3 do
    let m = Page_map.create s in
    fill m;
    Page_map.release m;
    check_fresh "after a release";
    let parent = Page_map.create s in
    fill parent;
    let child = Page_map.fork parent in
    ignore (Page_map.set_u8 child ~vpage:0 ~off:0 9);
    Page_map.absorb ~parent ~child;
    check_fresh "after an absorb";
    Page_map.release parent
  done;
  check Alcotest.int "frames freed" 0 (Frame_store.live_frames s)

let test_map_bounds () =
  let s = mk_store () in
  let m = Page_map.create s in
  Alcotest.check_raises "crossing boundary"
    (Invalid_argument "Page_map: access crosses page boundary") (fun () ->
      ignore (read m ~vpage:0 ~off:250 ~len:10))

let test_map_snapshot_equal () =
  let s = mk_store () in
  let a = Page_map.create s in
  let copied = ref false in
  Page_map.write a ~vpage:0 ~off:0 ~src:(Bytes.of_string "zz") ~copied;
  let b = Page_map.fork a in
  check Alcotest.bool "fork equal" true (Page_map.snapshot_equal a b);
  Page_map.write b ~vpage:3 ~off:0 ~src:(Bytes.of_string "w") ~copied;
  check Alcotest.bool "diverged" false (Page_map.snapshot_equal a b);
  (* An unmapped page equals a mapped page exactly when the latter is all
     zeroes, within one store and across two. *)
  let unmapped_vs ~same_store byte =
    let u = Page_map.create s in
    let m = Page_map.create (if same_store then s else mk_store ()) in
    Page_map.write m ~vpage:5 ~off:17 ~src:(Bytes.make 1 byte) ~copied;
    (Page_map.snapshot_equal u m, Page_map.snapshot_equal m u)
  in
  let pair = Alcotest.(pair bool bool) in
  check pair "unmapped = mapped all-zero" (true, true)
    (unmapped_vs ~same_store:true '\000');
  check pair "unmapped <> mapped nonzero" (false, false)
    (unmapped_vs ~same_store:true 'n');
  check pair "across stores: unmapped = mapped all-zero" (true, true)
    (unmapped_vs ~same_store:false '\000');
  check pair "across stores: unmapped <> mapped nonzero" (false, false)
    (unmapped_vs ~same_store:false 'n')

(* ---------------- Address_space ---------------- *)

let model = Cost_model.uniform ~page_size:256 ()

let mk_space ?size_hint () =
  Address_space.create ?size_hint (mk_store ()) model

let test_space_cross_page_rw () =
  let sp = mk_space () in
  let data = String.init 700 (fun i -> Char.chr (i mod 256)) in
  Address_space.set_string sp ~addr:100 data;
  let back = Space_io.read sp ~addr:100 ~len:700 in
  check Alcotest.bool "round trip across pages" true (String.equal data back);
  check Alcotest.int "pages materialised" 4 (Address_space.mapped_pages sp)

let test_space_typed_accessors () =
  let sp = mk_space () in
  Address_space.set_int sp ~addr:8 123456789;
  check Alcotest.int "int" 123456789 (Address_space.get_int sp ~addr:8);
  Address_space.set_int sp ~addr:16 (-1);
  check Alcotest.int "negative int" (-1) (Address_space.get_int sp ~addr:16);
  Address_space.set_string sp ~addr:512 "hello";
  check Alcotest.string "string" "hello" (Space_io.read sp ~addr:512 ~len:5)

let test_space_negative_addr () =
  let sp = mk_space () in
  Alcotest.check_raises "negative address"
    (Invalid_argument "Address_space: negative address") (fun () ->
      ignore (Address_space.get_int sp ~addr:(-1)))

let test_space_fork_isolation_and_cost () =
  (* Use a real model so costs are visible. *)
  let m = Cost_model.att_3b2 in
  let store = Frame_store.create ~page_size:m.Cost_model.page_size in
  let sp = Address_space.create ~size_hint:(320 * 1024) store m in
  check Alcotest.int "320K is 160 2K-pages" 160 (Address_space.mapped_pages sp);
  check cf "hint cost discarded" 0. (Address_space.drain_cost sp);
  let child = Address_space.fork sp in
  let setup = Address_space.drain_cost child in
  (* Paper: fork of a 320K address space on the 3B2 is about 31 ms. *)
  check Alcotest.bool "fork cost ~31ms" true (Float.abs (setup -. 0.031) < 1e-6);
  Address_space.set_int child ~addr:0 7;
  let cow = Address_space.drain_cost child in
  check Alcotest.bool "one page copy charged" true
    (Float.abs (cow -. (1. /. 326.)) < 1e-9);
  check Alcotest.int "parent unaffected" 0 (Address_space.get_int sp ~addr:0)

let test_space_absorb_merges () =
  let sp = mk_space () in
  Address_space.set_int sp ~addr:0 1;
  let child = Address_space.fork sp in
  ignore (Address_space.drain_cost child);
  Address_space.set_int child ~addr:0 2;
  Address_space.absorb ~parent:sp ~child;
  check Alcotest.int "parent got child's value" 2 (Address_space.get_int sp ~addr:0)

let test_space_touch () =
  let sp = mk_space () in
  Address_space.set_int sp ~addr:0 5;
  let child = Address_space.fork sp in
  ignore (Address_space.drain_cost child);
  Address_space.touch child ~addr:0 ~len:1;
  check Alcotest.int "touch privatised the page" 1 (Address_space.cow_copies child);
  check Alcotest.int "contents preserved" 5 (Address_space.get_int child ~addr:0)

let test_space_page_size_mismatch () =
  let store = Frame_store.create ~page_size:128 in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Address_space.create: store/model page size mismatch")
    (fun () -> ignore (Address_space.create store model))

let test_space_scalar_cross_page () =
  (* Scalars that straddle a page boundary must fall back to the byte
     path and still round-trip, including negative values. *)
  let sp = mk_space () in
  let addr = 256 - 4 in
  Address_space.set_int sp ~addr (-123456789);
  check Alcotest.int "cross-page int" (-123456789) (Address_space.get_int sp ~addr);
  Address_space.set_int sp ~addr:(512 - 3) 0x1122334455667788;
  check Alcotest.int "cross-page wide int" 0x1122334455667788
    (Address_space.get_int sp ~addr:(512 - 3));
  (* And the in-page fast path agrees with the byte path bit for bit. *)
  Address_space.set_int sp ~addr:1024 min_int;
  check Alcotest.int "min_int" min_int (Address_space.get_int sp ~addr:1024);
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int min_int);
  check Alcotest.string "same bytes as the byte path" (Bytes.to_string b)
    (Space_io.read sp ~addr:1024 ~len:8)

let test_space_touch_private_is_free () =
  (* Satellite: [touch] is a fault-only probe. A page that is already
     private must cost nothing; an unmapped page is materialised for
     free; only a genuine COW fault is charged. *)
  let sp = mk_space () in
  Address_space.set_int sp ~addr:0 5;
  ignore (Address_space.drain_cost sp);
  Address_space.touch sp ~addr:0 ~len:8;
  check cf "no cost on private page" 0. (Address_space.drain_cost sp);
  Address_space.touch sp ~addr:2048 ~len:1;
  check Alcotest.int "unmapped page materialised" 2 (Address_space.mapped_pages sp);
  check cf "no cost on unmapped page" 0. (Address_space.drain_cost sp);
  check Alcotest.int "no cow fault" 0 (Address_space.cow_copies sp);
  (* Shared page: the probe must privatise and charge. *)
  let child = Address_space.fork sp in
  ignore (Address_space.drain_cost child);
  Address_space.touch child ~addr:0 ~len:1;
  check Alcotest.int "one cow fault" 1 (Address_space.cow_copies child);
  check cf "exactly one page copy charged"
    (Cost_model.copy_cost model ~pages:1)
    (Address_space.drain_cost child)

let test_snapshot_equal_is_stat_neutral () =
  (* Satellite: auditing with [snapshot_equal] must not perturb what it
     audits: no write reaches the store's observers, no fault is taken,
     and no frame is allocated or moved. *)
  let s = mk_store () in
  let a = Page_map.create s in
  let copied = ref false in
  Page_map.write a ~vpage:0 ~off:0 ~src:(Bytes.of_string "zz") ~copied;
  let b = Page_map.fork a in
  Page_map.write b ~vpage:3 ~off:0 ~src:(Bytes.of_string "w") ~copied;
  ignore (read a ~vpage:0 ~off:0 ~len:2);
  let heard = ref 0 in
  Frame_store.add_observer s
    { Frame_store.on_write = (fun ~map:_ ~vpage:_ ~frame:_ -> incr heard);
      on_free = (fun ~frame:_ -> incr heard);
      on_release = (fun ~map:_ -> incr heard) };
  let frames m = List.map (fun vp -> Page_map.frame_id m ~vpage:vp) [ 0; 3 ] in
  let frames_a = frames a and frames_b = frames b in
  let allocs = Frame_store.total_allocations s in
  ignore (Page_map.snapshot_equal a b);
  ignore (Page_map.snapshot_equal a a);
  check Alcotest.int "observers hear nothing" 0 !heard;
  check Alcotest.int "no frame allocated" allocs (Frame_store.total_allocations s);
  check Alcotest.int "no cow fault" 0 (Page_map.cow_copies a + Page_map.cow_copies b);
  check Alcotest.(list (option int)) "a's frames unchanged" frames_a (frames a);
  check Alcotest.(list (option int)) "b's frames unchanged" frames_b (frames b)

(* Satellite: frame conservation across fork / write / absorb / release
   schedules. After the tree of maps has been absorbed and released back
   down to the root, every mapped page must be backed by exactly one live
   frame, and releasing the root must reclaim them all. *)
let test_frame_conservation_schedules () =
  for seed = 0 to 99 do
    let rng = Random.State.make [| 7 * seed + 13 |] in
    let store = mk_store () in
    let root = Page_map.create store in
    let copied = ref false in
    let wr m =
      Page_map.write m
        ~vpage:(Random.State.int rng 12)
        ~off:(Random.State.int rng 200)
        ~src:(Bytes.make (1 + Random.State.int rng 8) 'w')
        ~copied
    in
    for _ = 0 to 3 do
      wr root
    done;
    (* [edges] is a stack of fork edges; absorbing or releasing always
       picks a leaf (the most recent edge), like nested alt blocks do. *)
    let edges = ref [] in
    for _ = 0 to 40 do
      match Random.State.int rng 4 with
      | 0 ->
        let parent =
          match !edges with [] -> root | (_, child) :: _ -> child
        in
        edges := (parent, Page_map.fork parent) :: !edges
      | 1 -> (
        match !edges with
        | [] -> wr root
        | (parent, child) :: rest ->
          Page_map.absorb ~parent ~child;
          edges := rest)
      | 2 -> (
        match !edges with
        | [] -> wr root
        | (_, child) :: rest ->
          Page_map.release child;
          edges := rest)
      | _ ->
        let m = match !edges with [] -> root | (_, child) :: _ -> child in
        wr m
    done;
    List.iter (fun (_, child) -> Page_map.release child) !edges;
    if
      not
        (Frame_store.live_frames store = Page_map.mapped_pages root)
    then
      Alcotest.failf "seed %d: %d live frames for %d mapped pages" seed
        (Frame_store.live_frames store)
        (Page_map.mapped_pages root);
    Page_map.release root;
    if Frame_store.live_frames store <> 0 then
      Alcotest.failf "seed %d: %d frames leaked after release" seed
        (Frame_store.live_frames store)
  done

(* ---------------- Cost_model ---------------- *)

let test_model_calibration_3b2 () =
  let m = Cost_model.att_3b2 in
  check Alcotest.int "2K pages" 2048 m.Cost_model.page_size;
  let pages = Cost_model.pages_for m ~bytes:(320 * 1024) in
  check Alcotest.int "320K = 160 pages" 160 pages;
  check Alcotest.bool "fork ~= 31 ms" true
    (Float.abs (Cost_model.fork_cost m ~mapped_pages:pages -. 0.031) < 1e-6);
  check Alcotest.bool "copy rate 326/s" true
    (Float.abs ((1. /. m.Cost_model.page_copy) -. 326.) < 1e-6)

let test_model_calibration_hp () =
  let m = Cost_model.hp_9000_350 in
  let pages = Cost_model.pages_for m ~bytes:(320 * 1024) in
  check Alcotest.int "320K = 80 4K-pages" 80 pages;
  check Alcotest.bool "fork ~= 12 ms" true
    (Float.abs (Cost_model.fork_cost m ~mapped_pages:pages -. 0.012) < 1e-6);
  check Alcotest.bool "copy rate 1034/s" true
    (Float.abs ((1. /. m.Cost_model.page_copy) -. 1034.) < 1e-6)

let test_model_calibration_rfork () =
  let m = Cost_model.distributed_lan in
  let pages = Cost_model.pages_for m ~bytes:(70 * 1024) in
  let mech = Cost_model.remote_spawn_cost m ~mapped_pages:pages in
  check Alcotest.bool "rfork mechanism ~1.0 s" true (Float.abs (mech -. 1.0) < 0.01);
  let observed = mech +. (6. *. m.Cost_model.msg_latency) in
  check Alcotest.bool "observed ~1.3 s" true (Float.abs (observed -. 1.3) < 0.01)

let test_model_pages_for_edges () =
  let m = Cost_model.uniform ~page_size:100 () in
  check Alcotest.int "0 bytes" 0 (Cost_model.pages_for m ~bytes:0);
  check Alcotest.int "1 byte" 1 (Cost_model.pages_for m ~bytes:1);
  check Alcotest.int "exact page" 1 (Cost_model.pages_for m ~bytes:100);
  check Alcotest.int "page+1" 2 (Cost_model.pages_for m ~bytes:101)

(* A send of 1,000 bytes (header included) arrives after the model's
   latency plus its per-byte price. *)
let test_model_message_cost () =
  let eng = Engine.create ~model:Cost_model.hp_9000_350 ~trace:false () in
  let payload = Payload.Str (String.make (1000 - Message.header_bytes - 4) 'x') in
  let arrived = ref Float.nan in
  let receiver =
    Engine.spawn eng (fun ctx ->
        ignore (Engine.receive ctx ());
        arrived := Engine.now_v ctx)
  in
  ignore (Engine.spawn eng (fun ctx -> Engine.send ctx receiver payload));
  Engine.run eng;
  check cf "latency + per byte" (3e-3 +. 1e-3) !arrived

(* ---------------- properties ---------------- *)

(* Random write workloads: a COW child and an eager full copy must present
   identical contents, and the parent must be unaffected. *)
let prop_cow_equals_eager_copy =
  let ops =
    QCheck.(
      list_of_size Gen.(int_range 1 60)
        (pair (int_bound 2047) (string_gen_of_size Gen.(int_range 1 8) Gen.printable)))
  in
  QCheck.Test.make ~name:"COW child == eager copy; parent isolated" ~count:200
    ops (fun writes ->
      let store = mk_store () in
      let parent = Page_map.create store in
      let copied = ref false in
      Page_map.write parent ~vpage:0 ~off:0 ~src:(Bytes.make 64 'p') ~copied;
      let child = Page_map.fork parent in
      let eager = Page_map.fork parent in
      (* Force the eager copy private immediately. *)
      for vp = 0 to 7 do
        let b = read eager ~vpage:vp ~off:0 ~len:256 in
        Page_map.write eager ~vpage:vp ~off:0 ~src:b ~copied
      done;
      List.iter
        (fun (addr, s) ->
          let vpage = addr / 256 and off = addr mod 256 in
          let src =
            Bytes.of_string (String.sub s 0 (min (String.length s) (256 - off)))
          in
          if Bytes.length src > 0 then begin
            Page_map.write child ~vpage ~off ~src ~copied;
            Page_map.write eager ~vpage ~off ~src ~copied
          end)
        writes;
      let equal = Page_map.snapshot_equal child eager in
      let parent_ok =
        Bytes.to_string (read parent ~vpage:0 ~off:0 ~len:64)
        = String.make 64 'p'
      in
      equal && parent_ok)

(* Refcount conservation: after releasing everything, no frames leak. *)
let prop_no_frame_leaks =
  QCheck.Test.make ~name:"release reclaims all frames" ~count:200
    QCheck.(list_of_size Gen.(int_range 0 20) (int_bound 15))
    (fun vpages ->
      let store = mk_store () in
      let parent = Page_map.create store in
      let copied = ref false in
      List.iter
        (fun vp ->
          Page_map.write parent ~vpage:vp ~off:0 ~src:(Bytes.of_string "x")
            ~copied)
        vpages;
      let kids = List.init 3 (fun _ -> Page_map.fork parent) in
      List.iter
        (fun k ->
          List.iter
            (fun vp ->
              Page_map.write k ~vpage:vp ~off:1 ~src:(Bytes.of_string "y")
                ~copied)
            vpages)
        kids;
      List.iter Page_map.release kids;
      Page_map.release parent;
      Frame_store.live_frames store = 0)

(* Model-based test of the free-frame pool. Two stores share this
   domain's pool, standing in for two batch engines; random alloc /
   alloc_copy / byte write / incref / decref sequences run against a
   reference holding each live frame's bytes and count plus each store's
   counters. After every step: fresh frames read all-zero and copies
   equal their source; ids never repeat within a store and the counters
   match; no live frame's bytes differ from the reference, so a write
   through one live frame never reached another. *)
type pool_op =
  | P_alloc of int  (* store *)
  | P_copy of int * int  (* store, source frame *)
  | P_write of int * int * int  (* frame, offset, byte *)
  | P_incref of int
  | P_decref of int

let show_pool_op = function
  | P_alloc s -> Printf.sprintf "alloc s%d" s
  | P_copy (s, i) -> Printf.sprintf "copy s%d #%d" s i
  | P_write (i, off, v) -> Printf.sprintf "write #%d[%d]=%d" i off v
  | P_incref i -> Printf.sprintf "incref #%d" i
  | P_decref i -> Printf.sprintf "decref #%d" i

let pool_ops =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (3, map (fun s -> P_alloc s) (int_bound 1));
        (2, map2 (fun s i -> P_copy (s, i)) (int_bound 1) nat);
        ( 4,
          map3 (fun i off v -> P_write (i, off, v)) nat (int_bound 255)
            (int_range 1 255) );
        (1, map (fun i -> P_incref i) nat);
        (3, map (fun i -> P_decref i) nat);
      ]
  in
  QCheck.make
    ~print:QCheck.Print.(list show_pool_op)
    (list_size (int_range 1 120) op)

type ref_frame = {
  rf_store : int;
  rf_frame : Frame_store.frame;
  rf_bytes : bytes;
  mutable rf_refs : int;
}

type ref_store = {
  mutable r_live : int;
  mutable r_allocs : int;
  mutable r_copies : int;
  r_ids : (int, unit) Hashtbl.t;
}

let prop_pool_matches_model =
  QCheck.Test.make ~name:"two stores on one pool match a reference model"
    ~count:300 pool_ops (fun ops ->
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let stores = [| mk_store (); mk_store () |] in
      let ps = Frame_store.page_size stores.(0) in
      let refs =
        Array.init 2 (fun _ ->
            { r_live = 0; r_allocs = 0; r_copies = 0; r_ids = Hashtbl.create 16 })
      in
      let live = ref [] in
      let pick i =
        match !live with
        | [] -> None
        | l -> Some (List.nth l (i mod List.length l))
      in
      let adopt s f ~expect ~what =
        let r = refs.(s) in
        r.r_live <- r.r_live + 1;
        r.r_allocs <- r.r_allocs + 1;
        let id = Frame_store.id f in
        if Hashtbl.mem r.r_ids id then fail "store %d reissued frame id %d" s id;
        Hashtbl.add r.r_ids id ();
        if not (Bytes.equal (Frame_store.data f) expect) then fail "%s" what;
        live :=
          !live
          @ [ { rf_store = s; rf_frame = f; rf_bytes = Bytes.copy expect; rf_refs = 1 } ]
      in
      let step = function
        | P_alloc s ->
            adopt s (Frame_store.alloc stores.(s)) ~expect:(Bytes.make ps '\000')
              ~what:"fresh frame not zero-filled"
        | P_copy (s, i) ->
            Option.iter
              (fun src ->
                refs.(s).r_copies <- refs.(s).r_copies + 1;
                adopt s
                  (Frame_store.alloc_copy stores.(s) src.rf_frame)
                  ~expect:src.rf_bytes ~what:"copy differs from its source")
              (pick i)
        | P_write (i, off, v) ->
            Option.iter
              (fun rf ->
                Bytes.set (Frame_store.data rf.rf_frame) off (Char.chr v);
                Bytes.set rf.rf_bytes off (Char.chr v))
              (pick i)
        | P_incref i ->
            Option.iter
              (fun rf ->
                Frame_store.incref rf.rf_frame;
                rf.rf_refs <- rf.rf_refs + 1)
              (pick i)
        | P_decref i ->
            Option.iter
              (fun rf ->
                Frame_store.decref stores.(rf.rf_store) rf.rf_frame;
                rf.rf_refs <- rf.rf_refs - 1;
                if rf.rf_refs = 0 then begin
                  live := List.filter (fun x -> x != rf) !live;
                  let r = refs.(rf.rf_store) in
                  r.r_live <- r.r_live - 1
                end)
              (pick i)
      in
      let agree () =
        Array.iteri
          (fun s st ->
            let r = refs.(s) in
            if
              Frame_store.live_frames st <> r.r_live
              || Frame_store.total_allocations st <> r.r_allocs
              || Frame_store.cow_copies st <> r.r_copies
            then
              fail "store %d counters live/allocs/copies %d/%d/%d, expected %d/%d/%d"
                s (Frame_store.live_frames st)
                (Frame_store.total_allocations st)
                (Frame_store.cow_copies st) r.r_live r.r_allocs r.r_copies)
          stores;
        List.iter
          (fun rf ->
            if Frame_store.refcount rf.rf_frame <> rf.rf_refs then
              fail "frame %d of store %d has count %d, expected %d"
                (Frame_store.id rf.rf_frame) rf.rf_store
                (Frame_store.refcount rf.rf_frame) rf.rf_refs;
            if not (Bytes.equal (Frame_store.data rf.rf_frame) rf.rf_bytes) then
              fail "live frame %d of store %d changed behind its holder"
                (Frame_store.id rf.rf_frame) rf.rf_store)
          !live
      in
      List.iter
        (fun op ->
          step op;
          agree ())
        ops;
      (* Hand every frame back, dirty, for the next case to draw on. *)
      List.iter
        (fun rf ->
          for _ = 1 to rf.rf_refs do
            Frame_store.decref stores.(rf.rf_store) rf.rf_frame
          done)
        !live;
      Frame_store.live_frames stores.(0) = 0 && Frame_store.live_frames stores.(1) = 0)

(* Absorb is equivalent to the child's view. *)
let prop_absorb_equals_child =
  QCheck.Test.make ~name:"absorb makes parent identical to child" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 30) (pair (int_bound 10) small_printable_string))
    (fun writes ->
      let store = mk_store () in
      let parent = Page_map.create store in
      let copied = ref false in
      Page_map.write parent ~vpage:0 ~off:0 ~src:(Bytes.of_string "base") ~copied;
      let child = Page_map.fork parent in
      let reference = Page_map.fork parent in
      List.iter
        (fun (vp, s) ->
          if String.length s > 0 && String.length s <= 200 then begin
            let src = Bytes.of_string s in
            Page_map.write child ~vpage:vp ~off:0 ~src ~copied;
            Page_map.write reference ~vpage:vp ~off:0 ~src ~copied
          end)
        writes;
      Page_map.absorb ~parent ~child;
      Page_map.snapshot_equal parent reference)

(* ---------------- model: Page_map against an eager-copy reference ----------------

   A family of maps over one store, grown by [fork] and shrunk by
   [absorb] and [release], replays random [set_u8], [get_u8] and
   [touch_page] steps. The reference copies every page table eagerly on
   fork and keeps a reference count per frame: a write to a frame with
   count above one takes a copy-on-write fault, a write to an unmapped
   page materialises a zero frame. The maps must agree with it on
   bytes, fault results, [mapped_pages], [mapped_vpage_array],
   [private_pages], [cow_copies], and - since frames are allocated at the
   same steps on both sides - the frame ids in [frame_id]. The store's
   observer must report exactly the [(map id, vpage, frame id)] of each
   step's write, with map ids dense in creation order, and nothing for
   the audit reads; the id of each map a step releases or absorbs; and
   each freed frame once, so that the frames reported freed and the live
   frames add up to every frame allocated. The store's [live_frames]
   equals the reference's live count after every step: a frame is freed
   when the last map holding it drops it. Pages 0..7 plus widely spaced
   ones force probe collisions and table growth. *)

type rframe = { rid : int; rbytes : Bytes.t; mutable rrefs : int }

type rmap = {
  rpages : (int, rframe) Hashtbl.t;
  mutable rcow : int;
  mutable rlive : bool;
}

type map_op =
  | Set of int * int * int * int  (* map, vpage, off, value *)
  | Get of int * int * int
  | Touch of int * int
  | Fork of int
  | Absorb of int * int  (* parent, child *)
  | Release of int

let show_map_op = function
  | Set (m, vp, off, v) -> Printf.sprintf "set #%d %d:%d=%d" m vp off v
  | Get (m, vp, off) -> Printf.sprintf "get #%d %d:%d" m vp off
  | Touch (m, vp) -> Printf.sprintf "touch #%d %d" m vp
  | Fork m -> Printf.sprintf "fork #%d" m
  | Absorb (p, c) -> Printf.sprintf "absorb #%d <- #%d" p c
  | Release m -> Printf.sprintf "release #%d" m

let model_page_size = 16

let run_map_model ops =
  let fail fmt = QCheck.Test.fail_reportf fmt in
  let store = Frame_store.create ~page_size:model_page_size in
  let next_id = ref 0 and live = ref 0 in
  let rmap () =
    { rpages = Hashtbl.create 8; rcow = 0; rlive = true }
  in
  let reported = ref [] and released = ref [] in
  let freed = Hashtbl.create 64 in
  Frame_store.add_observer store
    {
      Frame_store.on_write =
        (fun ~map ~vpage ~frame -> reported := (map, vpage, frame) :: !reported);
      on_free =
        (fun ~frame ->
          if Hashtbl.mem freed frame then fail "frame %d freed twice" frame;
          Hashtbl.replace freed frame ());
      on_release = (fun ~map -> released := map :: !released);
    };
  let root = Page_map.create store in
  let maps = ref [| (root, rmap ()) |] in
  let r_alloc bytes =
    let f = { rid = !next_id; rbytes = bytes; rrefs = 1 } in
    incr next_id;
    incr live;
    f
  in
  let r_decref f =
    f.rrefs <- f.rrefs - 1;
    if f.rrefs = 0 then decr live
  in
  (* The reference's writable frame for [vp], and whether it faulted. *)
  let r_prepare r vp =
    match Hashtbl.find_opt r.rpages vp with
    | Some f when f.rrefs = 1 -> (f, false)
    | Some f ->
      let g = r_alloc (Bytes.copy f.rbytes) in
      r_decref f;
      Hashtbl.replace r.rpages vp g;
      r.rcow <- r.rcow + 1;
      (g, true)
    | None ->
      let g = r_alloc (Bytes.make model_page_size '\000') in
      Hashtbl.replace r.rpages vp g;
      (g, false)
  in
  let r_release r =
    Hashtbl.iter (fun _ f -> r_decref f) r.rpages;
    Hashtbl.reset r.rpages;
    r.rlive <- false
  in
  let audit_read m vp = read m ~vpage:vp ~off:0 ~len:model_page_size in
  let sorted tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
  let agree i (m, r) =
    if Page_map.released m = r.rlive then Some "released"
    else if not r.rlive then None
    else if Page_map.mapped_pages m <> Hashtbl.length r.rpages then Some "mapped_pages"
    else if Array.to_list (Page_map.mapped_vpage_array m) <> List.map fst (sorted r.rpages) then
      Some "mapped_vpage_array"
    else if
      Page_map.private_pages m
      <> Hashtbl.fold (fun _ f n -> if f.rrefs = 1 then n + 1 else n) r.rpages 0
    then Some "private_pages"
    else if Page_map.cow_copies m <> r.rcow then Some "cow_copies"
    else
      Hashtbl.fold
        (fun vp f acc ->
          match acc with
          | Some _ -> acc
          | None ->
            if Page_map.frame_id m ~vpage:vp <> Some f.rid then
              Some (Printf.sprintf "frame_id of page %d" vp)
            else if not (Bytes.equal f.rbytes (audit_read m vp)) then
              Some (Printf.sprintf "bytes of page %d" vp)
            else None)
        r.rpages None
      |> Option.map (fun why -> Printf.sprintf "map #%d: %s" i why)
  in
  let live_index k =
    let live_maps =
      List.filter (fun i -> (snd !maps.(i)).rlive) (List.init (Array.length !maps) Fun.id)
    in
    match live_maps with
    | [] -> None
    | l -> Some (List.nth l (k mod List.length l))
  in
  List.iter
    (fun op ->
      reported := [];
      released := [];
      let expected = ref [] and expected_released = ref [] in
      (match op with
      | Set (k, vp, off, v) ->
        Option.iter
          (fun i ->
            let m, r = !maps.(i) in
            let faulted = Page_map.set_u8 m ~vpage:vp ~off v in
            let f, r_faulted = r_prepare r vp in
            Bytes.set f.rbytes off (Char.chr v);
            expected := [ (i, vp, f.rid) ];
            if faulted <> r_faulted then fail "%s: fault %b" (show_map_op op) faulted)
          (live_index k)
      | Get (k, vp, off) ->
        Option.iter
          (fun i ->
            let m, r = !maps.(i) in
            let got = Page_map.get_u8 m ~vpage:vp ~off in
            let want =
              match Hashtbl.find_opt r.rpages vp with
              | Some f -> Char.code (Bytes.get f.rbytes off)
              | None -> 0
            in
            if got <> want then fail "%s: read %d, reference %d" (show_map_op op) got want)
          (live_index k)
      | Touch (k, vp) ->
        Option.iter
          (fun i ->
            let m, r = !maps.(i) in
            let faulted = Page_map.touch_page m ~vpage:vp in
            let f, r_faulted = r_prepare r vp in
            expected := [ (i, vp, f.rid) ];
            if faulted <> r_faulted then fail "%s: fault %b" (show_map_op op) faulted)
          (live_index k)
      | Fork k ->
        Option.iter
          (fun i ->
            let m, r = !maps.(i) in
            let c = rmap () in
            Hashtbl.iter
              (fun vp f ->
                f.rrefs <- f.rrefs + 1;
                Hashtbl.replace c.rpages vp f)
              r.rpages;
            maps := Array.append !maps [| (Page_map.fork m, c) |])
          (live_index k)
      | Absorb (kp, kc) -> (
        match (live_index kp, live_index kc) with
        | Some p, Some c when p <> c ->
          let pm, pr = !maps.(p) and cm, cr = !maps.(c) in
          Page_map.absorb ~parent:pm ~child:cm;
          expected_released := [ c ];
          Hashtbl.iter (fun _ f -> r_decref f) pr.rpages;
          Hashtbl.reset pr.rpages;
          Hashtbl.iter (Hashtbl.replace pr.rpages) cr.rpages;
          Hashtbl.reset cr.rpages;
          cr.rlive <- false;
          pr.rcow <- pr.rcow + cr.rcow
        | _ -> ())
      | Release k ->
        Option.iter
          (fun i ->
            let m, r = !maps.(i) in
            Page_map.release m;
            expected_released := [ i ];
            r_release r)
          (live_index k));
      if Frame_store.live_frames store <> !live then
        fail "after %s: %d live frames, reference %d" (show_map_op op)
          (Frame_store.live_frames store) !live;
      Array.iteri
        (fun i pair ->
          match agree i pair with
          | Some why -> fail "after %s: %s" (show_map_op op) why
          | None -> ())
        !maps;
      let show l =
        String.concat " "
          (List.map (fun (m, vp, f) -> Printf.sprintf "#%d:%d->%d" m vp f) l)
      in
      if List.rev !reported <> !expected then
        fail "after %s: observer saw [%s], reference [%s]" (show_map_op op)
          (show (List.rev !reported)) (show !expected);
      if !released <> !expected_released then
        fail "after %s: observer saw %d releases" (show_map_op op)
          (List.length !released);
      if
        Hashtbl.length freed + Frame_store.live_frames store
        <> Frame_store.total_allocations store
      then fail "after %s: %d frames reported freed" (show_map_op op)
          (Hashtbl.length freed))
    ops;
  Array.iter (fun (m, _) -> Page_map.release m) !maps;
  Frame_store.live_frames store = 0

let arb_map_ops =
  let open QCheck.Gen in
  let vpage =
    frequency
      [ (3, int_bound 7); (2, oneofl [ 64; 1000; 1024; 4096; 65536; 1 lsl 30; 1 lsl 40 ]) ]
  in
  let m = int_bound 15 and off = int_bound (model_page_size - 1) in
  let op =
    frequency
      [
        (8, map2 (fun (k, vp) (o, v) -> Set (k, vp, o, v)) (pair m vpage)
              (pair off (int_bound 255)));
        (5, map3 (fun k vp o -> Get (k, vp, o)) m vpage off);
        (3, map2 (fun k vp -> Touch (k, vp)) m vpage);
        (3, map (fun k -> Fork k) m);
        (2, map2 (fun p c -> Absorb (p, c)) m m);
        (1, map (fun k -> Release k) m);
      ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_map_op ops))
    (list_size (int_range 1 80) op)

let prop_page_map_model =
  QCheck.Test.make ~name:"random ops agree with an eager-copy reference" ~count:500
    arb_map_ops (fun ops ->
      run_map_model ops)

(* ---------------- Allocation contracts ----------------

   Words per operation after a warm-up run of the same operation (the
   shape of test_runtime's [alloc] group), counted as minor plus direct
   major words: a page table past the minor heap's object size limit is
   allocated straight in the major heap, where [Gc.minor_words] never
   sees it. The paper's cost argument needs a scalar access that
   allocates nothing in steady state, and a fork whose cost is the page
   table it inherits (§3.3, §4.4): no frame is copied until it is
   written, absorb and release drop references without allocating, and
   a copy-on-write fault takes its copy from the free-frame pool and
   prices itself into an unboxed pending cost. A map's first-size table
   comes back through the domain's spare tables, so once they are warm a
   fork and release of a small map costs its two records only. With
   4096-byte pages and OCaml 5.1.1 the figures are 0 words a scalar get
   or set and a copy-on-write fault, 12 a fork and release of the 4-page
   map a served request holds (the map and its table record; 30 when its
   key and frame arrays were built per fork), and 4110 a fork and release
   of 1024 mapped pages (12 minor words, the rest the copied table); the
   ceilings sit a little above them. The counter is the shared one,
   [Alloc_words]. *)

let alloc_page_size = 4096

(* [make ()] builds the fixture and returns the operation run [n] times. *)
let words_per ~n make =
  let op = make () in
  op 64;
  Alloc_words.of_run (fun () -> op n) /. float_of_int n

let test_alloc_budget name make ceiling () =
  let w = words_per ~n:2000 make in
  if w > ceiling then Alcotest.failf "%s: %.2f words, ceiling %.2f" name w ceiling

let scalar_sink = ref 0

(* A space whose eight scalar slots are already private pages. *)
let warm_space () =
  let store = mk_store ~page_size:alloc_page_size () in
  let s = Address_space.create ~size_hint:(8 * alloc_page_size) store Cost_model.modern in
  for i = 0 to 7 do
    Address_space.set_int s ~addr:(i * 8) i
  done;
  s

let scalar_gets () =
  let s = warm_space () in
  fun n ->
    let acc = ref 0 in
    for i = 1 to n do
      acc := !acc + Address_space.get_int s ~addr:((i land 7) * 8)
    done;
    scalar_sink := !acc

let scalar_sets () =
  let s = warm_space () in
  fun n ->
    for i = 1 to n do
      Address_space.set_int s ~addr:((i land 7) * 8) i
    done

(* A page map with the first [mapped] pages mapped. *)
let mapped_map ?(store = mk_store ~page_size:alloc_page_size ()) mapped =
  let m = Page_map.create store in
  for vp = 0 to mapped - 1 do
    ignore (Page_map.set_u8 m ~vpage:vp ~off:0 1)
  done;
  m

let fork_releases m n =
  for _ = 1 to n do
    Page_map.release (Page_map.fork m)
  done

(* [n] rounds of: fork the parent, dirty page 0 in the child, absorb the
   child back. *)
let absorbs parent n =
  for i = 1 to n do
    let child = Page_map.fork parent in
    ignore (Page_map.set_u8 child ~vpage:0 ~off:1 (i land 0xff));
    Page_map.absorb ~parent ~child
  done

(* A large fork copies the page table and no frame. *)
let test_large_fork () =
  let store = mk_store ~page_size:alloc_page_size () in
  let m = mapped_map ~store 1024 in
  let allocs = Frame_store.total_allocations store in
  let w = words_per ~n:2000 (fun () -> fork_releases m) in
  let frames = Frame_store.total_allocations store - allocs in
  if frames <> 0 then
    Alcotest.failf "fork and release, 1024 mapped: %d frames allocated" frames;
  if w > 4150. then
    Alcotest.failf "fork and release, 1024 mapped: %.2f words, ceiling 4150" w

(* Absorb and release drop references and allocate nothing, and the
   free-frame pool is an array stack, so fork, dirty and absorb cost a
   fork and release: the parent's freed frame goes back to the pool
   without a cell, and the dirty page's copy comes back out of it (a
   list cell per freed frame cost 3 words). *)
let test_absorb_beyond_fork () =
  let fork = words_per ~n:2000 (fun () -> fork_releases (mapped_map 1024)) in
  let absorb = words_per ~n:2000 (fun () -> absorbs (mapped_map 1024)) in
  if absorb > fork +. 0.5 then
    Alcotest.failf "fork, dirty 1 and absorb: %.2f words, fork and release %.2f"
      absorb fork

(* A space forked from a parent with every page it will write mapped,
   and the domain's free-frame pool holding a frame for every copy: [n]
   writes fault [n] fresh pages copy-on-write, one each. A boxed pending
   cost cost 2 words a fault. *)
let cow_fault_pages = 64 + 256

let cow_faults () =
  let store = mk_store ~page_size:alloc_page_size () in
  let space () = Address_space.create store Cost_model.modern in
  let parent = space () and spare = space () in
  for vp = 0 to cow_fault_pages - 1 do
    Address_space.set_int parent ~addr:(vp * alloc_page_size) 1;
    Address_space.set_int spare ~addr:(vp * alloc_page_size) 1
  done;
  Address_space.release spare;
  let child = Address_space.fork parent in
  let next = ref 0 in
  fun n ->
    for _ = 1 to n do
      Address_space.set_int child ~addr:(!next * alloc_page_size) 2;
      incr next
    done

(* Once the domain's spare tables are warm, a fork and release of the
   served 4-page map costs what one of an unmapped map does: the page
   table itself, keys and frames, costs 0 words. *)
let test_small_fork_reuses_tables () =
  let four = words_per ~n:2000 (fun () -> fork_releases (mapped_map 4)) in
  let none = words_per ~n:2000 (fun () -> fork_releases (mapped_map 0)) in
  if four -. none > 0.01 then
    Alcotest.failf "fork and release, 4 mapped: %.2f words beyond an unmapped map's %.2f"
      (four -. none) none

let test_cow_fault () =
  let w = words_per ~n:256 cow_faults in
  if w > 0.01 then Alcotest.failf "a COW fault: %.2f words, ceiling 0.01" w

let () =
  Alcotest.run "pages"
    [
      ( "frame_store",
        [
          Alcotest.test_case "alloc zeroed" `Quick test_frame_alloc_zeroed;
          Alcotest.test_case "copy is independent" `Quick test_frame_copy_independent;
          Alcotest.test_case "refcounting" `Quick test_frame_refcounting;
          Alcotest.test_case "recycling zeroes" `Quick test_frame_recycling_zeroes;
          Alcotest.test_case "pool crosses stores" `Quick
            test_frame_pool_crosses_stores;
        ] );
      ( "page_map",
        [
          Alcotest.test_case "unmapped reads zero" `Quick test_map_read_unmapped_zero;
          Alcotest.test_case "write then read" `Quick test_map_write_then_read;
          Alcotest.test_case "fork shares frames" `Quick test_map_fork_shares_frames;
          Alcotest.test_case "cow isolation" `Quick test_map_cow_isolation;
          Alcotest.test_case "absorb" `Quick test_map_absorb;
          Alcotest.test_case "release idempotent + guard" `Quick test_map_release_idempotent;
          Alcotest.test_case "bounds check" `Quick test_map_bounds;
          Alcotest.test_case "snapshot_equal" `Quick test_map_snapshot_equal;
          Alcotest.test_case "snapshot_equal is stat-neutral" `Quick
            test_snapshot_equal_is_stat_neutral;
          Alcotest.test_case "frame conservation over 100 schedules" `Quick
            test_frame_conservation_schedules;
          Alcotest.test_case "a recycled table starts empty" `Quick
            test_map_recycled_table_empty;
        ] );
      ( "address_space",
        [
          Alcotest.test_case "cross-page read/write" `Quick test_space_cross_page_rw;
          Alcotest.test_case "typed accessors" `Quick test_space_typed_accessors;
          Alcotest.test_case "negative address" `Quick test_space_negative_addr;
          Alcotest.test_case "fork isolation and 3B2 cost" `Quick test_space_fork_isolation_and_cost;
          Alcotest.test_case "absorb merges" `Quick test_space_absorb_merges;
          Alcotest.test_case "touch privatises" `Quick test_space_touch;
          Alcotest.test_case "touch on private/unmapped is free" `Quick
            test_space_touch_private_is_free;
          Alcotest.test_case "scalar cross-page fallback" `Quick
            test_space_scalar_cross_page;
          Alcotest.test_case "page-size mismatch" `Quick test_space_page_size_mismatch;
        ] );
      ( "cost_model",
        [
          Alcotest.test_case "3B2 calibration" `Quick test_model_calibration_3b2;
          Alcotest.test_case "HP calibration" `Quick test_model_calibration_hp;
          Alcotest.test_case "rfork calibration" `Quick test_model_calibration_rfork;
          Alcotest.test_case "pages_for edges" `Quick test_model_pages_for_edges;
          Alcotest.test_case "message cost" `Quick test_model_message_cost;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "scalar get_int" `Quick
            (test_alloc_budget "get_int" scalar_gets 0.01);
          Alcotest.test_case "scalar set_int" `Quick
            (test_alloc_budget "set_int" scalar_sets 0.01);
          Alcotest.test_case "fork and release, 1024 mapped" `Quick
            test_large_fork;
          Alcotest.test_case "absorb 1 dirty of 1024 mapped" `Quick
            test_absorb_beyond_fork;
          Alcotest.test_case "fork and release, 4 mapped" `Quick
            (test_alloc_budget "fork and release, 4 mapped"
               (fun () -> fork_releases (mapped_map 4))
               13.);
          Alcotest.test_case "a COW fault allocates 0 words" `Quick
            test_cow_fault;
          Alcotest.test_case "warm spare tables: a 4-page table costs 0 words" `Quick
            test_small_fork_reuses_tables;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_cow_equals_eager_copy;
            prop_no_frame_leaks;
            prop_absorb_equals_child;
            prop_pool_matches_model;
            prop_page_map_model;
          ] );
    ]
