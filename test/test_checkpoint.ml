(* Tests for checkpoint/restart of address spaces (the rfork substrate). *)

let check = Alcotest.check

let model = Cost_model.uniform ~page_size:256 ()

let mk_space () =
  Address_space.create (Frame_store.create ~page_size:256) model

let test_roundtrip_contents () =
  let sp = mk_space () in
  Address_space.set_int sp ~addr:0 42;
  Address_space.set_string sp ~addr:1000 "checkpointed";
  Address_space.set_float sp ~addr:5000 2.5;
  let image = Checkpoint.capture sp in
  let sp' = Checkpoint.restore (Frame_store.create ~page_size:256) model image in
  check Alcotest.int "int survives" 42 (Address_space.get_int sp' ~addr:0);
  check Alcotest.string "string survives" "checkpointed"
    (Address_space.get_string sp' ~addr:1000 ~len:12);
  check (Alcotest.float 1e-9) "float survives" 2.5
    (Address_space.get_float sp' ~addr:5000);
  check Alcotest.bool "maps identical" true
    (Page_map.snapshot_equal (Address_space.map sp) (Address_space.map sp'))

let test_capture_does_not_disturb () =
  let sp = mk_space () in
  Address_space.set_int sp ~addr:0 1;
  let before = Address_space.cow_copies sp in
  ignore (Checkpoint.capture sp);
  check Alcotest.int "no copies made" before (Address_space.cow_copies sp);
  check Alcotest.int "value intact" 1 (Address_space.get_int sp ~addr:0)

let test_restored_space_is_private () =
  let sp = mk_space () in
  Address_space.set_int sp ~addr:0 7;
  let image = Checkpoint.capture sp in
  let store' = Frame_store.create ~page_size:256 in
  let sp' = Checkpoint.restore store' model image in
  Address_space.set_int sp' ~addr:0 8;
  check Alcotest.int "original unaffected" 7 (Address_space.get_int sp ~addr:0);
  check Alcotest.int "restored updated" 8 (Address_space.get_int sp' ~addr:0)

let test_sparse_pages_preserved () =
  let sp = mk_space () in
  Address_space.set_u8 sp ~addr:0 1;
  Address_space.set_u8 sp ~addr:(100 * 256) 2;
  let image = Checkpoint.capture sp in
  check Alcotest.int "two mapped pages" 2 (Checkpoint.mapped_pages image);
  let sp' = Checkpoint.restore (Frame_store.create ~page_size:256) model image in
  check Alcotest.int "sparse page restored" 2
    (Address_space.get_u8 sp' ~addr:(100 * 256));
  check Alcotest.int "unmapped reads zero" 0 (Address_space.get_u8 sp' ~addr:256)

let test_bytes_roundtrip () =
  let sp = mk_space () in
  Address_space.set_string sp ~addr:10 "wire format";
  let image = Checkpoint.capture sp in
  let b = Checkpoint.to_bytes image in
  check Alcotest.int "wire size" (Checkpoint.size_bytes image) (Bytes.length b);
  let image' = Checkpoint.of_bytes b in
  check Alcotest.int "pages preserved" (Checkpoint.mapped_pages image)
    (Checkpoint.mapped_pages image');
  let sp' = Checkpoint.restore (Frame_store.create ~page_size:256) model image' in
  check Alcotest.string "contents preserved over the wire" "wire format"
    (Address_space.get_string sp' ~addr:10 ~len:11)

let test_of_bytes_rejects_garbage () =
  Alcotest.check_raises "short input"
    (Invalid_argument "Checkpoint.of_bytes: malformed image") (fun () ->
      ignore (Checkpoint.of_bytes (Bytes.create 3)));
  let sp = mk_space () in
  Address_space.set_int sp ~addr:0 1;
  let b = Checkpoint.to_bytes (Checkpoint.capture sp) in
  let truncated = Bytes.sub b 0 (Bytes.length b - 1) in
  Alcotest.check_raises "truncated input"
    (Invalid_argument "Checkpoint.of_bytes: malformed image") (fun () ->
      ignore (Checkpoint.of_bytes truncated))

(* Regression: [of_bytes] used to accept images whose framing was intact
   but whose page table was corrupt — a duplicated vpage entry restores by
   silently double-writing the page (last entry wins), and a negative
   vpage poisons the page map. Both must be rejected up front. *)
let test_of_bytes_rejects_corrupt_page_table () =
  let sp = mk_space () in
  Address_space.set_u8 sp ~addr:0 1;
  (* page 0 *)
  Address_space.set_u8 sp ~addr:256 2;
  (* page 1 *)
  let b = Checkpoint.to_bytes (Checkpoint.capture sp) in
  (* Layout: 16-byte header, then per page an 8-byte vpage field followed
     by 256 bytes of contents. The second page's vpage field sits at
     16 + 8 + 256. *)
  let second_vpage_off = 16 + 8 + 256 in
  let corrupt v =
    let b' = Bytes.copy b in
    Bytes.set_int64_le b' second_vpage_off (Int64.of_int v);
    b'
  in
  Alcotest.check_raises "duplicate vpage entry"
    (Invalid_argument "Checkpoint.of_bytes: malformed image") (fun () ->
      ignore (Checkpoint.of_bytes (corrupt 0)));
  Alcotest.check_raises "negative vpage entry"
    (Invalid_argument "Checkpoint.of_bytes: malformed image") (fun () ->
      ignore (Checkpoint.of_bytes (corrupt (-1))));
  (* The uncorrupted image still parses: the checks reject the corruption,
     not the framing. *)
  Alcotest.check Alcotest.int "pristine image still parses" 2
    (Checkpoint.mapped_pages (Checkpoint.of_bytes b))

(* Regression: the framing check used to compute
   [count * (per_page_header + psize)] straight from wire values, so a
   crafted header could wrap the product around the native int range until
   it collided with the buffer length — the parse then died as an
   out-of-range access deep inside [Bytes.sub] instead of the documented
   error. Sizes are now bounded field by field before any multiplication. *)
let test_of_bytes_overflow_safe () =
  let malformed = Invalid_argument "Checkpoint.of_bytes: malformed image" in
  let header ~psize ~count =
    let b = Bytes.create 16 in
    Bytes.set_int64_le b 0 (Int64.of_int psize);
    Bytes.set_int64_le b 8 count;
    b
  in
  (* psize 248 gives a per-page stride of 256; count 2^56 makes the page
     table 2^64 bytes, which wraps to 0 and "matches" the 16-byte buffer. *)
  Alcotest.check_raises "wrapping count" malformed (fun () ->
      ignore
        (Checkpoint.of_bytes (header ~psize:248 ~count:(Int64.shift_left 1L 56))));
  Alcotest.check_raises "psize beyond the buffer" malformed (fun () ->
      ignore (Checkpoint.of_bytes (header ~psize:max_int ~count:1L)));
  Alcotest.check_raises "negative count" malformed (fun () ->
      ignore (Checkpoint.of_bytes (header ~psize:256 ~count:(-1L))));
  (* Oversized input — trailing junk after a well-formed image — is
     rejected too, not silently ignored. *)
  let sp = mk_space () in
  Address_space.set_u8 sp ~addr:0 7;
  let b = Checkpoint.to_bytes (Checkpoint.capture sp) in
  Alcotest.check_raises "oversized input" malformed (fun () ->
      ignore (Checkpoint.of_bytes (Bytes.cat b (Bytes.make 1 '\000'))))

let test_restore_page_size_mismatch () =
  let sp = mk_space () in
  Address_space.set_int sp ~addr:0 1;
  let image = Checkpoint.capture sp in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Checkpoint.restore: page size mismatch") (fun () ->
      ignore
        (Checkpoint.restore (Frame_store.create ~page_size:512)
           (Cost_model.uniform ~page_size:512 ())
           image))

let test_transfer_cost_calibration () =
  (* The 70K rfork of E5: 18 pages of 4K under the LAN profile. *)
  let m = Cost_model.distributed_lan in
  let store = Frame_store.create ~page_size:m.Cost_model.page_size in
  let sp = Address_space.create ~size_hint:(70 * 1024) store m in
  let image = Checkpoint.capture sp in
  check Alcotest.int "18 pages" 18 (Checkpoint.mapped_pages image);
  check Alcotest.bool "transfer ~1.0 s" true
    (Float.abs (Checkpoint.transfer_cost m image -. 1.0) < 0.01)

let prop_capture_restore_identity =
  QCheck.Test.make ~name:"capture/restore preserves every written byte"
    ~count:200
    QCheck.(list_of_size Gen.(int_range 1 30) (pair (int_bound 5000) (int_bound 255)))
    (fun writes ->
      let sp = mk_space () in
      List.iter (fun (addr, v) -> Address_space.set_u8 sp ~addr v) writes;
      let image = Checkpoint.of_bytes (Checkpoint.to_bytes (Checkpoint.capture sp)) in
      let sp' = Checkpoint.restore (Frame_store.create ~page_size:256) model image in
      Page_map.snapshot_equal (Address_space.map sp) (Address_space.map sp'))

let test_release_idempotent () =
  let sp = mk_space () in
  Address_space.set_int sp ~addr:0 3;
  let image = Checkpoint.capture sp in
  Checkpoint.release image;
  Checkpoint.release image;
  check Alcotest.int "still counts its pages" 1 (Checkpoint.mapped_pages image);
  let released = Invalid_argument "Checkpoint: image released" in
  Alcotest.check_raises "restore after release" released (fun () ->
      ignore (Checkpoint.restore (Frame_store.create ~page_size:256) model image));
  Alcotest.check_raises "to_bytes after release" released (fun () ->
      ignore (Checkpoint.to_bytes image))

(* The image's frames come from a store of its own, so checkpointing a
   space leaves every counter of the space's store, and the id its next
   frame gets, exactly as they were. *)
let test_capture_store_neutral () =
  let store = Frame_store.create ~page_size:256 in
  let sp = Address_space.create store model in
  Address_space.set_int sp ~addr:0 1;
  Address_space.set_int sp ~addr:3000 2;
  let before = Frame_store.alloc store in
  let allocs = Frame_store.total_allocations store in
  let copies = Frame_store.cow_copies store in
  let live = Frame_store.live_frames store in
  let image = Checkpoint.capture sp in
  check Alcotest.int "captured pages" 2 (Checkpoint.mapped_pages image);
  Checkpoint.release image;
  check Alcotest.int "total allocations" allocs (Frame_store.total_allocations store);
  check Alcotest.int "cow copies" copies (Frame_store.cow_copies store);
  check Alcotest.int "live frames" live (Frame_store.live_frames store);
  let after = Frame_store.alloc store in
  check Alcotest.int "next frame id" (Frame_store.id before + 1) (Frame_store.id after)

(* Model: an image must keep the bytes of capture time however the
   source moves on afterwards — direct writes, a forked child's writes
   absorbed back, a forked child thrown away — while a second store on
   the same domain takes frames from the pool and scribbles on them.
   Re-capturing releases the old image first, so the pool hands its
   frames straight back out to the source and the second store. *)
type ck_op =
  | K_set of int * int  (* addr, byte *)
  | K_fork_absorb of (int * int) list
  | K_fork_discard of (int * int) list
  | K_other_alloc
  | K_other_free of int
  | K_recapture

let show_ck_op =
  let writes ws =
    String.concat "," (List.map (fun (a, v) -> Printf.sprintf "%d=%d" a v) ws)
  in
  function
  | K_set (a, v) -> Printf.sprintf "set %d=%d" a v
  | K_fork_absorb ws -> Printf.sprintf "fork+absorb [%s]" (writes ws)
  | K_fork_discard ws -> Printf.sprintf "fork+discard [%s]" (writes ws)
  | K_other_alloc -> "other alloc"
  | K_other_free i -> Printf.sprintf "other free #%d" i
  | K_recapture -> "recapture"

let span = 16 * 256

(* Initial writes to the source, then the ops that follow its capture. *)
let ck_case =
  let open QCheck.Gen in
  let write = pair (int_bound (span - 1)) (int_range 0 255) in
  let writes = list_size (int_range 1 6) write in
  let op =
    frequency
      [
        (4, map (fun (a, v) -> K_set (a, v)) write);
        (2, map (fun ws -> K_fork_absorb ws) writes);
        (1, map (fun ws -> K_fork_discard ws) writes);
        (3, return K_other_alloc);
        (2, map (fun i -> K_other_free i) nat);
        (1, return K_recapture);
      ]
  in
  QCheck.make
    ~print:QCheck.Print.(pair (list (pair int int)) (list show_ck_op))
    (pair (list_size (int_range 0 20) write) (list_size (int_range 1 60) op))

let prop_image_survives_source_and_pool =
  QCheck.Test.make
    ~name:"image keeps capture-time bytes across writes and pool reuse"
    ~count:200 ck_case
    (fun (init, ops) ->
      let sp = mk_space () in
      List.iter (fun (addr, v) -> Address_space.set_u8 sp ~addr v) init;
      let other = Frame_store.create ~page_size:256 in
      let held = ref [] in
      let snap () = Address_space.read_bytes sp ~addr:0 ~len:span in
      let matches image expect =
        let sp' = Checkpoint.restore (Frame_store.create ~page_size:256) model image in
        Bytes.equal (Address_space.read_bytes sp' ~addr:0 ~len:span) expect
      in
      let image = ref (Checkpoint.capture sp) in
      let expect = ref (snap ()) in
      let ok = ref true in
      let apply = function
        | K_set (addr, v) -> Address_space.set_u8 sp ~addr v
        | K_fork_absorb ws ->
          let child = Address_space.fork sp in
          List.iter (fun (addr, v) -> Address_space.set_u8 child ~addr v) ws;
          Address_space.absorb ~parent:sp ~child
        | K_fork_discard ws ->
          let child = Address_space.fork sp in
          List.iter (fun (addr, v) -> Address_space.set_u8 child ~addr v) ws;
          Address_space.release child
        | K_other_alloc ->
          let f = Frame_store.alloc other in
          Bytes.fill (Frame_store.data f) 0 256 '\xff';
          held := f :: !held
        | K_other_free i -> (
          match !held with
          | [] -> ()
          | l ->
            let f = List.nth l (i mod List.length l) in
            Frame_store.decref other f;
            held := List.filter (fun g -> g != f) l)
        | K_recapture ->
          ok := !ok && matches !image !expect;
          Checkpoint.release !image;
          image := Checkpoint.capture sp;
          expect := snap ()
      in
      List.iter apply ops;
      let result = !ok && matches !image !expect in
      Checkpoint.release !image;
      List.iter (Frame_store.decref other) !held;
      result)

let () =
  Alcotest.run "checkpoint"
    [
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip contents" `Quick test_roundtrip_contents;
          Alcotest.test_case "capture is read-only" `Quick test_capture_does_not_disturb;
          Alcotest.test_case "restored space is private" `Quick
            test_restored_space_is_private;
          Alcotest.test_case "sparse pages" `Quick test_sparse_pages_preserved;
          Alcotest.test_case "wire roundtrip" `Quick test_bytes_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_of_bytes_rejects_garbage;
          Alcotest.test_case "rejects corrupt page table" `Quick
            test_of_bytes_rejects_corrupt_page_table;
          Alcotest.test_case "overflow-safe framing" `Quick
            test_of_bytes_overflow_safe;
          Alcotest.test_case "page size mismatch" `Quick test_restore_page_size_mismatch;
          Alcotest.test_case "transfer cost calibration" `Quick
            test_transfer_cost_calibration;
          QCheck_alcotest.to_alcotest prop_capture_restore_identity;
          Alcotest.test_case "release is idempotent and final" `Quick
            test_release_idempotent;
          Alcotest.test_case "capture leaves the source store untouched" `Quick
            test_capture_store_neutral;
          QCheck_alcotest.to_alcotest prop_image_survives_source_and_pool;
        ] );
    ]
