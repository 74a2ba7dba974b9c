(* Microbenchmarks for the memory hierarchy fast paths.

   Each benchmark reports two numbers: minor-heap words allocated per
   operation (deterministic, the number the zero-copy work optimises) and
   operations per second (indicative only; wall-clock noise is expected in
   CI). The scalar benchmarks are run twice — once through the in-place
   fast path and once through the byte-range path that the old accessors
   reduced to — so the emitted JSON documents the allocation reduction
   directly. The absorb benchmark varies the number of dirty pages at a
   fixed mapped-page count to exhibit the O(dirty) (rather than O(mapped))
   cost of [Page_map.absorb]. *)

type sample = {
  name : string;
  ops : int;
  minor_words_per_op : float;
  ops_per_sec : float;
}

(* [measure name ops f]: run [f ops] once as warm-up is the caller's
   business; here we only sample counters around the timed run. The two
   [Gc.minor_words] samples each box a float; that constant overhead is
   measured once and subtracted. *)
let probe_overhead =
  lazy
    (let a = Gc.minor_words () in
     let b = Gc.minor_words () in
     b -. a)

let measure name ops f =
  let overhead = Lazy.force probe_overhead in
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  f ops;
  let t1 = Unix.gettimeofday () in
  let w1 = Gc.minor_words () in
  let words = Float.max 0. (w1 -. w0 -. overhead) in
  let dt = Float.max 1e-9 (t1 -. t0) in
  {
    name;
    ops;
    minor_words_per_op = words /. float_of_int ops;
    ops_per_sec = float_of_int ops /. dt;
  }

let page_size = 4096

let fresh_space () =
  let store = Frame_store.create ~page_size in
  let space = Address_space.create ~size_hint:(8 * page_size) store Cost_model.modern in
  ignore (Address_space.drain_cost space);
  space

(* ------------------------------------------------------------------ *)
(* Scalar reads and writes: fast path vs the byte-range path the old
   accessors used (allocate an 8-byte buffer, then box an int64).       *)

let scalar_sink = ref 0

let bench_read_fast space n =
  let s = ref 0 in
  for i = 1 to n do
    s := !s + Address_space.get_int space ~addr:((i land 7) * 8)
  done;
  scalar_sink := !s

let bench_read_bytes space n =
  let s = ref 0 in
  for i = 1 to n do
    let b = Address_space.read_bytes space ~addr:((i land 7) * 8) ~len:8 in
    s := !s + Int64.to_int (Bytes.get_int64_le b 0)
  done;
  scalar_sink := !s

let bench_write_fast space n =
  for i = 1 to n do
    Address_space.set_int space ~addr:((i land 7) * 8) i
  done

let bench_write_bytes space n =
  for i = 1 to n do
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 (Int64.of_int i);
    Address_space.write_bytes space ~addr:((i land 7) * 8) b
  done

(* ------------------------------------------------------------------ *)
(* Fork: O(1) regardless of how many pages the parent has mapped.       *)

let bench_fork ~mapped n =
  let store = Frame_store.create ~page_size in
  let m = Page_map.create store in
  for vp = 0 to mapped - 1 do
    ignore (Page_map.set_u8 m ~vpage:vp ~off:0 1)
  done;
  fun () ->
    measure
      (Printf.sprintf "fork_release/%d_mapped" mapped)
      n
      (fun n ->
        for _ = 1 to n do
          let child = Page_map.fork m in
          Page_map.release child
        done)

(* ------------------------------------------------------------------ *)
(* Absorb: fork a child, dirty [dirty] of [mapped] pages, absorb it
   back. Cost (time and, deterministically, allocation) must scale with
   [dirty], not with [mapped].                                          *)

let bench_absorb ~mapped ~dirty n =
  let store = Frame_store.create ~page_size in
  let parent = Page_map.create store in
  for vp = 0 to mapped - 1 do
    ignore (Page_map.set_u8 parent ~vpage:vp ~off:0 1)
  done;
  measure
    (Printf.sprintf "fork_dirty_absorb/%d_of_%d" dirty mapped)
    n
    (fun n ->
      for i = 1 to n do
        let child = Page_map.fork parent in
        for d = 0 to dirty - 1 do
          ignore (Page_map.set_u8 child ~vpage:d ~off:1 (i land 0xff))
        done;
        Page_map.absorb ~parent ~child
      done)

(* ------------------------------------------------------------------ *)
(* IPC: one sender streaming messages at a receiver, certain predicates
   throughout (the common case [Predicate.implies] short-circuits).     *)

let ipc_engine n =
  let eng = Engine.create ~trace:false () in
  let receiver =
    Engine.spawn eng ~cloneable:false ~name:"sink" (fun ctx ->
        for _ = 1 to n do
          ignore (Engine.receive ctx ())
        done)
  in
  ignore
    (Engine.spawn eng ~cloneable:false ~name:"source" (fun ctx ->
         for i = 1 to n do
           Engine.send ctx receiver (Payload.int i)
         done));
  eng

let bench_ipc n =
  (* Warm-up (the harness convention above): a full throwaway run first,
     so the timed run reuses already-faulted heap pages and warm code
     paths instead of measuring first-touch page faults. *)
  let warm = ipc_engine n in
  Engine.run warm;
  Gc.full_major ();
  let eng = ipc_engine n in
  measure "ipc/send_receive" n (fun _ -> Engine.run eng)

(* ------------------------------------------------------------------ *)

type report = {
  samples : sample list;
  absorb : sample list;  (* ordered by dirty count *)
  absorb_dirty : int list;
  absorb_mapped : int;
}

let run ?(scale = 1.0) () =
  let n base = int_of_float (float_of_int base *. scale) |> max 10 in
  (* Warm-up: fault every page the scalar loops touch so the timed runs
     exercise the steady state (private top-layer pages). *)
  let rspace = fresh_space () and wspace = fresh_space () in
  for i = 0 to 7 do
    Address_space.set_int rspace ~addr:(i * 8) (i * 1000);
    Address_space.set_int wspace ~addr:(i * 8) i
  done;
  bench_read_fast rspace 1000;
  bench_read_bytes rspace 1000;
  bench_write_fast wspace 1000;
  bench_write_bytes wspace 1000;
  let samples =
    [
      measure "read_int/fast" (n 1_000_000) (bench_read_fast rspace);
      measure "read_int/bytes" (n 200_000) (bench_read_bytes rspace);
      measure "write_int/fast" (n 1_000_000) (bench_write_fast wspace);
      measure "write_int/bytes" (n 200_000) (bench_write_bytes wspace);
      (let bench = bench_fork ~mapped:1024 (n 50_000) in
       bench ());
      bench_ipc (n 20_000);
    ]
  in
  let absorb_dirty = [ 1; 16; 256 ] in
  let absorb =
    List.map (fun dirty -> bench_absorb ~mapped:1024 ~dirty (n 200)) absorb_dirty
  in
  { samples; absorb; absorb_dirty; absorb_mapped = 1024 }

(* ------------------------------------------------------------------ *)

let sample_json b s =
  Printf.bprintf b
    "    {\"name\": %S, \"ops\": %d, \"minor_words_per_op\": %.4f, \
     \"ops_per_sec\": %.0f}"
    s.name s.ops s.minor_words_per_op s.ops_per_sec

let to_json r =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n  \"schema\": \"altbench-mem/1\",\n";
  Printf.bprintf b "  \"page_size\": %d,\n" page_size;
  Buffer.add_string b "  \"samples\": [\n";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      sample_json b s)
    r.samples;
  Buffer.add_string b "\n  ],\n";
  Printf.bprintf b "  \"absorb_mapped\": %d,\n" r.absorb_mapped;
  Buffer.add_string b "  \"absorb_scaling\": [\n";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      sample_json b s)
    r.absorb;
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b

let find r name = List.find (fun s -> s.name = name) (r.samples @ r.absorb)

(* Validation: the properties below are all allocation counts, which are
   deterministic, so they hold on any machine regardless of load. *)
let validate r =
  let errors = ref [] in
  let check cond msg = if not cond then errors := msg :: !errors in
  let words name = (find r name).minor_words_per_op in
  (* The int scalar fast paths must be allocation-free in steady state
     (the int64/float forms box their result by nature and are exempt). *)
  check
    (words "read_int/fast" < 0.01)
    (Printf.sprintf "read_int/fast allocates %.4f minor words/op (want 0)"
       (words "read_int/fast"));
  check
    (words "write_int/fast" < 0.01)
    (Printf.sprintf "write_int/fast allocates %.4f minor words/op (want 0)"
       (words "write_int/fast"));
  (* The byte-range path (what the old accessors did) must cost at least
     5x more, which documents the optimisation's headline reduction. *)
  check
    (words "read_int/bytes" >= 5.0 *. Float.max 1.0 (words "read_int/fast"))
    "read_int/bytes vs fast: reduction below 5x";
  check
    (words "write_int/bytes" >= 5.0 *. Float.max 1.0 (words "write_int/fast"))
    "write_int/bytes vs fast: reduction below 5x";
  (* Fork of a 1024-page map must not allocate anywhere near 1024 words:
     it is O(1), a few small records. *)
  check
    (words "fork_release/1024_mapped" < 128.)
    (Printf.sprintf "fork allocates %.0f words/op for 1024 mapped pages"
       (words "fork_release/1024_mapped"));
  (* Absorb allocation must scale with the dirty count, not the mapped
     count: 256 dirty pages cost at least 16x what 1 dirty page costs,
     and 1 dirty page of 1024 mapped costs less than ~8 page copies. *)
  let a1 = words "fork_dirty_absorb/1_of_1024" in
  let a256 = words "fork_dirty_absorb/256_of_1024" in
  check (a256 >= 16. *. a1) "absorb: 256-dirty cost not >= 16x 1-dirty cost";
  check
    (a1 < 8. *. float_of_int (page_size / 8))
    (Printf.sprintf "absorb of 1 dirty page allocates %.0f words (O(mapped)?)" a1);
  (* The ring-buffer mailboxes put a hard ceiling on the messaging hot
     path: a send+receive pair may allocate at most the irreducible
     message-and-payload record cost (the pre-ring engine paid 150+
     words per pair on this benchmark). *)
  check
    (words "ipc/send_receive" < 20.)
    (Printf.sprintf
       "ipc/send_receive allocates %.2f minor words/op (ceiling 20: \
        ring-buffer mailbox regression)"
       (words "ipc/send_receive"));
  match !errors with [] -> Ok () | es -> Error (List.rev es)
