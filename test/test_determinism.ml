(* Determinism contracts of one engine and of the sweeps fanned over many:
   the run/fuzz/sites matrices are byte-identical at every domain count,
   with and without the online sanitizer, and still match the digests
   recorded when the engine could shard (where shards 1/2/4 were asserted
   equal); a zero-latency ring storm keeps its pinned trace events and
   per-channel FIFO; per-process RNG streams depend only on (seed, pid); the shared
   pool propagates the lowest-indexed exception and survives it; a fill
   between two same-time sends keeps FIFO and a pinned trace; and
   [Engine.create] accepts only the one shard it has. The suite and case
   names predate the removal of in-engine sharding and of the delivery
   batch, and are kept as they were. *)

let check = Alcotest.check

(* FNV-1a (64-bit) over the lines, each terminated by a newline. *)
let fnv lines =
  let h = ref 0xcbf29ce484222325L in
  List.iter
    (fun l ->
      String.iter
        (fun c ->
          h :=
            Int64.mul
              (Int64.logxor !h (Int64.of_int (Char.code c)))
              0x100000001b3L)
        (l ^ "\n"))
    lines;
  Printf.sprintf "%016Lx" !h

(* ---------------- matrix byte-identity ---------------- *)

(* Render one checked invariant run to a digest line: everything the
   report exposes plus the engine's canonical event count. Any scheduling
   divergence lands in at least one field. *)
let render_invariant_run ((rr : Invariants.run), vs) =
  let rep = rr.Invariants.report in
  let outcome =
    match rep.Concurrent.outcome with
    | Alt_block.Selected { index; value } ->
      Printf.sprintf "selected(%d)=%d" index value
    | Alt_block.Block_failed r -> Printf.sprintf "failed(%S)" r
  in
  Printf.sprintf "%s/%s/%d: %s elapsed=%.9f wasted=%.9f events=%d viols=[%s]"
    rr.Invariants.scenario.Invariants.sc_name
    (Concurrent.describe rr.Invariants.policy)
    rr.Invariants.seed outcome rep.Concurrent.elapsed rep.Concurrent.wasted_cpu
    (Engine.stats_events_processed rr.Invariants.engine)
    (String.concat "; "
       (List.map (fun v -> Format.asprintf "%a" Report.pp_violation v) vs))

let render_violations vs =
  List.map (fun v -> Format.asprintf "%a" Report.pp_violation v) vs

let clean_cells = Campaign.cells { Campaign.clean with Campaign.fm_seeds = 1 }

let sweep_lines ~sanitize ~jobs =
  Parallel.map_indexed_shared ~jobs
    (fun i -> render_invariant_run (Campaign.execute ~sanitize clean_cells.(i)))
    (Array.length clean_cells)
  |> Array.to_list

let campaign_lines family ~sanitize ~jobs =
  let r = Campaign.run ~jobs ~sanitize (Campaign.cells family) in
  r.Campaign.lines @ render_violations r.Campaign.violations

let fuzz_lines =
  let f = Campaign.messages in
  campaign_lines
    {
      f with
      Campaign.fm_seeds = 1;
      fm_scenarios = [ List.hd Invariants.default_scenarios ];
      fm_campaigns = List.filteri (fun i _ -> i < 3) f.Campaign.fm_campaigns;
    }

let sites_lines =
  let f = Campaign.sites in
  campaign_lines
    {
      f with
      Campaign.fm_seeds = 1;
      fm_campaigns = List.filteri (fun i _ -> i < 2) f.Campaign.fm_campaigns;
    }

(* jobs 1/2/4 x +/- sanitizer must agree line for line, and the
   sanitize-off lines followed by the sanitize-on lines must hash to the
   digest recorded before sharding was removed. *)
let check_matrix ~what ~pinned lines_of =
  let all =
    List.concat_map
      (fun sanitize ->
        let base = lines_of ~sanitize ~jobs:1 in
        List.iter
          (fun jobs ->
            check
              Alcotest.(list string)
              (Printf.sprintf "%s jobs-1 = jobs-%d (sanitize=%b)" what jobs
                 sanitize)
              base
              (lines_of ~sanitize ~jobs))
          [ 2; 4 ];
        base)
      [ false; true ]
  in
  check Alcotest.string (what ^ " digest unchanged") pinned (fnv all)

let test_run_matrix_byte_identity () =
  check_matrix ~what:"run matrix" ~pinned:"e8128464fd4d6905" sweep_lines

let test_fuzz_matrix_byte_identity () =
  check_matrix ~what:"fuzz matrix" ~pinned:"4f6534983810155f" fuzz_lines

let test_sites_matrix_byte_identity () =
  check_matrix ~what:"sites matrix" ~pinned:"07c018c3f8292445" sites_lines

(* A cell's trace is a function of the cell: [altcheck --dump-trace]
   re-executes the chosen cell with a recorder rather than keep every
   engine of the sweep, so a second execution must write the same bytes. *)
let test_clean_cell_trace_replays () =
  let jsonl ~sanitize c =
    let rr, _ = Campaign.execute ~record:true ~sanitize c in
    Trace.to_jsonl (Engine.trace rr.Invariants.engine)
  in
  List.iter
    (fun sanitize ->
      Array.iter
        (fun c ->
          check Alcotest.string
            (Printf.sprintf "%s (sanitize=%b)" (Campaign.describe_cell c)
               sanitize)
            (jsonl ~sanitize c) (jsonl ~sanitize c))
        clean_cells)
    [ false; true ]

(* ---------------- zero-latency ring ordering ---------------- *)

(* The uniform model's msg_latency is 0, so the whole storm — every
   process sending three messages round the ring, then draining three —
   happens at virtual time 0, where the (time, stamp) order alone decides
   every interleaving. *)
let ring_n = 4

let ring_run () =
  let eng = Engine.create ~seed:11 () in
  let pids = Engine.fresh_pids eng ring_n in
  let got = Array.make ring_n [] in
  for i = 0 to ring_n - 1 do
    ignore
      (Engine.spawn eng ~pid:pids.(i) ~cloneable:false ~oblivious:true
         ~name:(Printf.sprintf "r%d" i)
         ~site:(Printf.sprintf "s%d" i)
         (fun ctx ->
           for round = 1 to 3 do
             Engine.send ctx ~tag:"ring"
               pids.((i + 1) mod ring_n)
               (Payload.int ((i * 100) + round))
           done;
           for _ = 1 to 3 do
             got.(i) <- (Engine.receive ctx ~tag:"ring" ()).Message.payload
                        :: got.(i)
           done))
  done;
  Engine.run eng;
  (Trace.to_jsonl (Engine.trace eng), Array.map List.rev got)

(* Each message is its own delivery event, and its receiver is rescanned
   right after it lands, so each [accepted] line follows its own
   [delivered] line. The three digests pin the trace, its length, and its
   lines up to order. *)
let test_zero_lookahead_ordering () =
  let trace, got = ring_run () in
  check Alcotest.string "ring trace digest" "915d365693766c55" (fnv [ trace ]);
  let lines =
    String.split_on_char '\n' trace |> List.filter (fun l -> l <> "")
  in
  check Alcotest.int "ring trace event count" 52 (List.length lines);
  check Alcotest.string "ring trace events unchanged up to order"
    "04c5121b65884871" (fnv (List.sort compare lines));
  Array.iteri
    (fun i payloads ->
      let from = (i + ring_n - 1) mod ring_n in
      check
        Alcotest.(list int)
        (Printf.sprintf "r%d receives r%d's sends in order" i from)
        (List.init 3 (fun k -> (from * 100) + k + 1))
        (List.map (function Payload.Int v -> v | _ -> -1) payloads))
    got

(* ---------------- per-process RNG streams ---------------- *)

(* Streams are keyed by (engine seed, pid): what each process draws must
   not depend on where it runs (4 sites, 1 site, no site) or on another
   drawing process joining, and distinct processes must not share a
   stream. *)
let rng_draws ~site ~extra =
  let eng = Engine.create ~seed:77 () in
  let n = 6 in
  let draws = Array.make (n + 1) [] in
  let drawer i ctx =
    for _ = 1 to 4 do
      draws.(i) <- Engine.random_bits ctx :: draws.(i);
      Engine.delay ctx 0.001
    done
  in
  for i = 0 to n - 1 do
    ignore
      (Engine.spawn eng ~cloneable:false ~oblivious:true
         ~name:(Printf.sprintf "g%d" i)
         ?site:(site i) (drawer i))
  done;
  if extra then
    ignore (Engine.spawn eng ~cloneable:false ~oblivious:true ~name:"x" (drawer n));
  Engine.run eng;
  Array.sub (Array.map List.rev draws) 0 n

let test_rng_shard_independent () =
  let base =
    rng_draws ~site:(fun i -> Some (Printf.sprintf "s%d" (i mod 4))) ~extra:false
  in
  check Alcotest.bool "one site draws what four sites draw" true
    (rng_draws ~site:(fun _ -> Some "s0") ~extra:false = base);
  check Alcotest.bool "no site draws what four sites draw" true
    (rng_draws ~site:(fun _ -> None) ~extra:false = base);
  check Alcotest.bool "another drawing process leaves the others' draws alone"
    true
    (rng_draws ~site:(fun _ -> None) ~extra:true = base);
  Array.iteri
    (fun i di ->
      Array.iteri
        (fun j dj ->
          if i < j then
            check Alcotest.bool
              (Printf.sprintf "processes %d and %d draw distinct streams" i j)
              false (di = dj))
        base)
    base

(* ---------------- shared-pool exception propagation ---------------- *)

exception Boom of int

let test_shared_pool_raises_lowest_index () =
  (* Several jobs raise; the caller must see the lowest-indexed one, and
     the persistent pool must survive to serve the next batch. *)
  let raised =
    try
      ignore
        (Parallel.map_indexed_shared ~jobs:4
           (fun i -> if i mod 3 = 1 then raise (Boom i) else i)
           10);
      None
    with Boom i -> Some i
  in
  check Alcotest.(option int) "lowest-indexed failure propagates" (Some 1)
    raised;
  let again = Parallel.map_indexed_shared ~jobs:4 (fun i -> i * i) 8 in
  check
    Alcotest.(array int)
    "pool still serves after a raising batch"
    (Array.init 8 (fun i -> i * i))
    again

(* ---------------- a fill between two same-time sends ----------------

   src (site s0) sends m1 and parks on an ivar; wake (site s1) fills the
   ivar in its own start event, resuming src synchronously, and src sends
   m2 due at the same time with no intervening push. A filler on s1 that
   parks first gives the two sites equal executed-event counts at the two
   sends. The receiver must take m1 then m2, and the trace must be the
   same on every run. *)

let epoch_guard_run () =
  let eng = Engine.create () in
  let got = ref [] in
  let receiver =
    Engine.spawn eng ~cloneable:false ~oblivious:true ~name:"sink" ~site:"s0"
      (fun ctx ->
        for _ = 1 to 2 do
          got := (Engine.receive ctx ()).Message.payload :: !got
        done)
  in
  let iv = Engine.Ivar.create () in
  ignore
    (Engine.spawn eng ~cloneable:false ~name:"src" ~site:"s0" (fun ctx ->
         Engine.send ctx receiver (Payload.int 1);
         ignore (Engine.Ivar.read ctx iv);
         Engine.send ctx receiver (Payload.int 2)));
  (* Parks forever: one counted event on s1, no pushes. *)
  ignore
    (Engine.spawn eng ~cloneable:false ~oblivious:true ~name:"filler"
       ~site:"s1" (fun ctx -> ignore (Engine.receive ctx ())));
  ignore
    (Engine.spawn eng ~cloneable:false ~oblivious:true ~name:"wake" ~site:"s1"
       (fun _ctx -> ignore (Engine.Ivar.try_fill iv 0)));
  Engine.run eng;
  let payloads = List.rev_map (function Payload.Int i -> i | _ -> -1) !got in
  (Trace.to_jsonl (Engine.trace eng), payloads)

let test_epoch_guard_regression () =
  let trace, got = epoch_guard_run () in
  check Alcotest.(list int) "FIFO" [ 1; 2 ] got;
  let trace', _ = epoch_guard_run () in
  check Alcotest.string "trace is deterministic" trace trace';
  check Alcotest.string "trace digest unchanged" "bbae44d57309df0e" (fnv [ trace ])

(* ---------------- engine argument validation ---------------- *)

let test_create_rejects_bad_shards () =
  List.iter
    (fun shards ->
      check Alcotest.bool
        (Printf.sprintf "shards:%d rejected" shards)
        true
        (try
           ignore (Engine.create ~shards ());
           false
         with Invalid_argument _ -> true))
    [ 0; 2 ];
  let eng = Engine.create ~shards:1 () in
  let ran = ref false in
  ignore (Engine.spawn eng ~name:"p" (fun _ -> ran := true));
  Engine.run eng;
  check Alcotest.bool "shards:1 runs" true !ran

let () =
  Alcotest.run "determinism"
    [
      ( "byte-identity",
        [
          Alcotest.test_case "run matrix, shards 1/2/4, +/- sanitizer" `Quick
            test_run_matrix_byte_identity;
          Alcotest.test_case "fuzz matrix, shards 1/2/4, +/- sanitizer" `Quick
            test_fuzz_matrix_byte_identity;
          Alcotest.test_case "sites matrix, shards 1/2/4, +/- sanitizer"
            `Quick test_sites_matrix_byte_identity;
          Alcotest.test_case "clean cell trace, executed twice, +/- sanitizer"
            `Quick test_clean_cell_trace_replays;
          Alcotest.test_case "zero-lookahead ring ordering" `Quick
            test_zero_lookahead_ordering;
        ] );
      ( "rng",
        [
          Alcotest.test_case "streams independent of shard residency" `Quick
            test_rng_shard_independent;
        ] );
      ( "pool",
        [
          Alcotest.test_case "lowest-indexed exception, pool survives" `Quick
            test_shared_pool_raises_lowest_index;
        ] );
      ( "epoch-guard",
        [
          Alcotest.test_case "per-shard epoch diverges; global one holds"
            `Quick test_epoch_guard_regression;
          Alcotest.test_case "create validates shards" `Quick
            test_create_rejects_bad_shards;
        ] );
    ]
