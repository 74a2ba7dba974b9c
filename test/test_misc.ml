(* Coverage for the smaller surfaces: memory charging, payload/message
   printing and sizing, trace utilities, alternative constructors, and
   assorted accessors. *)

let check = Alcotest.check
let cf = Alcotest.float 1e-9

(* ---------------- memory charging ---------------- *)

(* A body reaches its sink state through [Engine.space] and pays for its
   copy-on-write faults with [Engine.charge_memory]. *)

let test_mem_requires_space () =
  let eng = Engine.create ~trace:false () in
  let seen = ref None in
  ignore
    (Engine.spawn eng (fun ctx ->
         Engine.charge_memory ctx;
         seen := Some (Option.is_none (Engine.space ctx), Engine.now_v ctx)));
  Engine.run eng;
  check
    Alcotest.(option (pair bool cf))
    "spaceless process: no space, nothing charged" (Some (true, 0.)) !seen

let test_mem_rw_and_charging () =
  let model = Cost_model.att_3b2 in
  let eng = Engine.create ~model ~trace:false () in
  let parent = Address_space.create ~size_hint:8192 (Engine.frame_store eng) model in
  let child = Address_space.fork parent in
  ignore (Address_space.drain_cost child);
  let finish = ref 0. in
  ignore
    (Engine.spawn eng ~space:child (fun ctx ->
         Address_space.write_bytes child ~addr:0 (Bytes.of_string "xy");
         Engine.charge_memory ctx;
         check Alcotest.string "read back" "xy"
           (Bytes.to_string (Address_space.read_bytes child ~addr:0 ~len:2));
         finish := Engine.now_v ctx));
  Engine.run eng;
  (* The COW fault on the shared page must have cost one page copy. *)
  check Alcotest.bool "fault charged to the clock" true
    (Float.abs (!finish -. (1. /. 326.)) < 1e-9)

let test_mem_touch () =
  let model = Cost_model.uniform ~page_size:256 () in
  let eng = Engine.create ~model ~trace:false () in
  let parent = Address_space.create ~size_hint:1024 (Engine.frame_store eng) model in
  let child = Address_space.fork parent in
  ignore (Address_space.drain_cost child);
  ignore
    (Engine.spawn eng ~space:child (fun ctx ->
         Address_space.touch child ~addr:0 ~len:1024;
         Engine.charge_memory ctx));
  Engine.run eng;
  check Alcotest.int "all four pages privatised" 4 (Address_space.cow_copies child)

(* ---------------- Payload / Message ---------------- *)

let test_payload_sizes () =
  check Alcotest.int "unit" 1 (Payload.size_bytes Payload.Unit);
  check Alcotest.int "int" 8 (Payload.size_bytes (Payload.int 1));
  check Alcotest.int "string" (4 + 5) (Payload.size_bytes (Payload.str "hello"));
  check Alcotest.int "pair" (2 + 8 + 8)
    (Payload.size_bytes (Payload.pair (Payload.int 1) (Payload.int 2)));
  check Alcotest.int "list" (4 + 8 + 8)
    (Payload.size_bytes (Payload.List [ Payload.int 1; Payload.int 2 ]))

let test_payload_printing () =
  check Alcotest.string "pair" "(1, \"x\")"
    (Payload.to_string (Payload.pair (Payload.int 1) (Payload.str "x")));
  check Alcotest.string "list" "[1; 2]"
    (Payload.to_string (Payload.List [ Payload.int 1; Payload.int 2 ]));
  check Alcotest.string "bool" "true" (Payload.to_string (Payload.Bool true));
  check Alcotest.string "float" "1.5" (Payload.to_string (Payload.Float 1.5))

let test_payload_projections () =
  check Alcotest.int "get_int" 3 (Payload.get_int (Payload.int 3));
  check Alcotest.string "get_str" "s" (Payload.get_str (Payload.str "s"));
  check Alcotest.bool "get_pair" true
    (Payload.get_pair (Payload.pair Payload.Unit (Payload.int 1))
     = (Payload.Unit, Payload.Int 1));
  Alcotest.check_raises "shape mismatch" (Invalid_argument "Payload.get_int")
    (fun () -> ignore (Payload.get_int Payload.Unit))

let test_message_structure () =
  let m =
    Message.make ~sender:(Pid.of_int 1) ~dest:(Pid.of_int 2)
      ~predicate:Predicate.empty ~tag:"t" ~seq:5 (Payload.str "abc")
  in
  check Alcotest.bool "size includes header" true (Message.size_bytes m > 7);
  let printed = Format.asprintf "%a" Message.pp m in
  check Alcotest.bool "pp mentions endpoints" true
    (String.length printed > 0)

(* ---------------- Trace ---------------- *)

let test_trace_query_helpers () =
  let t = Trace.create () in
  Trace.record t ~time:1. (Trace.Started (Pid.of_int 0));
  Trace.record t ~time:2. (Trace.Note "a");
  Trace.record t ~time:3. (Trace.Note "b");
  check Alcotest.int "count notes" 2
    (Trace.count t ~f:(function Trace.Note _ -> true | _ -> false));
  (match Trace.events t with
  | [ (1., Trace.Started _); (2., Trace.Note "a"); (3., Trace.Note "b") ] -> ()
  | _ -> Alcotest.fail "events order");
  (* Without a recorder nothing is kept, but a subscriber still hears. *)
  let off = Trace.create ~enabled:false () in
  let heard = ref 0 in
  ignore (Trace.subscribe off Trace.Kind.note (fun ~time:_ _ -> incr heard));
  Trace.record off ~time:1. (Trace.Note "x");
  check Alcotest.int "nothing kept" 0 (List.length (Trace.events off));
  check Alcotest.int "subscriber heard" 1 !heard

let test_trace_event_printing () =
  let printed e = Format.asprintf "%a" Trace.pp_event e in
  check Alcotest.string "note" "note: hi" (printed (Trace.Note "hi"));
  check Alcotest.string "start" "start P3" (printed (Trace.Started (Pid.of_int 3)));
  check Alcotest.bool "fate" true
    (printed (Trace.Fate { pid = Pid.of_int 1; fate = Predicate.Completed })
     = "fate P1 = completed")

(* ---------------- Alternative constructors ---------------- *)

let in_process eng f =
  let result = ref None in
  ignore (Engine.spawn eng ~cloneable:false (fun ctx -> result := Some (f ctx)));
  Engine.run eng;
  Option.get !result

let test_alternative_fixed_and_failing () =
  let eng = Engine.create ~trace:false () in
  let v =
    in_process eng (fun ctx ->
        let alt = Alternative.fixed ~cost:1.5 "v" in
        let t0 = Engine.now_v ctx in
        let v = alt.Alternative.body ctx in
        check cf "cost consumed" 1.5 (Engine.now_v ctx -. t0);
        v)
  in
  check Alcotest.string "value" "v" v;
  let eng = Engine.create ~trace:false () in
  let raised =
    in_process eng (fun ctx ->
        let alt : unit Alternative.t = Alternative.failing ~cost:0.5 () in
        try
          alt.Alternative.body ctx;
          false
        with Alternative.Failed _ -> true)
  in
  check Alcotest.bool "failing raises Failed" true raised

let test_alternative_default_guard () =
  let alt = Alternative.make (fun _ -> 0) in
  let eng = Engine.create ~trace:false () in
  let g = in_process eng (fun ctx -> alt.Alternative.guard ctx) in
  check Alcotest.bool "default guard open" true g;
  check Alcotest.string "default name" "alt" alt.Alternative.name

(* ---------------- misc engine accessors ---------------- *)

let test_logical_of_plain_process () =
  let eng = Engine.create ~trace:false () in
  let pid = Engine.spawn eng (fun _ -> ()) in
  check Alcotest.bool "logical = physical for plain processes" true
    (Engine.logical_of eng pid = Some pid);
  check Alcotest.bool "unknown pid" true
    (Engine.logical_of eng (Pid.of_int 999) = None)

let test_engine_accessors () =
  let model = Cost_model.hp_9000_350 in
  let eng = Engine.create ~model ~trace:false () in
  check Alcotest.string "model name" model.Cost_model.name
    (Engine.model eng).Cost_model.name;
  check Alcotest.int "store page size" model.Cost_model.page_size
    (Frame_store.page_size (Engine.frame_store eng));
  check cf "clock starts at zero" 0. (Engine.now eng);
  check Alcotest.int "no events processed yet" 0
    (Engine.stats_events_processed eng)

let test_source_name_and_analytic_pp () =
  let eng = Engine.create ~trace:false () in
  let s = Source.create eng ~name:"line-printer" in
  check Alcotest.string "name" "line-printer" (Source.name s);
  let row = List.hd (Analytic.table_4_3 ()) in
  let printed = Format.asprintf "%a" Analytic.pp_row row in
  check Alcotest.bool "row pp mentions PI" true (String.length printed > 10)

let () =
  Alcotest.run "misc"
    [
      ( "mem",
        [
          Alcotest.test_case "requires a space" `Quick test_mem_requires_space;
          Alcotest.test_case "rw and cost charging" `Quick test_mem_rw_and_charging;
          Alcotest.test_case "touch" `Quick test_mem_touch;
        ] );
      ( "payload/message",
        [
          Alcotest.test_case "sizes" `Quick test_payload_sizes;
          Alcotest.test_case "printing" `Quick test_payload_printing;
          Alcotest.test_case "projections" `Quick test_payload_projections;
          Alcotest.test_case "message structure" `Quick test_message_structure;
        ] );
      ( "trace",
        [
          Alcotest.test_case "query helpers" `Quick test_trace_query_helpers;
          Alcotest.test_case "event printing" `Quick test_trace_event_printing;
        ] );
      ( "alternative",
        [
          Alcotest.test_case "fixed and failing" `Quick test_alternative_fixed_and_failing;
          Alcotest.test_case "default guard" `Quick test_alternative_default_guard;
        ] );
      ( "accessors",
        [
          Alcotest.test_case "logical_of" `Quick test_logical_of_plain_process;
          Alcotest.test_case "engine accessors" `Quick test_engine_accessors;
          Alcotest.test_case "source name / analytic pp" `Quick
            test_source_name_and_analytic_pp;
        ] );
    ]
