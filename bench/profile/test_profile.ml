(* Tests for the altprof benchmark: the shadow pipeline answers exactly
   like Server.run (jobs 1 and 2), the digest guard rejects a shadow
   that drifts, the emitted JSON carries every metric BENCHMARK.json
   names, and the recorded spans nest. *)

let check = Alcotest.check
let requests = 300
let seeds = [ 1; 2 ]

let configs (w : Workloads.t) ~seed ~jobs =
  ( {
      w.Workloads.wl with
      Workload.wl_seed = seed;
      wl_requests = requests;
    },
    { w.Workloads.sv with Server.sv_jobs = jobs } )

let test_shadow_matches (w : Workloads.t) () =
  List.iter
    (fun jobs ->
      List.iter
        (fun seed ->
          let wl, sv = configs w ~seed ~jobs in
          let real = Server.digest (Server.run wl sv) in
          Span.reset ();
          let shadow, _, _ = Shadow.run wl sv in
          check Alcotest.int64
            (Printf.sprintf "seed %d jobs %d: shadow digest = Server.digest" seed
               jobs)
            real (Server.digest shadow))
        seeds)
    [ 1; 2 ]

let test_guard_catches_drift () =
  let w = List.hd Workloads.all in
  let wl, sv = configs w ~seed:1 ~jobs:1 in
  let real = Server.digest (Server.run wl sv) in
  Span.reset ();
  let drifted, _, _ =
    Shadow.run wl { sv with Server.sv_window = sv.Server.sv_window +. 0.01 }
  in
  check Alcotest.bool "a wrong batch window fails the guard" true
    (Profile.digest_guard ~what:"drift" ~real ~shadow:(Server.digest drifted)
    <> []);
  check Alcotest.bool "the true copy passes" true
    (Profile.digest_guard ~what:"same" ~real ~shadow:real = [])

let benchmark = Json.read_file "../../BENCHMARK.json"

let names_and_units key =
  List.map
    (fun m ->
      ( Option.get (Json.to_str (Json.member "name" m)),
        Option.get (Json.to_str (Json.member "unit" m)) ))
    (Json.to_list (Json.member key benchmark))

let valid_name n =
  n <> ""
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       n

let test_benchmark_shape () =
  check
    Alcotest.(list string)
    "top-level keys"
    [ "command"; "paths"; "run_seconds"; "workloads"; "end_to_end"; "per_layer" ]
    (List.map fst (Json.to_assoc benchmark));
  check
    Alcotest.(list string)
    "workloads are altprof's"
    Workloads.names
    (List.filter_map
       (fun w -> Json.to_str (Json.member "name" w))
       (Json.to_list (Json.member "workloads" benchmark)));
  List.iter
    (fun (n, _) -> check Alcotest.bool (n ^ " is a valid name") true (valid_name n))
    (names_and_units "end_to_end" @ names_and_units "per_layer")

(* Every metric BENCHMARK.json names is emitted, with the same unit. *)
let emitted ~what expected metrics =
  List.iter
    (fun (name, unit) ->
      match Json.member name metrics with
      | Json.Null -> Alcotest.failf "%s: %s missing" what name
      | m ->
          check Alcotest.(option string) (what ^ " " ^ name ^ " unit") (Some unit)
            (Json.to_str (Json.member "unit" m)))
    expected;
  List.iter
    (fun (name, _) ->
      check Alcotest.bool (what ^ " emits valid name " ^ name) true (valid_name name))
    (Json.to_assoc metrics)

let test_json_names (w : Workloads.t) () =
  let s = Profile.setting ~requests ~seed:1 w in
  let m = Profile.measure s (Profile.Fixed 2) in
  check Alcotest.(list string) "run checks pass" [] m.Profile.failures;
  let run_json = Json.parse (Json.to_string (Profile.measured_json m)) in
  emitted ~what:"run" (names_and_units "end_to_end") (Json.member "host" run_json);
  let t = Profile.trace s (Profile.Fixed 1) in
  check Alcotest.(list string) "trace checks pass" [] t.Profile.trace_failures;
  let trace_json = Json.parse (Json.to_string (Profile.traced_json t)) in
  emitted ~what:"trace" (names_and_units "per_layer") (Json.member "layers" trace_json)

let test_spans_nest () =
  let w = Option.get (Workloads.find "serve-steady") in
  let wl, sv = configs w ~seed:3 ~jobs:2 in
  Span.reset ();
  ignore (Shadow.run wl sv);
  let spans = Span.spans () in
  check Alcotest.bool "spans recorded" true (Array.length spans > requests);
  let by_id = Hashtbl.create (Array.length spans) in
  Array.iter (fun (s : Span.span) -> Hashtbl.replace by_id s.Span.id s) spans;
  Array.iter
    (fun (s : Span.span) ->
      if s.Span.self_ns < 0 then
        Alcotest.failf "%s span %d: self time %d ns" (Span.name s.Span.layer)
          s.Span.id s.Span.self_ns;
      if s.Span.parent >= 0 then begin
        match Hashtbl.find_opt by_id s.Span.parent with
        | None -> Alcotest.failf "span %d: parent %d not recorded" s.Span.id s.Span.parent
        | Some p ->
            if s.Span.start_ns < p.Span.start_ns || s.Span.end_ns > p.Span.end_ns then
              Alcotest.failf "%s span %d lies outside its parent %s"
                (Span.name s.Span.layer) s.Span.id (Span.name p.Span.layer)
      end)
    spans;
  check Alcotest.bool "batches ran under the parallel span" true
    (Array.exists
       (fun (s : Span.span) ->
         s.Span.layer = Span.Batch
         &&
         match Hashtbl.find_opt by_id s.Span.parent with
         | Some p -> p.Span.layer = Span.Parallel
         | None -> false)
       spans)

let () =
  let per_workload name f =
    List.map
      (fun (w : Workloads.t) ->
        Alcotest.test_case (name ^ " " ^ w.Workloads.name) `Quick (f w))
      Workloads.all
  in
  Alcotest.run "profile"
    [
      ("shadow", per_workload "digest equals Server.run" test_shadow_matches);
      ( "guard",
        [ Alcotest.test_case "perturbed shadow is caught" `Quick test_guard_catches_drift ] );
      ( "json",
        Alcotest.test_case "BENCHMARK.json shape and names" `Quick test_benchmark_shape
        :: per_workload "every BENCHMARK.json name emitted" test_json_names );
      ("spans", [ Alcotest.test_case "children nest, self >= 0" `Quick test_spans_nest ]);
    ]
