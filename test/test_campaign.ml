(* The campaign runner's own contracts: which cells it builds, and how it
   reports failures. The matrices' byte-identity is pinned in
   test_determinism.ml. *)

let check = Alcotest.check

(* ---------------- the cell matrix ---------------- *)

let teletype = Option.get (Invariants.find_scenario "teletype")

let test_source_scenario_rejected_under_sites () =
  Alcotest.check_raises "teletype x crash-minority is refused up front"
    (Invalid_argument
       "Campaign.cells: scenario teletype reads a source device, which a \
        restarted coordinator would re-read; it cannot run under the \
        supervised campaign crash-minority")
    (fun () ->
      ignore
        (Campaign.cells
           { Campaign.sites with Campaign.fm_scenarios = [ teletype ] }));
  check Alcotest.int "teletype still runs under every message campaign"
    (List.length Campaign.messages.Campaign.fm_campaigns
    * List.length Campaign.messages.Campaign.fm_policies)
    (Array.length
       (Campaign.cells
          {
            Campaign.messages with
            Campaign.fm_seeds = 1;
            fm_scenarios = [ teletype ];
          }))

(* ---------------- failure reporting ---------------- *)

(* A scenario that breaks replayability on purpose: from seed 2 on, its
   alternatives return a module-level counter, so neither the
   transparency oracle's sequential re-execution nor a re-run of the cell
   sees the value the block selected. Seed 1 returns constants and is
   clean. *)
let reads = Atomic.make 0

let counter_read =
  {
    Invariants.sc_name = "counter-read";
    uses_source = false;
    source_script = [];
    prepare = (fun _ _ -> ());
    alts =
      (fun _eng ~seed ~source:_ ->
        List.init 2 (fun i ->
            Alternative.make
              ~name:(Printf.sprintf "cr%d" i)
              (fun ctx ->
                Engine.delay ctx (0.001 *. float_of_int (i + 1));
                if seed = 1 then i else Atomic.fetch_and_add reads 1)));    sc_exclusive = false;
  }

(* Seeds 1..3 of one campaign and one policy: cell 0 is clean, cells 1
   and 2 violate and diverge on re-run. *)
let check_failure_reporting (family : Campaign.family) ~campaign ~jobs =
  let family =
    {
      Campaign.fm_seeds = 3;
      fm_scenarios = [ counter_read ];
      fm_campaigns =
        List.filter
          (fun c -> c.Campaign.cg_name = campaign)
          family.Campaign.fm_campaigns;
      fm_policies = [ List.hd family.Campaign.fm_policies ];
    }
  in
  let cells = Campaign.cells family in
  let r = Campaign.run ~jobs ~verify:true cells in
  let what = Printf.sprintf "%s, jobs %d" campaign jobs in
  check Alcotest.int (what ^ ": cells run") 3 r.Campaign.cells_run;
  check Alcotest.bool (what ^ ": violations reported") true
    (r.Campaign.violations <> []);
  check
    Alcotest.(option string)
    (what ^ ": first failing is the lowest-index violating cell")
    (Some (Campaign.describe_cell cells.(1)))
    (Option.map Campaign.describe_cell r.Campaign.first_failing);
  check
    Alcotest.(list string)
    (what ^ ": the non-replayable cells are the mismatches")
    [ Campaign.describe_cell cells.(1); Campaign.describe_cell cells.(2) ]
    (List.map
       (fun m -> List.hd (String.split_on_char '\n' m))
       r.Campaign.mismatches)

let test_failure_reporting () =
  List.iter
    (fun jobs ->
      check_failure_reporting Campaign.messages ~campaign:"drop-replies" ~jobs;
      check_failure_reporting Campaign.sites ~campaign:"crash-minority" ~jobs)
    [ 1; 4 ]

let () =
  Alcotest.run "campaign"
    [
      ( "cells",
        [
          Alcotest.test_case "a source scenario under a site campaign" `Quick
            test_source_scenario_rejected_under_sites;
        ] );
      ( "runner",
        [
          Alcotest.test_case "first failing cell and determinism mismatches"
            `Quick test_failure_reporting;
        ] );
    ]
