(* Unit and property tests for alt_base: pids, PRNG, statistics. *)

let check = Alcotest.check
let cf = Alcotest.float 1e-9

(* ---------------- Pid ---------------- *)

let test_allocator_monotone () =
  let a = Pid.Allocator.create () in
  let p0 = Pid.Allocator.fresh a in
  let p1 = Pid.Allocator.fresh a in
  let p2 = Pid.Allocator.fresh a in
  check Alcotest.int "first pid is 0" 0 (Pid.to_int p0);
  check Alcotest.int "second pid is 1" 1 (Pid.to_int p1);
  check Alcotest.int "third pid is 2" 2 (Pid.to_int p2);
  check Alcotest.int "allocated count" 3 (Pid.Allocator.allocated a)

let test_allocator_first () =
  let a = Pid.Allocator.create ~first:10 () in
  check Alcotest.int "starts at 10" 10 (Pid.to_int (Pid.Allocator.fresh a));
  check Alcotest.int "one allocated" 1 (Pid.Allocator.allocated a)

let test_pid_order_and_equality () =
  let p = Pid.of_int 3 and q = Pid.of_int 5 in
  check Alcotest.bool "equal self" true (Pid.equal p p);
  check Alcotest.bool "not equal" false (Pid.equal p q);
  check Alcotest.bool "compare" true (Pid.compare p q < 0);
  check Alcotest.string "to_string" "P3" (Pid.to_string p)

let test_pid_set_map () =
  let open Pid in
  let s = Set.of_list [ of_int 2; of_int 1; of_int 2 ] in
  check Alcotest.int "set dedups" 2 (Set.cardinal s);
  let m = Map.add (of_int 1) "a" Map.empty in
  check Alcotest.(option string) "map find" (Some "a") (Map.find_opt (of_int 1) m)

(* ---------------- Rng ---------------- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  check Alcotest.bool "different seeds differ" true (Rng.bits64 a <> Rng.bits64 b)

let test_rng_copy () =
  let a = Rng.create ~seed:3 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  check Alcotest.int64 "copies agree" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_split_independent () =
  let a = Rng.create ~seed:3 in
  let b = Rng.split a in
  (* The split stream must differ from the parent's continued stream. *)
  check Alcotest.bool "split differs" true (Rng.bits64 a <> Rng.bits64 b)

(* Pinned outputs. Workload streams, fault plans and every process's
   draws come from this generator, so a change to how the state is
   stored or stepped must reproduce these values bit for bit. *)
let first16 f = List.init 16 (fun _ -> f ())

let test_rng_pinned_outputs () =
  let fresh () = Rng.create ~seed:2024 in
  let r = fresh () in
  check
    Alcotest.(list int64)
    "bits64"
    [ 0x9f6d8fecf88eecd5L; 0x18e430bb1511f2d2L; 0x4c6f7cbf58dba57fL;
      0x1dbe69e0ae9bb859L; 0xd4a0c1656476437aL; 0x8d6b7b6d69455aebL;
      0x230249cae3603297L; 0x98aa033e99c4a792L; 0x2b39e8e05ba9e530L;
      0x6d467b84dc360331L; 0x762887bf5d21a339L; 0xd644a39996a5cd1bL;
      0xd811dfdb557fab8bL; 0xa955c3c7d9d3af85L; 0x25430e1349d55355L;
      0xb05386bf060a34c7L ]
    (first16 (fun () -> Rng.bits64 r));
  let r = fresh () in
  check
    Alcotest.(list int)
    "int, power-of-two bound"
    [ 821; 180; 351; 534; 222; 698; 165; 484; 332; 204; 206; 838; 738; 993;
      213; 305 ]
    (first16 (fun () -> Rng.int r 1024));
  let r = fresh () in
  check
    Alcotest.(list int)
    "int, bound 9973"
    [ 1137; 3010; 7644; 3804; 5844; 7954; 8349; 6087; 3830; 1594; 8310; 9516;
      37; 9646; 1097; 6840 ]
    (first16 (fun () -> Rng.int r 9973));
  (* A bound just above 2^61 rejects almost half of all draws, so this
     row exercises the redraw loop. *)
  let r = fresh () in
  check
    Alcotest.(list int)
    "int, bound 2^61 + 1"
    [ 448403032917703860; 1376939507642198367; 535816721599491606;
      630664969256963237; 778694166902896972; 1968529202266079436;
      2128551087878727886; 671251319712208085; 1563506127331458759;
      2058117020029405329; 1228523796556560133; 2037432854265061129;
      1664731427565976510; 892768819023411653; 884508192037143008;
      1340733574816989416 ]
    (first16 (fun () -> Rng.int r ((1 lsl 61) + 1)));
  let r = fresh () in
  check
    Alcotest.(list int64)
    "float bits"
    [ 0x3fe3edb1fd9f11ddL; 0x3fb8e430bb1511f0L; 0x3fd31bdf2fd636e8L;
      0x3fbdbe69e0ae9bb8L; 0x3fea94182cac8ec8L; 0x3fe1ad6f6dad28abL;
      0x3fc18124e571b018L; 0x3fe3154067d33894L; 0x3fc59cf4702dd4f0L;
      0x3fdb519ee1370d80L; 0x3fdd8a21efd74868L; 0x3feac8947332d4b9L;
      0x3feb023bfb6aaff5L; 0x3fe52ab878fb3a75L; 0x3fc2a18709a4eaa8L;
      0x3fe60a70d7e0c146L ]
    (first16 (fun () -> Int64.bits_of_float (Rng.float r 1.)));
  let r = fresh () in
  check
    Alcotest.(list bool)
    "bool"
    [ true; false; true; true; false; true; true; false; false; true; true;
      true; true; true; true; true ]
    (first16 (fun () -> Rng.bool r));
  let r = Rng.stream ~seed:2024 ~key:5 in
  check
    Alcotest.(list int64)
    "stream ~seed:2024 ~key:5"
    [ 0x326a6898845a0b89L; 0x481fc6257050d277L; 0x3d893be28958da61L;
      0xd8cff2cad9a50c30L; 0x2df05bc636b57935L; 0x5a1ebd2f0124b3a2L;
      0xabc940f1c52c5b53L; 0xc86e14b1f527f112L; 0xb96174054d19e68eL;
      0x97a08f3876d3dde3L; 0xc39488fb63f5c09fL; 0x9d574da993ad31ccL;
      0x5982bbb39a5c01b6L; 0xd2a359388612671cL; 0xd840b373de217708L;
      0x2c736d543b691746L ]
    (first16 (fun () -> Rng.bits64 r));
  (* [split] after one draw: the child's stream, then the parent's
     continuation, which resumes at the parent's third output. *)
  let p = fresh () in
  ignore (Rng.bits64 p);
  let c = Rng.split p in
  check
    Alcotest.(list int64)
    "split: child"
    [ 0x7d8029131a9cf55aL; 0x59ac64c47d850673L; 0x575647bea2cc354fL;
      0x81f645b62c86b95aL; 0x48993b0b5daf688cL; 0x4e2fa9c587de24aL;
      0xee0345aea1be2037L; 0xb88257f1adb6c05L; 0x6066342b6107bd5L;
      0x66a4f8a5dba6412dL; 0x4a908e413bab3f4dL; 0xe725db81849552d8L;
      0x8b80188ee601804bL; 0xc21fda3684c8c256L; 0x23dfa2820e8aafe7L;
      0x8b3c722f1c4ade78L ]
    (first16 (fun () -> Rng.bits64 c));
  check
    Alcotest.(list int64)
    "split: parent continues"
    [ 0x4c6f7cbf58dba57fL; 0x1dbe69e0ae9bb859L; 0xd4a0c1656476437aL;
      0x8d6b7b6d69455aebL; 0x230249cae3603297L; 0x98aa033e99c4a792L;
      0x2b39e8e05ba9e530L; 0x6d467b84dc360331L; 0x762887bf5d21a339L;
      0xd644a39996a5cd1bL; 0xd811dfdb557fab8bL; 0xa955c3c7d9d3af85L;
      0x25430e1349d55355L; 0xb05386bf060a34c7L; 0xfde34b132f5500f5L;
      0x56cac227eef3fb1fL ]
    (first16 (fun () -> Rng.bits64 p))

(* A copy shares no state with its original: drawing from either leaves
   the other's stream where it was. *)
let test_rng_copy_independent () =
  let a = Rng.create ~seed:2024 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  let from_b = first16 (fun () -> Rng.bits64 b) in
  check Alcotest.(list int64) "draining the copy leaves the original" from_b
    (first16 (fun () -> Rng.bits64 a));
  let c = Rng.copy a in
  let next = Rng.bits64 a in
  check Alcotest.int64 "drawing from the original leaves the copy" next
    (Rng.bits64 c)

let test_rng_int_bounds () =
  let r = Rng.create ~seed:11 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.fail "Rng.int out of bounds"
  done

let test_rng_int_invalid () =
  let r = Rng.create ~seed:1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

(* Regression for the modulo-bias fix. A bound of 3*2^60 makes the bias
   of the old [r mod bound] enormous: the 62-bit draw covers 4*2^60
   values, so results below 2^60 were produced by two preimages (r and
   r + bound) and P(v < 2^60) was 1/2 instead of the uniform 1/3.
   Rejection sampling brings it back to ~1/3; the old code fails this
   deterministic check immediately. *)
let test_rng_int_large_bound_unbiased () =
  let r = Rng.create ~seed:97 in
  let bound = 3 * (1 lsl 60) in
  let cut = 1 lsl 60 in
  let n = 4000 in
  let low = ref 0 in
  for _ = 1 to n do
    let v = Rng.int r bound in
    if v < 0 || v >= bound then Alcotest.fail "Rng.int out of bounds";
    if v < cut then incr low
  done;
  let frac = float_of_int !low /. float_of_int n in
  if frac > 0.40 then
    Alcotest.failf
      "Rng.int is modulo-biased: %.3f of draws in the first third (expected \
       ~0.333, the biased sampler gives ~0.50)"
      frac

(* Chi-square sanity: Rng.int 7 over 14000 draws, 7 bins of expectation
   2000. With 6 degrees of freedom, chi2 < 22.46 covers p = 0.001; the
   draw is deterministic in the seed, so this never flakes. *)
let test_rng_int_chi_square () =
  let r = Rng.create ~seed:12345 in
  let bins = 7 in
  let per_bin = 2000 in
  let n = bins * per_bin in
  let counts = Array.make bins 0 in
  for _ = 1 to n do
    let v = Rng.int r bins in
    counts.(v) <- counts.(v) + 1
  done;
  let expected = float_of_int per_bin in
  let chi2 =
    Array.fold_left
      (fun acc c ->
        let d = float_of_int c -. expected in
        acc +. (d *. d /. expected))
      0. counts
  in
  if chi2 > 22.46 then
    Alcotest.failf "chi-square %.2f exceeds the p=0.001 bound for df=6" chi2

let test_rng_float_range () =
  let r = Rng.create ~seed:5 in
  for _ = 1 to 1000 do
    let v = Rng.float r 2.5 in
    if v < 0. || v >= 2.5 then Alcotest.fail "Rng.float out of range"
  done

let test_rng_bernoulli_extremes () =
  let r = Rng.create ~seed:5 in
  for _ = 1 to 50 do
    check Alcotest.bool "p=1 always true" true (Rng.bernoulli r ~p:1.0);
    check Alcotest.bool "p=0 always false" false (Rng.bernoulli r ~p:0.0)
  done

let test_rng_bernoulli_frequency () =
  let r = Rng.create ~seed:5 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Rng.bernoulli r ~p:0.3 then incr hits
  done;
  let freq = float_of_int !hits /. float_of_int n in
  check Alcotest.bool "frequency near 0.3" true (Float.abs (freq -. 0.3) < 0.02)

let test_rng_exponential_mean () =
  let r = Rng.create ~seed:9 in
  let n = 50_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    let v = Rng.exponential r ~mean:2.0 in
    if v < 0. then Alcotest.fail "exponential negative";
    sum := !sum +. v
  done;
  let mean = !sum /. float_of_int n in
  check Alcotest.bool "sample mean near 2.0" true (Float.abs (mean -. 2.0) < 0.1)

let test_rng_uniform_in () =
  let r = Rng.create ~seed:13 in
  for _ = 1 to 1000 do
    let v = Rng.uniform_in r ~lo:(-1.) ~hi:1. in
    if v < -1. || v >= 1. then Alcotest.fail "uniform_in out of range"
  done

let test_rng_shuffle_permutation () =
  let r = Rng.create ~seed:21 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "is a permutation" (Array.init 50 Fun.id) sorted

let test_rng_pick () =
  let r = Rng.create ~seed:2 in
  let a = [| "x"; "y"; "z" |] in
  for _ = 1 to 100 do
    let v = Rng.pick r a in
    if not (Array.mem v a) then Alcotest.fail "pick outside array"
  done;
  Alcotest.check_raises "empty pick" (Invalid_argument "Rng.pick: empty array")
    (fun () -> ignore (Rng.pick r [||]))

(* ---------------- Allocation ----------------

   A float drawn from another module comes back unboxed: the default
   build compiles without -opaque, so ocamlopt inlines [Rng.float] and
   [Rng.exponential] here and their results stay in registers. A build
   with -opaque (dune's dev profile) boxes each returned float, 2 words
   a draw. The ceiling holds the default build to that. *)
(* Top-level, so the running sum stays an unboxed local. *)
let sum_draws r draws =
  let sum = ref 0. in
  for _ = 1 to draws / 2 do
    sum := !sum +. Rng.float r 1.;
    sum := !sum +. Rng.exponential r ~mean:0.5
  done;
  !sum

let test_float_draw_unboxed () =
  let r = Rng.create ~seed:5 in
  let draws = 100_000 in
  let sum = ref 0. in
  let words = Alloc_words.of_run (fun () -> sum := sum_draws r draws) in
  let per_draw = words /. float_of_int draws in
  if not (!sum > 0.) then Alcotest.failf "sum of draws %h" !sum;
  if per_draw > 0.05 then
    Alcotest.failf "%.3f words per float draw, ceiling 0.05" per_draw

(* ---------------- Stats ---------------- *)

let test_stats_mean_variance () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  check cf "mean" 2.5 (Stats.mean xs);
  check cf "variance" 1.25 (Stats.variance xs);
  check cf "stddev" (sqrt 1.25) (Stats.stddev xs);
  check cf "sum" 10. (Stats.sum xs)

let test_stats_single () =
  let xs = [| 42. |] in
  check cf "mean" 42. (Stats.mean xs);
  check cf "variance" 0. (Stats.variance xs);
  check cf "median" 42. (Stats.median xs)

let test_stats_min_max () =
  let xs = [| 3.; -1.; 7.; 0. |] in
  check cf "min" (-1.) (Stats.min xs);
  check cf "max" 7. (Stats.max xs)

let test_stats_percentiles () =
  let xs = [| 4.; 1.; 3.; 2. |] in
  check cf "p0 = min" 1. (Stats.percentile xs ~p:0.);
  check cf "p100 = max" 4. (Stats.percentile xs ~p:100.);
  check cf "median interpolated" 2.5 (Stats.median xs);
  check cf "p25" 1.75 (Stats.percentile xs ~p:25.)

let test_stats_empty_raises () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats: empty sample")
    (fun () -> ignore (Stats.mean [||]))

let test_stats_percentile_range () =
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Stats.percentile: p out of range") (fun () ->
      ignore (Stats.percentile [| 1. |] ~p:101.))

let test_stats_summary () =
  let s = Stats.summarize [| 1.; 2.; 3. |] in
  check Alcotest.int "n" 3 s.Stats.n;
  check cf "mean" 2. s.Stats.mean;
  check cf "min" 1. s.Stats.min;
  check cf "max" 3. s.Stats.max;
  check cf "median" 2. s.Stats.median;
  let str = Format.asprintf "%a" Stats.pp_summary s in
  check Alcotest.bool "pp mentions n" true
    (String.length str > 0 && String.sub str 0 3 = "n=3")

(* ---------------- properties ---------------- *)

let nonempty_floats =
  QCheck.(array_of_size Gen.(int_range 1 40) (float_range (-1000.) 1000.))

let prop_mean_bounded =
  QCheck.Test.make ~name:"mean lies between min and max" ~count:500
    nonempty_floats (fun xs ->
      let m = Stats.mean xs in
      Stats.min xs <= m +. 1e-9 && m <= Stats.max xs +. 1e-9)

let prop_variance_nonneg =
  QCheck.Test.make ~name:"variance is non-negative" ~count:500 nonempty_floats
    (fun xs -> Stats.variance xs >= -1e-9)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile is monotone in p" ~count:300
    QCheck.(pair nonempty_floats (pair (float_range 0. 100.) (float_range 0. 100.)))
    (fun (xs, (p1, p2)) ->
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Stats.percentile xs ~p:lo <= Stats.percentile xs ~p:hi +. 1e-9)

let prop_shuffle_preserves_multiset =
  QCheck.Test.make ~name:"shuffle preserves elements" ~count:300
    QCheck.(pair small_int (array small_int))
    (fun (seed, a) ->
      let r = Rng.create ~seed in
      let b = Array.copy a in
      Rng.shuffle r b;
      let sa = Array.copy a and sb = Array.copy b in
      Array.sort compare sa;
      Array.sort compare sb;
      sa = sb)

let () =
  Alcotest.run "base"
    [
      ( "pid",
        [
          Alcotest.test_case "allocator is monotone" `Quick test_allocator_monotone;
          Alcotest.test_case "allocator custom start" `Quick test_allocator_first;
          Alcotest.test_case "order and equality" `Quick test_pid_order_and_equality;
          Alcotest.test_case "set and map" `Quick test_pid_set_map;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic per seed" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "copy duplicates state" `Quick test_rng_copy;
          Alcotest.test_case "split diverges" `Quick test_rng_split_independent;
          Alcotest.test_case "pinned outputs" `Quick test_rng_pinned_outputs;
          Alcotest.test_case "copy is independent" `Quick test_rng_copy_independent;
          Alcotest.test_case "int stays in bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int rejects bad bound" `Quick test_rng_int_invalid;
          Alcotest.test_case "int large-bound bias regression" `Quick
            test_rng_int_large_bound_unbiased;
          Alcotest.test_case "int chi-square uniformity" `Slow
            test_rng_int_chi_square;
          Alcotest.test_case "float stays in range" `Quick test_rng_float_range;
          Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
          Alcotest.test_case "bernoulli frequency" `Slow test_rng_bernoulli_frequency;
          Alcotest.test_case "exponential mean" `Slow test_rng_exponential_mean;
          Alcotest.test_case "uniform_in range" `Quick test_rng_uniform_in;
          Alcotest.test_case "shuffle is a permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "pick membership" `Quick test_rng_pick;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "a float draw from another module allocates nothing" `Quick
            test_float_draw_unboxed;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/variance/stddev/sum" `Quick test_stats_mean_variance;
          Alcotest.test_case "single sample" `Quick test_stats_single;
          Alcotest.test_case "min and max" `Quick test_stats_min_max;
          Alcotest.test_case "percentiles" `Quick test_stats_percentiles;
          Alcotest.test_case "empty raises" `Quick test_stats_empty_raises;
          Alcotest.test_case "percentile range check" `Quick test_stats_percentile_range;
          Alcotest.test_case "summary" `Quick test_stats_summary;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_mean_bounded;
            prop_variance_nonneg;
            prop_percentile_monotone;
            prop_shuffle_preserves_multiset;
          ] );
    ]
