type workload = { description : string; times : float array array }

let generate ~rng ~inputs ~alternatives ~dist ~description =
  let draw () =
    match dist with
    | `Uniform (lo, hi) -> Rng.uniform_in rng ~lo ~hi
    | `Exponential mean -> Rng.exponential rng ~mean
    | `Bimodal (fast, slow, p) -> if Rng.bernoulli rng ~p then fast else slow
  in
  let times =
    Array.init inputs (fun _ -> Array.init alternatives (fun _ -> draw ()))
  in
  { description; times }

type evaluation = {
  scheme_a : float;
  scheme_b : float;
  scheme_c : float;
  oracle : float;
  pi_c_over_b : float;
}

let evaluate w ~overhead =
  let inputs = Array.length w.times in
  if inputs = 0 then invalid_arg "Schemes.evaluate: empty workload";
  let alternatives = Array.length w.times.(0) in
  if alternatives = 0 then invalid_arg "Schemes.evaluate: no alternatives";
  (* Scheme A commits statically to the alternative with the best column
     mean ("quicksort is almost always O(n log n)"). *)
  let col_mean j =
    Stats.mean (Array.map (fun row -> row.(j)) w.times)
  in
  let best_col = ref 0 in
  for j = 1 to alternatives - 1 do
    if col_mean j < col_mean !best_col then best_col := j
  done;
  let scheme_a = col_mean !best_col in
  let scheme_b = Stats.mean (Array.map Stats.mean w.times) in
  let per_input_best = Array.map Stats.min w.times in
  let oracle = Stats.mean per_input_best in
  let scheme_c = oracle +. overhead in
  { scheme_a; scheme_b; scheme_c; oracle; pi_c_over_b = scheme_b /. scheme_c }
