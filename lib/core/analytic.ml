type overhead = { setup : float; runtime : float; selection : float }

let overhead_total o = o.setup +. o.runtime +. o.selection
let zero_overhead = { setup = 0.; runtime = 0.; selection = 0. }

let pi ~times ~overhead =
  if Array.length times = 0 then invalid_arg "Analytic.pi: no alternatives";
  if overhead < 0. then invalid_arg "Analytic.pi: negative overhead";
  Stats.mean times /. (Stats.min times +. overhead)

let wins ~times ~overhead = pi ~times ~overhead > 1.

let break_even_overhead ~times = Stats.mean times -. Stats.min times

type row = {
  label : string;
  times : float array;
  overhead : float;
  pi_value : float;
  pi_paper : float;
}

let table_4_3 () =
  let mk label times pi_paper =
    let times = Array.map float_of_int times in
    let overhead = 5. in
    { label; times; overhead; pi_value = pi ~times ~overhead; pi_paper }
  in
  [
    mk "(1)" [| 10; 20; 30 |] 1.33;
    mk "(2)" [| 1; 19; 106 |] 7.0;
    mk "(3)" [| 20; 20; 20 |] 0.8;
    mk "(4)" [| 1; 2; 3 |] 0.33;
    mk "(5)" [| 115; 120; 125 |] 1.0;
    mk "(6)" [| 100; 200; 300 |] 1.9;
  ]

let pp_row ppf r =
  Format.fprintf ppf "%s  tau=(%s)  overhead=%g  PI=%.2f (paper: %.2f)" r.label
    (String.concat ", "
       (Array.to_list (Array.map (fun x -> Format.asprintf "%g" x) r.times)))
    r.overhead r.pi_value r.pi_paper
