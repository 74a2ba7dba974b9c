let pi ~times ~overhead = Stats.mean times /. (Stats.min times +. overhead)

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
