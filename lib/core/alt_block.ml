type 'a outcome =
  | Selected of { index : int; value : 'a }
  | Block_failed of string

(* Run one alternative in the current process against the current sink
   state, rolling back on failure. Returns [Ok v] or [Error reason]. *)
let attempt ctx (alt : 'a Alternative.t) =
  let snapshot = Option.map Address_space.fork (Engine.space ctx) in
  (* The snapshot fork cost is part of the trial. *)
  (match snapshot with
  | Some snap ->
    let c = Address_space.drain_cost snap in
    if c > 0. then Engine.delay ctx c
  | None -> ());
  let rollback () =
    match (Engine.space ctx, snapshot) with
    | Some sp, Some snap ->
      Address_space.absorb ~parent:sp ~child:snap;
      Engine.charge_memory ctx
    | _ -> ()
  and commit () = Option.iter Address_space.release snapshot in
  let fail reason =
    rollback ();
    Error reason
  in
  if not (alt.Alternative.guard ctx) then fail "guard failed"
  else
    match alt.Alternative.body ctx with
    | v ->
      Engine.charge_memory ctx;
      commit ();
      Ok v
    | exception Alternative.Failed r -> fail r

let run_first ctx alts =
  let rec go index = function
    | [] -> Block_failed "no alternative succeeded"
    | alt :: rest -> (
      match attempt ctx alt with
      | Ok value -> Selected { index; value }
      | Error _ -> go (index + 1) rest)
  in
  go 0 alts

let run_random ctx ~rng alts =
  match alts with
  | [] -> Block_failed "empty block"
  | _ ->
    let arr = Array.of_list alts in
    let index = Rng.int rng (Array.length arr) in
    (match attempt ctx arr.(index) with
    | Ok value -> Selected { index; value }
    | Error r -> Block_failed (Printf.sprintf "alternative %d failed: %s" index r))

let run_oracle ctx ~costs alts =
  match alts with
  | [] -> Block_failed "empty block"
  | _ ->
    let arr = Array.of_list alts in
    if Array.length costs <> Array.length arr then
      invalid_arg "Alt_block.run_oracle: costs/alternatives length mismatch";
    let best = ref 0 in
    Array.iteri (fun i (c : float) -> if c < costs.(!best) then best := i) costs;
    let index = !best in
    (match attempt ctx arr.(index) with
    | Ok value -> Selected { index; value }
    | Error r -> Block_failed (Printf.sprintf "alternative %d failed: %s" index r))
