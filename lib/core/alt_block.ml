type 'a outcome =
  | Selected of { index : int; value : 'a }
  | Block_failed of string

(* Run one alternative in the current process against the current sink
   state, rolling back on failure. Returns [Ok v] or [Error reason]. A
   body that calls [Engine.abort] has failed, as it has in a concurrent
   child; [Process_killed] is not a failure of the alternative and
   propagates. *)
let trial ctx (alt : 'a Alternative.t) snapshot =
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
    | exception (Alternative.Failed r | Engine.Abort_process r) -> fail r

(* The snapshot is the attempt's until commit releases it or rollback
   absorbs it: a process that leaves mid-attempt (killed, aborted or
   crashed) returns it. Release is idempotent, so an absorbed snapshot
   is left as it is. *)
let attempt ctx alt =
  let snapshot = Option.map Address_space.fork (Engine.space ctx) in
  match trial ctx alt snapshot with
  | r -> r
  | exception e ->
    Option.iter Address_space.release snapshot;
    raise e

let run_first ctx alts =
  let rec go index = function
    | [] -> Block_failed "no alternative succeeded"
    | alt :: rest -> (
      match attempt ctx alt with
      | Ok value -> Selected { index; value }
      | Error _ -> go (index + 1) rest)
  in
  go 0 alts
