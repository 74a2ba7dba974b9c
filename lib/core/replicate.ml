type 'a quorum_result = {
  value : 'a option;
  agreeing : int;
  answered : int;
  crashed : int;
}

let run_quorum ?(equal = ( = )) ctx ~replicas body =
  if replicas < 1 then invalid_arg "Replicate.run_quorum: replicas < 1";
  let eng = Engine.engine ctx in
  let model = Engine.model eng in
  let my_space = Engine.space ctx in
  let my_pred = Engine.my_predicate ctx in
  let me = Engine.self ctx in
  let need = (replicas / 2) + 1 in
  let slots : 'a option array = Array.make replicas None in
  let exited = ref 0 in
  let crashed = ref 0 in
  let decided : unit Engine.Ivar.t = Engine.Ivar.create () in
  (* Tally after every replica exit; decide as soon as a strict majority
     agrees or no value can still reach one. *)
  let tally () =
    let groups : ('a * int ref) list ref = ref [] in
    Array.iter
      (function
        | None -> ()
        | Some v -> (
          match List.find_opt (fun (w, _) -> equal v w) !groups with
          | Some (_, c) -> incr c
          | None -> groups := (v, ref 1) :: !groups))
      slots;
    let best =
      List.fold_left
        (fun acc (v, c) ->
          match acc with
          | Some (_, c') when c' >= !c -> acc
          | _ -> Some (v, !c))
        None !groups
    in
    (best, !groups)
  in
  let check_decided () =
    let best, _ = tally () in
    let outstanding = replicas - !exited in
    match best with
    | Some (_, c) when c >= need -> ignore (Engine.Ivar.try_fill decided ())
    | _ ->
      (* Could the leading group still reach a majority? *)
      let leader = match best with Some (_, c) -> c | None -> 0 in
      if leader + outstanding < need then
        ignore (Engine.Ivar.try_fill decided ())
  in
  (* Spawn the replicas; each pays a fork and reports through its slot
     (standing in for the reply message, whose latency is charged). *)
  let setup = ref 0. in
  let child_spaces =
    Array.init replicas (fun _ ->
        match my_space with
        | Some sp ->
          let child = Address_space.fork sp in
          setup := !setup +. Address_space.drain_cost child;
          Some child
        | None ->
          setup := !setup +. model.Cost_model.fork_base;
          None)
  in
  (* The forks are ours until each replica is spawned with its own. *)
  (if !setup > 0. then
     match Engine.delay ctx !setup with
     | () -> ()
     | exception e ->
       Array.iter (Option.iter Address_space.release) child_spaces;
       raise e);
  let pids =
    Array.mapi
      (fun i space ->
        let pid =
          Engine.spawn eng ?space ~parent:me ~predicate:my_pred
            ~cloneable:false
            ~name:(Printf.sprintf "replica%d" i)
            (fun rctx ->
              let v = body rctx in
              Engine.charge_memory rctx;
              Engine.delay rctx model.Cost_model.msg_latency;
              slots.(i) <- Some v)
        in
        Engine.on_exit eng pid (fun st ->
            incr exited;
            (match st with
            | Engine.Exited_ok -> ()
            | Engine.Exited_failed _ | Engine.Crashed _ | Engine.Eliminated _ ->
              incr crashed);
            check_decided ());
        pid)
      child_spaces
  in
  Engine.Ivar.read ctx decided;
  let crashed_at_decision = !crashed in
  (* Eliminate stragglers: the quorum is decided, their answers can no
     longer matter. Their spaces are released at their exits. *)
  Array.iter
    (fun pid ->
      if Engine.alive eng pid then
        Engine.kill eng pid ~reason:"replica quorum decided")
    pids;
  let best, _ = tally () in
  let answered =
    Array.fold_left (fun a s -> if s <> None then a + 1 else a) 0 slots
  in
  match best with
  | Some (v, c) when c >= need ->
    { value = Some v; agreeing = c; answered; crashed = crashed_at_decision }
  | Some (_, c) ->
    { value = None; agreeing = c; answered; crashed = crashed_at_decision }
  | None ->
    { value = None; agreeing = 0; answered; crashed = crashed_at_decision }

let alternative ?equal ~replicas (alt : 'a Alternative.t) =
  {
    Alternative.name = Printf.sprintf "%s(x%d)" alt.Alternative.name replicas;
    guard = alt.Alternative.guard;
    body =
      (fun ctx ->
        let q = run_quorum ?equal ctx ~replicas alt.Alternative.body in
        match q.value with
        | Some v -> v
        | None ->
          raise
            (Alternative.Failed
               (Printf.sprintf "%s: no replica majority (%d/%d agreed)"
                  alt.Alternative.name q.agreeing replicas)));
    footprint = alt.Alternative.footprint;
  }
