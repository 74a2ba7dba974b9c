let record_bytes = 8

type store = {
  eng : Engine.t;
  space : Address_space.t;
  versions : int array;
  nrecords : int;
  mutable commit_count : int;
}

let create_store eng ~records =
  if records <= 0 then invalid_arg "Txn.create_store: records must be positive";
  let space =
    Address_space.create
      ~size_hint:(records * record_bytes)
      (Engine.frame_store eng) (Engine.model eng)
  in
  { eng; space; versions = Array.make records 0; nrecords = records;
    commit_count = 0 }

let check_key st key =
  if key < 0 || key >= st.nrecords then invalid_arg "Txn: key out of range"

let addr_of key = key * record_bytes

let get st ~key =
  check_key st key;
  Address_space.get_int st.space ~addr:(addr_of key)

let commits st = st.commit_count

type status = Active | Finished

type t = {
  st : store;
  snapshot : Address_space.t;
  reads : (int, int) Hashtbl.t;
  writes : (int, unit) Hashtbl.t;
  mutable status : status;
  mutable claimed : bool;
      (* A racing child's transaction is claimed by the parent at the
         instant it wins, which exempts it from the child's cleanup. *)
}

let charge ctx space =
  let c = Address_space.drain_cost space in
  if c > 0. then Engine.delay ctx c

let begin_ ctx st =
  let snapshot = Address_space.fork st.space in
  (* Until [begin_] returns, nothing else holds the snapshot. *)
  (match charge ctx snapshot with
  | () -> ()
  | exception e ->
    Address_space.release snapshot;
    raise e);
  {
    st;
    snapshot;
    reads = Hashtbl.create 8;
    writes = Hashtbl.create 8;
    status = Active;
    claimed = false;
  }

let check_active t =
  match t.status with
  | Active -> ()
  | Finished -> invalid_arg "Txn: transaction already finished"

let read _ctx t ~key =
  check_active t;
  check_key t.st key;
  if not (Hashtbl.mem t.reads key || Hashtbl.mem t.writes key) then
    Hashtbl.replace t.reads key t.st.versions.(key);
  Address_space.get_int t.snapshot ~addr:(addr_of key)

let write ctx t ~key value =
  check_active t;
  check_key t.st key;
  Address_space.set_int t.snapshot ~addr:(addr_of key) value;
  charge ctx t.snapshot;
  Hashtbl.replace t.writes key ()

type conflict = { key : int; read_version : int; committed_version : int }

let finish t =
  if t.status = Active then begin
    t.status <- Finished;
    Address_space.release t.snapshot
  end

let abort t = finish t

let sorted_keys tbl = Hashtbl.fold (fun k () acc -> k :: acc) tbl [] |> List.sort compare
let sorted_reads tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let commit ctx t =
  check_active t;
  (* Validation (Kung & Robinson): every record read must still be at the
     version this transaction saw. *)
  let conflict =
    List.find_map
      (fun (key, read_version) ->
        let committed_version = t.st.versions.(key) in
        if committed_version <> read_version then
          Some { key; read_version; committed_version }
        else None)
      (sorted_reads t.reads)
  in
  match conflict with
  | Some c ->
    finish t;
    Error c
  | None ->
    (* Write phase: apply the write set to the committed store. The write
       values are read out and the snapshot released first, so that the
       store's pages are no longer shared with it when they are updated in
       place (no spurious copy-on-write fault is charged). *)
    let writeback =
      List.map
        (fun key -> (key, Address_space.get_int t.snapshot ~addr:(addr_of key)))
        (sorted_keys t.writes)
    in
    finish t;
    List.iter
      (fun (key, v) ->
        Address_space.set_int t.st.space ~addr:(addr_of key) v;
        t.st.versions.(key) <- t.st.versions.(key) + 1)
      writeback;
    charge ctx t.st.space;
    t.st.commit_count <- t.st.commit_count + 1;
    Ok ()

let with_txn ctx st ?(retries = 3) f =
  let rec attempt budget =
    let t = begin_ ctx st in
    match f ctx t with
    | v -> (
      match commit ctx t with
      | Ok () -> Ok v
      | Error c -> if budget > 0 then attempt (budget - 1) else Error c)
    | exception e ->
      abort t;
      raise e
  in
  attempt retries

(* ------------------------------------------------------------------ *)
(* Competing transactions.                                              *)

type 'a competitor = { name : string; work : Engine.ctx -> t -> 'a }

let race ctx ?policy st competitors =
  if competitors = [] then invalid_arg "Txn.race: no competitors";
  let alternatives =
    List.map
      (fun comp ->
        Alternative.make ~name:comp.name (fun cctx ->
            let txn = begin_ cctx st in
            (* The competitor's transaction dies with its process — unless
               the parent claimed it at the win, which happens before the
               winning child exits. *)
            Engine.on_exit (Engine.engine cctx) (Engine.self cctx) (fun _ ->
                if not txn.claimed then abort txn);
            let v = comp.work cctx txn in
            (v, txn)))
      competitors
  in
  let r = Concurrent.run ctx ?policy alternatives in
  match r.Concurrent.outcome with
  | Alt_block.Block_failed m -> Alt_block.Block_failed m
  | Alt_block.Selected { index; value = v, txn } -> (
    (* Claim before any suspension: the winning child's cleanup runs after
       the parent resumes here. *)
    txn.claimed <- true;
    match commit ctx txn with
    | Ok () -> Alt_block.Selected { index; value = v }
    | Error _ ->
      (* An outside transaction interfered between the snapshot and the
         win; re-run the winner's work against fresh snapshots. *)
      let comp = List.nth competitors index in
      (match with_txn ctx st (fun c t -> comp.work c t) with
      | Ok v -> Alt_block.Selected { index; value = v }
      | Error c ->
        Alt_block.Block_failed
          (Printf.sprintf "winner %s could not commit (key %d)" comp.name
             c.key)))
