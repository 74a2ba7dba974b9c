type t = {
  engine : Engine.t;
  pids : Pid.t list;
  n : int;
  grants : (Pid.t * int) option ref array;
      (* per-voter grant record: owner pid and the epoch it was granted at *)
  floors : int ref array;  (* per-voter minimum acceptable epoch *)
  msg_count : int ref;
}

let tag_req = "vote_req"
let tag_rep = "vote_rep"

(* Replies are stamped with the round id of the request they answer
   (in the payload, not the tag: the trace-level accounting of sync
   messages keys on the two tags above). A requester whose round timed
   out leaves that round's replies in its mailbox; without the stamp, a
   retried round would consume them as if they answered the new round's
   requests and could tally the same voter twice — enough
   manufactured "grants" to claim a majority it does not hold.

   The round id is a fresh draw from {!Engine.random_bits} rather than a
   per-requester counter: the engine records it in the deterministic
   replay log, so a world-split clone of a requester re-derives the very
   round id its logged replies carry. Counter state outside the log
   would advance during replay and desynchronise. *)
let rep_payload ~granted ~round = Payload.Pair (Payload.Bool granted, Payload.Int round)

let rep_round m =
  match m.Message.payload with
  | Payload.Pair (_, Payload.Int round) -> round
  | _ -> -1

let rep_granted m =
  match m.Message.payload with
  | Payload.Pair (Payload.Bool b, _) -> b
  | _ -> false

(* Epoch-0 requests keep the original one-field payload so that executions
   that never use coordinator recovery stay byte-identical to earlier
   releases; an incarnation epoch >= 1 rides in a second field. *)
let req_payload ~round ~epoch =
  if epoch = 0 then Payload.Int round
  else Payload.Pair (Payload.Int round, Payload.Int epoch)

let req_parts = function
  | Payload.Int round when round >= 0 -> Some (round, 0)
  | Payload.Pair (Payload.Int round, Payload.Int epoch)
    when round >= 0 && epoch >= 0 ->
    Some (round, epoch)
  | _ -> None

(* A voter grants its vote to the first requester it hears from and denies
   everyone else, forever: the grant is the durable half of the 0-1
   semaphore. Voters are oblivious kernel services (their receives bypass
   predicate matching): synchronisation is what resolves speculation, so it
   cannot itself be speculative.

   Epoch fencing (coordinator recovery): each voter keeps a floor, the
   lowest incarnation epoch it still serves. A request below the floor is
   denied outright — a stale incarnation cannot win after the watchdog has
   fenced it off — and a grant held at a below-floor epoch no longer counts
   as taken: the fenced incarnation's claim is void, so the slot is
   reassignable to the current incarnation. *)
let voter_body ~vote_delay ~grant_slot ~floor ~msg_count ctx =
  let rec loop () =
    let m = Engine.receive ctx ~tag:tag_req () in
    incr msg_count;
    (match req_parts m.Message.payload with
    | Some (round, epoch) ->
      if vote_delay > 0. then Engine.delay ctx vote_delay;
      let requester = m.Message.sender in
      if epoch > !floor then floor := epoch;
      let granted =
        if epoch < !floor then false
        else begin
          match !grant_slot with
          | None ->
            grant_slot := Some (requester, epoch);
            true
          | Some (_owner, owner_epoch) when owner_epoch < !floor ->
            (* The grant belongs to a fenced-off incarnation: void. *)
            grant_slot := Some (requester, epoch);
            true
          | Some (owner, owner_epoch) ->
            let same = Pid.equal owner requester in
            if same && epoch > owner_epoch then
              grant_slot := Some (owner, epoch);
            same
        end
      in
      Engine.send ctx ~tag:tag_rep requester (rep_payload ~granted ~round);
      incr msg_count
    | None ->
      (* Malformed request: ignore it, mirroring [rep_round]'s [-1] on the
         requester side. The vote is NOT granted — a garbled message must
         not consume the durable half of the 0-1 semaphore. *)
      ());
    loop ()
  in
  loop ()

let crashed_voter_body ctx =
  (* Receives and drops everything: a crashed node is silent. *)
  let rec loop () =
    let _m = Engine.receive ctx () in
    loop ()
  in
  loop ()

let voter_name = Names.indexed 8 (Printf.sprintf "voter%d")
let crashed_voter_name = Names.indexed 8 (Printf.sprintf "voter%d(crashed)")

let create engine ~nodes ?(crashed = []) ?(vote_delay = 0.) ?(sites = []) () =
  if nodes < 1 then invalid_arg "Majority.create: nodes must be >= 1";
  let msg_count = ref 0 in
  let grants = Array.init nodes (fun _ -> ref None) in
  let floors = Array.init nodes (fun _ -> ref 0) in
  let site_arr = Array.of_list sites in
  let site_of i =
    (* Round-robin spread so a crash of any one site takes out as few
       voters as possible (a minority, whenever nodes > |sites| >= 2). *)
    if Array.length site_arr = 0 then None
    else Some site_arr.(i mod Array.length site_arr)
  in
  let pids =
    List.init nodes (fun i ->
        if List.mem i crashed then
          Engine.spawn engine ~oblivious:true ~cloneable:false
            ~name:(crashed_voter_name i) ?site:(site_of i)
            crashed_voter_body
        else
          Engine.spawn engine ~oblivious:true ~cloneable:false
            ~name:(voter_name i) ?site:(site_of i)
            (voter_body ~vote_delay ~grant_slot:grants.(i) ~floor:floors.(i)
               ~msg_count))
  in
  { engine; pids; n = nodes; grants; floors; msg_count }

let node_pids t = t.pids
let nodes t = t.n
let majority t = (t.n / 2) + 1

let fence t ~epoch =
  Array.iter (fun floor -> if epoch > !floor then floor := epoch) t.floors

type verdict = Granted | Denied | No_quorum

(* One acquisition round: top-level functions taking every variable as
   an argument, since a local closure is built on every call. *)

let tag_req_opt = Some tag_req
let tag_rep_opt = Some tag_rep

(* Drain replies a previous, timed-out round left in the mailbox. They are
   from an older round by construction, but consuming them now also keeps
   the mailbox from growing across many retries. *)
let rec drain ctx =
  match Engine.receive_timeout ctx ?tag:tag_rep_opt ~timeout:0. () with
  | Some _ -> drain ctx
  | None -> ()

let rec request ctx payload = function
  | [] -> ()
  | voter :: rest ->
    Engine.send ctx ?tag:tag_req_opt voter payload;
    request ctx payload rest

(* [replied]: the voters already counted this round, at most [t.n]. *)
let rec counted p = function
  | [] -> false
  | q :: rest -> Pid.equal p q || counted p rest

let rec collect ctx t ~round ~need ~reply_timeout ~grants ~replied ~replies =
  if grants >= need then Granted
  else if grants + (t.n - replies) < need then
    (* Enough explicit denials arrived that a majority is arithmetically
       impossible even if every silent voter grants: the semaphore is (or
       is becoming) someone else's. Grants are permanent, so this is final
       — retrying cannot help. *)
    Denied
  else
    match Engine.receive_timeout ctx ?tag:tag_rep_opt ~timeout:reply_timeout () with
    | None ->
      (* Remaining voters are presumed crashed or partitioned; the outcome
         is undecided, and a retry may still reach them. *)
      No_quorum
    | Some m when rep_round m <> round ->
      (* A stale reply that raced the entry drain: it answers an older
         request, so it neither grants nor counts as this round's reply. *)
      collect ctx t ~round ~need ~reply_timeout ~grants ~replied ~replies
    | Some m when counted m.Message.sender replied ->
      (* A duplicated reply (e.g. under fault injection): one voter, one
         vote. Counting it again would let [n/2 + 1] copies of a single
         grant manufacture a majority. *)
      collect ctx t ~round ~need ~reply_timeout ~grants ~replied ~replies
    | Some m ->
      collect ctx t ~round ~need ~reply_timeout
        ~grants:(if rep_granted m then grants + 1 else grants)
        ~replied:(m.Message.sender :: replied) ~replies:(replies + 1)

let acquire_verdict_epoch ctx t ~epoch ~reply_timeout =
  let round = Int64.to_int (Engine.random_bits ctx) land max_int in
  drain ctx;
  (* Every voter is sent the one payload. *)
  request ctx (req_payload ~round ~epoch) t.pids;
  collect ctx t ~round ~need:(majority t) ~reply_timeout ~grants:0 ~replied:[]
    ~replies:0

(* Deterministic exponential backoff in virtual time: delay, then run a
   fresh round (fresh round id, so leftovers of this one are discarded by
   the round stamp). A retry is only worth taking if the backoff plus a
   full reply wait still fits inside the caller's deadline — a block-local
   retry budget must never overrun the request's remaining virtual-time
   budget, so a round that could not complete in time is not started and
   the undecided verdict is returned as-is. *)
let rec retry ctx t ~epoch ~deadline ~reply_timeout ~retries ~backoff k =
  match acquire_verdict_epoch ctx t ~epoch ~reply_timeout with
  | No_quorum when k < retries ->
    let wait = if backoff > 0. then backoff *. (2. ** float_of_int k) else 0. in
    if Engine.now_v ctx +. wait +. reply_timeout > deadline then No_quorum
    else begin
      if wait > 0. then Engine.delay ctx wait;
      retry ctx t ~epoch ~deadline ~reply_timeout ~retries ~backoff (k + 1)
    end
  | v -> v

let acquire_retry ctx t ?(epoch = 0) ?(deadline = infinity) ~reply_timeout
    ?(retries = 0) ?(backoff = 0.01) () =
  retry ctx t ~epoch ~deadline ~reply_timeout ~retries ~backoff 0

let owner t =
  let tally = Hashtbl.create 8 in
  Array.iter
    (fun slot ->
      match !slot with
      | None -> ()
      | Some (p, _) ->
        let c = Option.value ~default:0 (Hashtbl.find_opt tally p) in
        Hashtbl.replace tally p (c + 1))
    t.grants;
  Hashtbl.fold
    (fun p c acc -> if c >= majority t then Some p else acc)
    tally None

let shutdown t =
  List.iter (fun pid -> Engine.kill t.engine pid ~reason:"consensus shutdown") t.pids

let messages_sent t = !(t.msg_count)
