type t = {
  engine : Engine.t;
  pids : Pid.t array;  (* voter [i]'s pid, ascending *)
  n : int;
  owners : int array;  (* per voter: the pid it granted, -1 while free *)
  owner_epochs : int array;  (* per voter: the epoch of that grant *)
  floors : int array;  (* per voter: the minimum acceptable epoch *)
  vote_delay : float;
  mutable msg_count : int;
}

let tag_req = "vote_req"
let tag_rep = "vote_rep"

(* Boxed once, so a tagged send or receive builds no [Some]. *)
let tag_req_opt = Some tag_req
let tag_rep_opt = Some tag_rep

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
   would advance during replay and desynchronise.

   A reply is [Pair (Bool granted, Int round)]. The [Bool] is one of two
   shared constants and the [Int] is the request's own round block
   (payloads are immutable), so a reply builds only its pair. *)
let granted_yes = Payload.Bool true
let granted_no = Payload.Bool false

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
let vote t i requester ~epoch =
  if epoch > t.floors.(i) then t.floors.(i) <- epoch;
  let floor = t.floors.(i) in
  if epoch < floor then false
  else begin
    let owner = t.owners.(i) in
    if owner < 0 || t.owner_epochs.(i) < floor then begin
      (* Free, or held by a fenced-off incarnation: void. *)
      t.owners.(i) <- requester;
      t.owner_epochs.(i) <- epoch;
      true
    end
    else begin
      let same = owner = requester in
      if same && epoch > t.owner_epochs.(i) then t.owner_epochs.(i) <- epoch;
      same
    end
  end

let reply ctx t i m ~round ~epoch =
  if t.vote_delay > 0. then Engine.delay ctx t.vote_delay;
  let requester = m.Message.sender in
  let granted = vote t i (Pid.to_int requester) ~epoch in
  Engine.send ctx ?tag:tag_rep_opt requester
    (Payload.Pair ((if granted then granted_yes else granted_no), round));
  t.msg_count <- t.msg_count + 1

(* Voter [i]'s body, a top-level loop over its arguments. A malformed
   request is ignored, mirroring [rep_round]'s [-1] on the requester
   side: a garbled message must not consume the durable half of the 0-1
   semaphore. *)
let rec voter_loop t i ctx =
  let m = Engine.receive ctx ?tag:tag_req_opt () in
  t.msg_count <- t.msg_count + 1;
  (match m.Message.payload with
  | Payload.Int r as round when r >= 0 -> reply ctx t i m ~round ~epoch:0
  | Payload.Pair ((Payload.Int r as round), Payload.Int epoch)
    when r >= 0 && epoch >= 0 ->
    reply ctx t i m ~round ~epoch
  | _ -> ());
  voter_loop t i ctx

let crashed_voter_body ctx =
  (* Receives and drops everything: a crashed node is silent. *)
  let rec loop () =
    let _m = Engine.receive ctx () in
    loop ()
  in
  loop ()

let voter_name = Names.indexed 8 (Printf.sprintf "voter%d")
let crashed_voter_name = Names.indexed 8 (Printf.sprintf "voter%d(crashed)")

(* Spawn voter [i] under its pid. Round-robin sites spread the voters so
   a crash of any one site takes out as few as possible (a minority,
   whenever nodes > |sites| >= 2). *)
let spawn_voter t ~crashed ~sites i =
  let site =
    if Array.length sites = 0 then None else Some sites.(i mod Array.length sites)
  in
  let dead = List.mem i crashed in
  ignore
    (Engine.spawn_process t.engine ~pid:t.pids.(i) ~parent:None
       ~predicate:Predicate.empty ~space:None ~cloneable:false ~oblivious:true
       ~start_delay:0.
       ~name:(if dead then crashed_voter_name i else voter_name i)
       ~site
       (if dead then crashed_voter_body else fun ctx -> voter_loop t i ctx))

(* A round tallies its replies in a bitmask over the voter indices. *)
let max_nodes = Sys.int_size - 1

let create engine ~nodes ?(crashed = []) ?(vote_delay = 0.) ?(sites = []) () =
  if nodes < 1 then invalid_arg "Majority.create: nodes must be >= 1";
  if nodes > max_nodes then
    invalid_arg (Printf.sprintf "Majority.create: nodes must be at most %d" max_nodes);
  let t =
    {
      engine;
      pids = Engine.fresh_pids engine nodes;
      n = nodes;
      owners = Array.make nodes (-1);
      owner_epochs = Array.make nodes 0;
      floors = Array.make nodes 0;
      vote_delay;
      msg_count = 0;
    }
  in
  let sites = Array.of_list sites in
  for i = 0 to nodes - 1 do
    spawn_voter t ~crashed ~sites i
  done;
  t

let node_pids t = t.pids
let majority t = (t.n / 2) + 1

let fence t ~epoch =
  for i = 0 to t.n - 1 do
    if epoch > t.floors.(i) then t.floors.(i) <- epoch
  done

type verdict = Granted | Denied | No_quorum

(* One acquisition round: top-level functions taking every variable as
   an argument, since a local closure is built on every call. *)

(* Drain replies a previous, timed-out round left in the mailbox. They are
   from an older round by construction, but consuming them now also keeps
   the mailbox from growing across many retries. *)
let rec drain ctx =
  match Engine.receive_timeout ctx ?tag:tag_rep_opt ~timeout:0. () with
  | Some _ -> drain ctx
  | None -> ()

let request ctx t payload =
  for i = 0 to t.n - 1 do
    Engine.send ctx ?tag:tag_req_opt t.pids.(i) payload
  done

(* [p]'s bit in a round's [replied] mask: [1 lsl i] for voter [i], 0 for
   a pid that is none of this group's voters. *)
let voter_bit t p =
  let i = Pid.to_int p - Pid.to_int t.pids.(0) in
  if i >= 0 && i < t.n && Pid.equal t.pids.(i) p then 1 lsl i else 0

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
    | Some m ->
      let bit = voter_bit t m.Message.sender in
      if bit = 0 || replied land bit <> 0 then
        (* A duplicated reply (e.g. under fault injection): one voter, one
           vote. Counting it again would let [n/2 + 1] copies of a single
           grant manufacture a majority. A pid that is no voter of this
           group has no vote. *)
        collect ctx t ~round ~need ~reply_timeout ~grants ~replied ~replies
      else
        collect ctx t ~round ~need ~reply_timeout
          ~grants:(if rep_granted m then grants + 1 else grants)
          ~replied:(replied lor bit) ~replies:(replies + 1)

let acquire_verdict_epoch ctx t ~epoch ~reply_timeout =
  let round = Int64.to_int (Engine.random_bits ctx) land max_int in
  drain ctx;
  (* Every voter is sent the one payload. *)
  request ctx t (req_payload ~round ~epoch);
  collect ctx t ~round ~need:(majority t) ~reply_timeout ~grants:0 ~replied:0
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

(* The number of voters that granted [owner]. *)
let grants_to t owner =
  let c = ref 0 in
  Array.iter (fun o -> if o = owner then incr c) t.owners;
  !c

let owner t =
  let found = ref None in
  Array.iter
    (fun o -> if o >= 0 && grants_to t o >= majority t then found := Some (Pid.of_int o))
    t.owners;
  !found

let shutdown t =
  for i = 0 to t.n - 1 do
    Engine.kill t.engine t.pids.(i) ~reason:"consensus shutdown"
  done

let messages_sent t = t.msg_count
