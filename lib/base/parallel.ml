(* A fixed-size domain pool running one stream of items at a time. The
   caller emits items into a ring of [cap] slots; workers block on a
   condition variable until an item is unclaimed, claim it under the pool
   mutex, run it outside, and store its outcome in its slot. The caller
   consumes outcomes in emission order, and before emitting into a full
   ring it makes room: it consumes the oldest item if it has finished,
   runs an unclaimed one itself if there is one, and otherwise waits for
   a worker to finish. An item's exception is captured in its slot;
   after the first failure in emission order nothing more is consumed,
   every emitted item still runs, and the failure is re-raised once the
   stream has drained, so a raising item never poisons the pool. *)

type 'b outcome =
  | Pending  (* unclaimed, running, or the slot is free *)
  | Done of 'b
  | Raised of exn * Printexc.raw_backtrace

type ('a, 'b) stream = {
  work : 'a -> 'b;
  consume : 'a -> 'b -> unit;
  cap : int;  (* ring slots: item [i] lives in slot [i mod cap] *)
  mutable items : 'a array;  (* made on the first emit, from its item *)
  outcomes : 'b outcome array;
  mutable emitted : int;
  mutable next : int;  (* next unclaimed item *)
  mutable consumed : int;
  mutable failed : (exn * Printexc.raw_backtrace) option;
      (* the first failure in emission order, of an item or of [consume] *)
}

type packed = Stream : ('a, 'b) stream -> packed

type pool = {
  m : Mutex.t;
  work_ready : Condition.t;  (* an item was emitted, or stop was set *)
  progress : Condition.t;  (* an item finished while the caller waited *)
  retired : Condition.t;  (* the current stream drained *)
  mutable stream : packed option;
  mutable sleepers : int;  (* workers waiting on [work_ready] *)
  mutable caller_waits : bool;  (* the caller is waiting on [progress] *)
  mutable stop : bool;
  mutable domains : unit Domain.t list;
  jobs : int;
}

let default_jobs () = Domain.recommended_domain_count ()

(* Items a pipeline may have emitted and not yet consumed, per domain. *)
let window_per_job = 4

(* Claim and run the next unclaimed item of [s]. Called with [p.m]
   locked and [s.next < s.emitted]; returns with it locked. *)
let run_next p s =
  let i = s.next in
  s.next <- i + 1;
  let k = i mod s.cap in
  let x = s.items.(k) in
  Mutex.unlock p.m;
  let r =
    match s.work x with
    | v -> Done v
    | exception e -> Raised (e, Printexc.get_raw_backtrace ())
  in
  Mutex.lock p.m;
  s.outcomes.(k) <- r;
  if p.caller_waits then Condition.signal p.progress

let worker p () =
  Mutex.lock p.m;
  let rec loop () =
    match p.stream with
    | Some (Stream s) when s.next < s.emitted ->
      run_next p s;
      loop ()
    | Some _ | None ->
      if p.stop then Mutex.unlock p.m
      else begin
        p.sleepers <- p.sleepers + 1;
        Condition.wait p.work_ready p.m;
        p.sleepers <- p.sleepers - 1;
        loop ()
      end
  in
  loop ()

let create ~jobs =
  let p =
    {
      m = Mutex.create ();
      work_ready = Condition.create ();
      progress = Condition.create ();
      retired = Condition.create ();
      stream = None;
      sleepers = 0;
      caller_waits = false;
      stop = false;
      domains = [];
      jobs;
    }
  in
  p.domains <- List.init (jobs - 1) (fun _ -> Domain.spawn (worker p));
  p

let shutdown p =
  Mutex.lock p.m;
  p.stop <- true;
  Condition.broadcast p.work_ready;
  Mutex.unlock p.m;
  List.iter Domain.join p.domains;
  p.domains <- []

(* One step toward consuming the oldest unconsumed item, on the caller:
   consume it if it has finished, else run an unclaimed item, else wait
   for a worker to finish one. Called with [p.m] locked and
   [s.consumed < s.emitted]; returns with it locked. *)
let advance p s =
  let k = s.consumed mod s.cap in
  match s.outcomes.(k) with
  | Done v ->
    s.outcomes.(k) <- Pending;
    s.consumed <- s.consumed + 1;
    if Option.is_none s.failed then begin
      let x = s.items.(k) in
      Mutex.unlock p.m;
      (match s.consume x v with
       | () -> ()
       | exception e -> s.failed <- Some (e, Printexc.get_raw_backtrace ()));
      Mutex.lock p.m
    end
  | Raised (e, bt) ->
    s.outcomes.(k) <- Pending;
    s.consumed <- s.consumed + 1;
    if Option.is_none s.failed then s.failed <- Some (e, bt)
  | Pending ->
    if s.next < s.emitted then run_next p s
    else begin
      (* Every emitted item is claimed: a worker is running the oldest. *)
      p.caller_waits <- true;
      Condition.wait p.progress p.m;
      p.caller_waits <- false
    end

let emit p s x =
  Mutex.lock p.m;
  while s.emitted - s.consumed >= s.cap do
    advance p s
  done;
  if s.emitted = 0 then s.items <- Array.make s.cap x
  else s.items.(s.emitted mod s.cap) <- x;
  s.emitted <- s.emitted + 1;
  if p.sleepers > 0 then Condition.signal p.work_ready;
  Mutex.unlock p.m

let raise_failure = function
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

(* The one work loop every pool call goes through. *)
let run_stream p ~cap ~produce ~work ~consume =
  let s =
    {
      work;
      consume;
      cap;
      items = [||];
      outcomes = Array.make cap Pending;
      emitted = 0;
      next = 0;
      consumed = 0;
      failed = None;
    }
  in
  Mutex.lock p.m;
  if p.stop then begin
    Mutex.unlock p.m;
    invalid_arg "Parallel: pool is shut down"
  end;
  (* One stream at a time: a second caller (two top-level sweeps sharing
     the persistent pool) queues behind the current stream instead of
     corrupting it. Still not re-entrant from inside an item. *)
  while Option.is_some p.stream do
    Condition.wait p.retired p.m
  done;
  p.stream <- Some (Stream s);
  Mutex.unlock p.m;
  let produced =
    match produce ~emit:(fun x -> emit p s x) with
    | () -> None
    | exception e -> Some (e, Printexc.get_raw_backtrace ())
  in
  Mutex.lock p.m;
  while s.consumed < s.emitted do
    advance p s
  done;
  p.stream <- None;
  Condition.broadcast p.retired;
  Mutex.unlock p.m;
  (* Every item was emitted before [produce] raised, so an item's failure
     comes first in emission order. *)
  raise_failure s.failed;
  raise_failure produced

let sequential f n =
  if n = 0 then [||]
  else begin
    (* Explicit ascending loop: the determinism contract promises
       index-order evaluation, which Array.init does not. *)
    let a = Array.make n (f 0) in
    for i = 1 to n - 1 do
      a.(i) <- f i
    done;
    a
  end

(* ------------------------------------------------------------------ *)
(* The persistent shared pool: created on first use, reused by every
   subsequent call. Spawning a domain costs a systhread, a minor heap
   and a GC registration; the shared pool pays it once per process
   rather than once per serving run or sweep. The pool is resized
   (shutdown + recreate) only when a caller asks for a different worker
   count, which in practice happens at most once per process run. *)

let shared_mu = Mutex.create ()
let shared_pool : pool option ref = ref None

let shared ~jobs =
  Mutex.lock shared_mu;
  let p =
    match !shared_pool with
    | Some p when p.jobs = jobs && not p.stop -> p
    | prev ->
      (match prev with Some p -> shutdown p | None -> ());
      let p = create ~jobs in
      shared_pool := Some p;
      p
  in
  Mutex.unlock shared_mu;
  p

(* [n >= 2]: smaller maps take the sequential path. The window is the
   whole map, so [emit] never waits for room. *)
let map_indexed_pool p f n =
  let out = ref [||] in
  run_stream p ~cap:n
    ~produce:(fun ~emit ->
      for i = 0 to n - 1 do
        emit i
      done)
    ~work:f
    ~consume:(fun i v -> if i = 0 then out := Array.make n v else (!out).(i) <- v);
  !out

let map_indexed_shared ~jobs f n =
  if jobs < 1 then
    invalid_arg "Parallel.map_indexed_shared: jobs must be >= 1";
  if n < 0 then invalid_arg "Parallel.map_indexed_shared: negative length";
  if jobs = 1 || n <= 1 then sequential f n
  else map_indexed_pool (shared ~jobs) f n

let pipeline_shared ~jobs ~produce ~work ~consume =
  if jobs < 1 then invalid_arg "Parallel.pipeline_shared: jobs must be >= 1";
  if jobs = 1 then produce ~emit:(fun x -> consume x (work x))
  else
    run_stream (shared ~jobs) ~cap:(window_per_job * jobs) ~produce ~work
      ~consume
