(* A fixed-size domain pool. Workers block on a condition variable until
   a batch of indexed jobs is published, claim indices from a shared
   cursor under the pool mutex, and run the jobs outside it. Results land
   in a per-batch slot array (distinct indices, so no two domains ever
   write the same cell); exceptions are captured per job and re-raised in
   the caller, lowest index first, after the whole batch has drained —
   a raising job therefore never poisons the pool or loses siblings. *)

type batch = {
  run_job : int -> unit;  (* never raises: captures into its slot *)
  total : int;
  mutable next : int;  (* next unclaimed index *)
  mutable outstanding : int;  (* claimed or unclaimed jobs not yet finished *)
}

type pool = {
  m : Mutex.t;
  work_ready : Condition.t;  (* a batch was published, or stop was set *)
  batch_done : Condition.t;  (* outstanding reached 0 *)
  mutable batch : batch option;
  mutable stop : bool;
  mutable domains : unit Domain.t list;
  jobs : int;
}

let default_jobs () = Domain.recommended_domain_count ()

(* Claim and run jobs from [b] until its cursor is exhausted. Called with
   [p.m] locked; returns with it locked. *)
let drain_batch p b =
  while b.next < b.total do
    let i = b.next in
    b.next <- i + 1;
    Mutex.unlock p.m;
    b.run_job i;
    Mutex.lock p.m;
    b.outstanding <- b.outstanding - 1;
    if b.outstanding = 0 then begin
      p.batch <- None;
      Condition.broadcast p.batch_done
    end
  done

let worker p () =
  Mutex.lock p.m;
  let rec loop () =
    match p.batch with
    | Some b when b.next < b.total ->
      drain_batch p b;
      loop ()
    | Some _ (* exhausted; stragglers still running *) | None ->
      if p.stop then Mutex.unlock p.m
      else begin
        Condition.wait p.work_ready p.m;
        loop ()
      end
  in
  loop ()

let create ~jobs =
  let p =
    {
      m = Mutex.create ();
      work_ready = Condition.create ();
      batch_done = Condition.create ();
      batch = None;
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

let reraise_first slots =
  Array.iter
    (function
      | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
      | Some (Ok _) | None -> ())
    slots

(* [n >= 2]: smaller maps take the sequential path. *)
let map_indexed_pool p f n =
  let slots = Array.make n None in
  let run_job i =
    let r =
      match f i with
      | v -> Ok v
      | exception e -> Error (e, Printexc.get_raw_backtrace ())
    in
    slots.(i) <- Some r
  in
  let b = { run_job; total = n; next = 0; outstanding = n } in
  Mutex.lock p.m;
  if p.stop then begin
    Mutex.unlock p.m;
    invalid_arg "Parallel.map_indexed_shared: pool is shut down"
  end;
  (* One batch at a time: a second caller (two top-level sweeps sharing
     the persistent pool) queues behind the current batch instead of
     corrupting it. Still not re-entrant from inside a job. *)
  while p.batch <> None do
    Condition.wait p.batch_done p.m
  done;
  p.batch <- Some b;
  Condition.broadcast p.work_ready;
  (* The caller's domain is a worker too. *)
  drain_batch p b;
  while b.outstanding > 0 do
    Condition.wait p.batch_done p.m
  done;
  Mutex.unlock p.m;
  reraise_first slots;
  Array.map
    (function
      | Some (Ok v) -> v
      | Some (Error _) | None -> assert false (* reraise_first returned *))
    slots

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
   subsequent batch. Spawning a domain costs a systhread, a minor heap
   and a GC registration; the shared pool pays it once per process
   rather than once per serving batch or sweep. The pool is resized
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

let map_indexed_shared ~jobs f n =
  if jobs < 1 then
    invalid_arg "Parallel.map_indexed_shared: jobs must be >= 1";
  if n < 0 then invalid_arg "Parallel.map_indexed_shared: negative length";
  if jobs = 1 || n <= 1 then sequential f n
  else map_indexed_pool (shared ~jobs) f n
