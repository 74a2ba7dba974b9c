type cores = Infinite | Cores of int

(* The [n] runnable tasks, sorted by pid so a tick's completions come out
   in pid order without a sort: task [i] is [pids.(i)], with [rem.(i)]
   seconds of demand left and payload [payloads.(i)]. Parallel arrays, so
   charging a task stores a double instead of boxing one. Nothing computed
   depends on the order of the loops over the tasks ([Float.min] is
   order-independent), except the order of a tick's completions.

   Every time is read from the engine's [clock] cell and the time of the
   last charge is kept in [last], a one-slot [floatarray]: a float read
   from a cell and passed to a function that is not inlined is boxed, and
   a float stored in a mixed record's mutable field is boxed at every
   store. *)
type ('p, 'e) t = {
  cores : cores;
  queue : 'e Event_queue.t;
  clock : floatarray;
  tick_ev : 'e;
  empty : 'p;
  mutable pids : int array;
  mutable rem : floatarray;
  mutable payloads : 'p array;
  mutable n : int;
  mutable finished : 'p array;  (* the last tick's, [empty] once taken *)
  mutable used : floatarray;  (* pid -> CPU seconds charged *)
  mutable extent : int;  (* one past the largest pid ever added *)
  last : floatarray;
}

let now_slot = 0
let demand_slot = 1

let create cores queue ~clock ~tick ~empty =
  {
    cores;
    queue;
    clock;
    tick_ev = tick;
    empty;
    pids = [||];
    rem = Float.Array.create 0;
    payloads = [||];
    n = 0;
    finished = [||];
    used = Float.Array.make 16 0.;
    extent = 0;
    last = Float.Array.make 1 0.;
  }

let now c = Float.Array.unsafe_get c.clock now_slot

let rate c =
  let n = c.n in
  if n = 0 then 1.0
  else
    match c.cores with
    | Infinite -> 1.0
    | Cores k -> Float.min 1.0 (float_of_int k /. float_of_int n)

let update c =
  let now = now c in
  let elapsed = now -. Float.Array.unsafe_get c.last 0 in
  if elapsed > 0. then begin
    let rate = rate c in
    let used = c.used and rem = c.rem in
    for i = 0 to c.n - 1 do
      let pid = c.pids.(i) in
      Float.Array.set rem i (Float.Array.get rem i -. (elapsed *. rate));
      Float.Array.set used pid (Float.Array.get used pid +. (elapsed *. rate))
    done
  end;
  Float.Array.unsafe_set c.last 0 now

let reschedule c =
  let now = now c in
  if c.n = 0 then Event_queue.clear_slot c.queue
  else begin
    let rate = rate c in
    let min_rem = ref infinity in
    for i = 0 to c.n - 1 do
      min_rem := Float.min !min_rem (Float.max 0. (Float.Array.get c.rem i))
    done;
    let at = now +. (!min_rem /. rate) in
    Event_queue.set_slot c.queue ~time:(Float.max at now) c.tick_ev
  end

let tick c =
  update c;
  (* Collect the finished tasks' payloads in ascending pid order, then
     compact the rest in place. *)
  let n = c.n in
  let rem = c.rem in
  if Array.length c.finished < Array.length c.payloads then
    c.finished <- Array.make (Array.length c.payloads) c.empty;
  let d = ref 0 in
  for i = 0 to n - 1 do
    if Float.Array.get rem i <= 1e-12 then begin
      c.finished.(!d) <- c.payloads.(i);
      incr d
    end
  done;
  (if !d > 0 then
    let k = ref 0 in
    for i = 0 to n - 1 do
      if not (Float.Array.get rem i <= 1e-12) then begin
        c.pids.(!k) <- c.pids.(i);
        Float.Array.set rem !k (Float.Array.get rem i);
        c.payloads.(!k) <- c.payloads.(i);
        incr k
      end
    done;
    Array.fill c.payloads !k (n - !k) c.empty;
    c.n <- !k);
  reschedule c;
  !d

let take_finished c i =
  let p = c.finished.(i) in
  c.finished.(i) <- c.empty;
  p

(* The index of [pid]'s task, or of the first task with a larger pid (its
   insertion point) when it has none. *)
let slot c pid =
  let i = ref 0 in
  while !i < c.n && c.pids.(!i) < pid do
    incr i
  done;
  !i

let add c pid p =
  let dt = Float.Array.unsafe_get c.clock demand_slot in
  update c;
  let pid = Pid.to_int pid in
  let len = Float.Array.length c.used in
  if pid >= len then begin
    let used = Float.Array.make (max (2 * len) (pid + 1)) 0. in
    Float.Array.blit c.used 0 used 0 len;
    c.used <- used
  end;
  if pid >= c.extent then c.extent <- pid + 1;
  let i = slot c pid in
  if i < c.n && c.pids.(i) = pid then begin
    Float.Array.set c.rem i dt;
    c.payloads.(i) <- p
  end
  else begin
    let n = c.n in
    if n = Array.length c.pids then begin
      let cap = max 8 (2 * n) in
      let pids = Array.make cap 0
      and rem = Float.Array.make cap 0.
      and payloads = Array.make cap c.empty in
      Array.blit c.pids 0 pids 0 n;
      Float.Array.blit c.rem 0 rem 0 n;
      Array.blit c.payloads 0 payloads 0 n;
      c.pids <- pids;
      c.rem <- rem;
      c.payloads <- payloads
    end;
    Array.blit c.pids i c.pids (i + 1) (n - i);
    Float.Array.blit c.rem i c.rem (i + 1) (n - i);
    Array.blit c.payloads i c.payloads (i + 1) (n - i);
    c.pids.(i) <- pid;
    Float.Array.set c.rem i dt;
    c.payloads.(i) <- p;
    c.n <- n + 1
  end;
  reschedule c

let remove c pid =
  let pid = Pid.to_int pid in
  let i = slot c pid in
  if i < c.n && c.pids.(i) = pid then begin
    update c;
    let n = c.n - 1 in
    Array.blit c.pids (i + 1) c.pids i (n - i);
    Float.Array.blit c.rem (i + 1) c.rem i (n - i);
    Array.blit c.payloads (i + 1) c.payloads i (n - i);
    c.payloads.(n) <- c.empty;
    c.n <- n;
    reschedule c
  end

let used c pid =
  let i = Pid.to_int pid in
  if i >= 0 && i < Float.Array.length c.used then Float.Array.get c.used i else 0.

let total c = Float.Array.fold_left ( +. ) 0. c.used

let reset c =
  Array.fill c.payloads 0 c.n c.empty;
  Array.fill c.finished 0 (Array.length c.finished) c.empty;
  c.n <- 0;
  Float.Array.fill c.used 0 c.extent 0.;
  c.extent <- 0;
  Float.Array.unsafe_set c.last 0 0.;
  Event_queue.clear_slot c.queue
