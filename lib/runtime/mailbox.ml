(* A receiver's ring-buffer mailbox of immutable messages.

   Entries are addressed by *absolute* monotone positions: [head] is the
   first position that may still hold a live entry, [tail] is one past
   the newest. A position maps to a physical slot by masking with the
   (power-of-two) slot-array length, so positions survive growth and
   removal — the engine's per-tag receive cursors depend on that
   stability.

   A slot holds the sent [Message.t] itself: messages are immutable, so
   every copy of a send (world copies, an injected duplicate) shares the
   one value, and nothing a receiver does to its entry can reach another.
   Removal from the middle tombstones the slot in place; [head] advances
   only over leading tombstones. *)

type cursor = { ctag : string; mutable cpos : int }

type t = {
  mutable slots : Message.t array;  (* live message or [no_message] *)
  mutable head : int;
  mutable tail : int;
  mutable live : int;  (* live entries in [head, tail) *)
  mutable cursors : cursor list;  (* per-tag receive cursors *)
}

(* Sentinel for empty slots; compared physically. *)
let no_message : Message.t =
  {
    Message.sender = Pid.of_int (-1);
    dest = Pid.of_int (-1);
    predicate = Predicate.empty;
    payload = Payload.Unit;
    tag = "";
    seq = -1;
    size = 0;
  }

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (k * 2)

let create () = { slots = [||]; head = 0; tail = 0; live = 0; cursors = [] }

let none = create ()

let length t = t.live
let is_empty t = t.live = 0
let head_pos t = t.head
let tail_pos t = t.tail

let grow_to t ncap =
  let omask = Array.length t.slots - 1 and nmask = ncap - 1 in
  let nslots = Array.make ncap no_message in
  for pos = t.head to t.tail - 1 do
    (* Consecutive positions stay distinct mod the larger length, so live
       entries keep their absolute positions across growth. *)
    nslots.(pos land nmask) <- t.slots.(pos land omask)
  done;
  t.slots <- nslots

let reserve t extra =
  (* Size for a known burst in one step instead of climbing the growth
     ladder (each rung would allocate an intermediate array and re-home
     every live entry into it). *)
  let need = t.tail - t.head + extra in
  if need > Array.length t.slots then grow_to t (pow2_at_least need 8)

let push t m =
  (* Quadrupling (not doubling) keeps the total words ever allocated for
     slot arrays near 1.3x the final size: besides the message itself,
     they are the only per-entry heap cost of a deep burst. *)
  let cap = Array.length t.slots in
  if t.tail - t.head >= cap then grow_to t (if cap = 0 then 8 else cap * 4);
  Array.unsafe_set t.slots (t.tail land (Array.length t.slots - 1)) m;
  t.tail <- t.tail + 1;
  t.live <- t.live + 1

let message_at t pos =
  Array.unsafe_get t.slots (pos land (Array.length t.slots - 1))

let skip_tombstones t =
  while t.head < t.tail && message_at t t.head == no_message do
    t.head <- t.head + 1
  done

let remove t pos =
  let i = pos land (Array.length t.slots - 1) in
  if Array.unsafe_get t.slots i != no_message then begin
    Array.unsafe_set t.slots i no_message;
    t.live <- t.live - 1;
    skip_tombstones t
  end

(* Never a ring's cursor, and never written. *)
let no_cursor = { ctag = ""; cpos = 0 }

(* A top-level walk: an inner [find] would be a closure per receive. *)
let rec find_cursor t tag = function
  | [] ->
    let c = { ctag = tag; cpos = t.head } in
    t.cursors <- c :: t.cursors;
    c
  | c :: rest -> if String.equal c.ctag tag then c else find_cursor t tag rest

let cursor t tag = find_cursor t tag t.cursors

let copy_excluding t ~msg =
  let r = create () in
  reserve r t.live;
  for pos = t.head to t.tail - 1 do
    let m = message_at t pos in
    if m != no_message && m != msg then push r m
  done;
  r
