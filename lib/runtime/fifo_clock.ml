(* Linear probing over a power-of-two capacity kept at most half full. A
   slot's key is its (sender, dest) pair, stored whole in two arrays; its
   clock lives in a [floatarray], so neither a read nor a write boxes a
   float. A slot is deleted by shifting the rest of its cluster back
   (no tombstones), so a probe stops at the first free slot. *)

type t = {
  now : floatarray;  (* the engine's clock cell *)
  reclaim : bool;
  mutable senders : int array;  (* [free] in a free slot *)
  mutable dests : int array;
  mutable clocks : floatarray;  (* [neg_infinity] in a free slot *)
  mutable count : int;
}

(* No sender's pid is negative: [slot] refuses one. *)
let free = -1

let create ~clock ~reclaim =
  {
    now = clock;
    reclaim;
    senders = [||];
    dests = [||];
    clocks = Float.Array.create 0;
    count = 0;
  }

(* Both ints mixed, so that one sender's pairs spread over the table. *)
let hash sender dest =
  let h = (sender * 0x2545F491) + dest in
  let h = (h lxor (h lsr 29)) * 0x4F6CDD1D in
  h lxor (h lsr 32)

let is_free (senders : int array) i = Array.unsafe_get senders i = free

(* The slot holding the pair, else the free slot where it belongs. A
   top-level loop, so the send path builds no closure. *)
let rec probe (senders : int array) (dests : int array) sender dest mask i =
  if
    is_free senders i
    || (Array.unsafe_get senders i = sender && Array.unsafe_get dests i = dest)
  then i
  else probe senders dests sender dest mask ((i + 1) land mask)

let find t sender dest =
  let mask = Array.length t.senders - 1 in
  probe t.senders t.dests sender dest mask (hash sender dest land mask)

let write t i ~sender ~dest clock =
  Array.unsafe_set t.senders i sender;
  Array.unsafe_set t.dests i dest;
  Float.Array.unsafe_set t.clocks i clock

(* Double the capacity (16 at first) and re-insert every pair. *)
let grow t =
  let senders = t.senders and dests = t.dests and clocks = t.clocks in
  let cap = max 16 (2 * Array.length senders) in
  t.senders <- Array.make cap free;
  t.dests <- Array.make cap 0;
  t.clocks <- Float.Array.make cap neg_infinity;
  for j = 0 to Array.length senders - 1 do
    if not (is_free senders j) then begin
      let sender = Array.unsafe_get senders j and dest = Array.unsafe_get dests j in
      write t (find t sender dest) ~sender ~dest (Float.Array.unsafe_get clocks j)
    end
  done

(* Empty slot [i], then walk the rest of its cluster and move back into
   the hole every entry whose probe path crosses it (Knuth's
   algorithm R), so that no probe meets a false end. *)
let delete t i =
  let mask = Array.length t.senders - 1 in
  let hole = ref i and j = ref ((i + 1) land mask) in
  while not (is_free t.senders !j) do
    let sender = Array.unsafe_get t.senders !j and dest = Array.unsafe_get t.dests !j in
    let home = hash sender dest land mask in
    if (!j - home) land mask >= (!j - !hole) land mask then begin
      write t !hole ~sender ~dest (Float.Array.unsafe_get t.clocks !j);
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  write t !hole ~sender:free ~dest:0 neg_infinity;
  t.count <- t.count - 1

(* Delete every pair whose clock has passed. A deletion may shift a later
   entry into slot [i], so [i] is looked at again; an entry shifted there
   from the front of the table (a cluster that wraps) was kept when it
   was passed, and is kept again. *)
let purge t =
  let now = Float.Array.get t.now Cpu.now_slot in
  let i = ref 0 in
  while !i < Array.length t.senders do
    if (not (is_free t.senders !i)) && Float.Array.unsafe_get t.clocks !i <= now then
      delete t !i
    else incr i
  done

(* Room for one more pair: reclaim the pairs whose clocks have passed,
   then double unless that left the table at most a quarter full, so
   that a purge is followed by at least a quarter of the capacity in
   inserts. *)
let make_room t =
  if t.reclaim then purge t;
  if 4 * (t.count + 1) > Array.length t.senders then grow t

let slot t ~sender ~dest =
  if sender < 0 then invalid_arg "Fifo_clock.slot: negative sender";
  if Array.length t.senders = 0 then grow t;
  let i = find t sender dest in
  if not (is_free t.senders i) then i
  else begin
    let i =
      if 2 * (t.count + 1) > Array.length t.senders then begin
        make_room t;
        find t sender dest
      end
      else i
    in
    write t i ~sender ~dest neg_infinity;
    t.count <- t.count + 1;
    i
  end

let get t i = Float.Array.get t.clocks i
let set t i v = Float.Array.set t.clocks i v

let reset t =
  Array.fill t.senders 0 (Array.length t.senders) free;
  Float.Array.fill t.clocks 0 (Float.Array.length t.clocks) neg_infinity;
  t.count <- 0
