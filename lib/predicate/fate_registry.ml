(* Pids are small dense ints handed out by the engine's allocator, so the
   fates live in a byte per pid: 0 undecided, 1 completed, 2 failed. *)
type t = {
  mutable fates : Bytes.t;
  mutable decided : int;
  mutable extent : int;  (* one past the largest pid recorded *)
  lookup : Pid.t -> Predicate.fate option;
      (* [fate] of this registry, built once so [normalize] allocates no
         closure per call. *)
}

let undecided = '\000'

let byte_of_fate = function
  | Predicate.Completed -> '\001'
  | Predicate.Failed -> '\002'

let fate_of_byte t i =
  if i < 0 || i >= Bytes.length t.fates then None
  else
    match Bytes.unsafe_get t.fates i with
    | '\001' -> Some Predicate.Completed
    | '\002' -> Some Predicate.Failed
    | _ -> None

let create () =
  let rec t =
    { fates = Bytes.make 16 undecided; decided = 0; extent = 0;
      lookup = (fun pid -> fate_of_byte t (Pid.to_int pid)) }
  in
  t

let fate t pid = fate_of_byte t (Pid.to_int pid)

let record t pid f =
  let i = Pid.to_int pid in
  if i < 0 then invalid_arg "Fate_registry.record: negative pid";
  let n = Bytes.length t.fates in
  if i >= n then begin
    let fates = Bytes.make (max (2 * n) (i + 1)) undecided in
    Bytes.blit t.fates 0 fates 0 n;
    t.fates <- fates
  end;
  let b = byte_of_fate f in
  let cur = Bytes.unsafe_get t.fates i in
  if cur = undecided then begin
    Bytes.unsafe_set t.fates i b;
    t.decided <- t.decided + 1;
    if i >= t.extent then t.extent <- i + 1
  end
  else if cur <> b then invalid_arg "Fate_registry.record: fate already decided"

let normalize t pred =
  (* Certain predicates (the overwhelmingly common case on the message
     path) and empty registries have nothing to resolve. *)
  if Predicate.is_certain pred || t.decided = 0 then pred
  else
    match Predicate.resolve_all pred ~fate:t.lookup with
    | Predicate.Unchanged -> pred
    | Predicate.Simplified p -> p
    | Predicate.Falsified -> Predicate.falsified

let resolution t ~pid pred =
  match fate t pid with
  | Some Predicate.Completed -> `Certain
  | Some Predicate.Failed -> `Dead
  | None when Predicate.is_certain pred -> `Certain
  | None -> (
    match Predicate.resolve_all pred ~fate:t.lookup with
    | Predicate.Unchanged -> `Pending
    | Predicate.Simplified p -> if Predicate.is_certain p then `Certain else `Pending
    | Predicate.Falsified -> `Dead)

let decided t = t.decided

let reset t =
  Bytes.fill t.fates 0 t.extent undecided;
  t.extent <- 0;
  t.decided <- 0
