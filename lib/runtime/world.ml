type entry =
  | L_delay of float
  | L_now of float
  | L_recv of Message.t
  | L_recv_opt of Message.t option
  | L_sent
  | L_random of int64

type log = {
  mutable entries : entry list;  (* newest first *)
  mutable replay : entry list;  (* oldest first; non-empty while replaying *)
}

let not_cloneable = { entries = []; replay = [] }
let fresh () = { entries = []; replay = [] }
let cloneable l = l != not_cloneable
let logging l = l != not_cloneable && l.replay = []
let record l e = l.entries <- e :: l.entries

let replay_next l =
  match l.replay with
  | [] -> None
  | e :: rest ->
    l.replay <- rest;
    Some e

let clone l = { entries = l.entries; replay = List.rev l.entries }

(* [copies] is indexed by the logical pid; [reset] clears the pids below
   [extent], the only ones a split used. *)
type t = { mutable copies : Pid.t list array; mutable extent : int }

let create () = { copies = Array.make 16 []; extent = 0 }

let reset t =
  Array.fill t.copies 0 t.extent [];
  t.extent <- 0

let copies t pid =
  let l = Pid.to_int pid in
  if l >= 0 && l < t.extent then Array.unsafe_get t.copies l else []

let split t ~logical pid =
  let l = Pid.to_int logical and n = Array.length t.copies in
  if l >= n then begin
    let a = Array.make (max (2 * n) (l + 1)) [] in
    Array.blit t.copies 0 a 0 n;
    t.copies <- a
  end;
  t.extent <- max t.extent (l + 1);
  t.copies.(l) <- (match t.copies.(l) with [] -> [ logical; pid ] | cs -> cs @ [ pid ])

let rec without pid = function
  | [] -> []
  | c :: rest -> if Pid.equal c pid then rest else c :: without pid rest

let remove t pid ~logical =
  match copies t logical with
  | [] -> ()
  | cs -> t.copies.(Pid.to_int logical) <- without pid cs
