type event =
  | Spawned of { pid : Pid.t; parent : Pid.t option; name : string }
  | Started of Pid.t
  | Exited of { pid : Pid.t; status : string }
  | Sent of { msg : Message.t }
  | Delivered of { dest : Pid.t; msg : Message.t }
  | Accepted of { dest : Pid.t; msg : Message.t; dest_pred : Predicate.t }
  | Ignored of { dest : Pid.t; msg : Message.t; reason : string }
  | Split of { original : Pid.t; clone : Pid.t; on : Message.t }
  | Killed of { pid : Pid.t; reason : string }
  | Fate of { pid : Pid.t; fate : Predicate.fate }
  | Fate_deferred of Pid.t
  | Absorbed of { parent : Pid.t; child : Pid.t }
  | Sync_won of { pid : Pid.t; index : int; epoch : int }
  | Sync_late of { pid : Pid.t; index : int }
  | Injected of { kind : string; pid : Pid.t option; msg : Message.t option }
  | Degraded of { parent : Pid.t; reason : string }
  | Site_crashed of { site : string }
  | Partitioned of { left : string list; right : string list }
  | Healed of { left : string list; right : string list }
  | Recovered of { failed : Pid.t; successor : Pid.t; epoch : int }
  | Sanitizer_flag of { check : string; pid : Pid.t option; detail : string }
  | Note of string

(* One bit per constructor, in declaration order. *)
type mask = int

module Kind = struct
  let spawned = 1
  let started = 1 lsl 1
  let exited = 1 lsl 2
  let sent = 1 lsl 3
  let delivered = 1 lsl 4
  let accepted = 1 lsl 5
  let ignored = 1 lsl 6
  let split = 1 lsl 7
  let killed = 1 lsl 8
  let fate = 1 lsl 9
  let fate_deferred = 1 lsl 10
  let absorbed = 1 lsl 11
  let sync_won = 1 lsl 12
  let sync_late = 1 lsl 13
  let injected = 1 lsl 14
  let degraded = 1 lsl 15
  let site_crashed = 1 lsl 16
  let partitioned = 1 lsl 17
  let healed = 1 lsl 18
  let recovered = 1 lsl 19
  let sanitizer_flag = 1 lsl 20
  let note = 1 lsl 21
  let all = (1 lsl 22) - 1
end

let kind = function
  | Spawned _ -> Kind.spawned
  | Started _ -> Kind.started
  | Exited _ -> Kind.exited
  | Sent _ -> Kind.sent
  | Delivered _ -> Kind.delivered
  | Accepted _ -> Kind.accepted
  | Ignored _ -> Kind.ignored
  | Split _ -> Kind.split
  | Killed _ -> Kind.killed
  | Fate _ -> Kind.fate
  | Fate_deferred _ -> Kind.fate_deferred
  | Absorbed _ -> Kind.absorbed
  | Sync_won _ -> Kind.sync_won
  | Sync_late _ -> Kind.sync_late
  | Injected _ -> Kind.injected
  | Degraded _ -> Kind.degraded
  | Site_crashed _ -> Kind.site_crashed
  | Partitioned _ -> Kind.partitioned
  | Healed _ -> Kind.healed
  | Recovered _ -> Kind.recovered
  | Sanitizer_flag _ -> Kind.sanitizer_flag
  | Note _ -> Kind.note

type subscription = { s_mask : mask; s_f : event -> unit }

(* Fills the subscriber array's free slots. *)
let no_sub = { s_mask = 0; s_f = ignore }

(* The recorder is the subscriber with every bit set; the others sit in
   [subs.(0 .. nsubs - 1)], in subscription order. [mask] is the union
   of every subscriber's mask, plus [recording] when the trace has a
   recorder: the one word the engine's guards test. The dispatched
   event's time is in the one-slot [time] cell, so a record passes no
   boxed float; only the recorder's list and [pending] box it. *)
type t = {
  mutable events : (float * event) list;
  mutable mask : mask;
  mutable subs : subscription array;
  mutable nsubs : int;
  mutable busy : bool;  (* the subscribers are being called *)
  mutable pending : (float * event) list;  (* recorded meanwhile, newest first *)
  time : floatarray;
}

let recording = Kind.all + 1
let recorder = Kind.all lor recording

let create ?(enabled = true) () =
  { events = []; mask = (if enabled then recorder else 0); subs = [||];
    nsubs = 0; busy = false; pending = []; time = Float.Array.make 1 0. }

let now t = Float.Array.unsafe_get t.time 0

(* A trace keeps the recorder it was created with. *)
let remask t =
  let m = ref (if t.mask land recording <> 0 then recorder else 0) in
  for i = 0 to t.nsubs - 1 do
    m := !m lor t.subs.(i).s_mask
  done;
  t.mask <- !m

let reset t =
  t.events <- [];
  Array.fill t.subs 0 t.nsubs no_sub;
  t.nsubs <- 0;
  t.busy <- false;
  t.pending <- [];
  remask t

let wants t k = t.mask land k <> 0

let check_idle t =
  if t.busy then invalid_arg "Trace: subscriptions changed by a subscriber"

let subscription mask f = { s_mask = mask; s_f = f }

let rec index_of subs s i n =
  if i = n then -1 else if subs.(i) == s then i else index_of subs s (i + 1) n

let attach t s =
  check_idle t;
  if index_of t.subs s 0 t.nsubs >= 0 then invalid_arg "Trace.attach: attached";
  if t.nsubs = Array.length t.subs then begin
    let subs = Array.make (Int.max 4 (2 * t.nsubs)) no_sub in
    Array.blit t.subs 0 subs 0 t.nsubs;
    t.subs <- subs
  end;
  t.subs.(t.nsubs) <- s;
  t.nsubs <- t.nsubs + 1;
  remask t

let subscribe t mask f =
  let s = subscription mask f in
  attach t s;
  s

let unsubscribe t s =
  check_idle t;
  let i = index_of t.subs s 0 t.nsubs in
  if i >= 0 then begin
    Array.blit t.subs (i + 1) t.subs i (t.nsubs - i - 1);
    t.nsubs <- t.nsubs - 1;
    t.subs.(t.nsubs) <- no_sub;
    remask t
  end

let rec notify subs n e k i =
  if i < n then begin
    let s = subs.(i) in
    if s.s_mask land k <> 0 then s.s_f e;
    notify subs n e k (i + 1)
  end

(* Store and dispatch an event whose time is already in the cell. An
   event recorded while the subscribers are being called (the sanitizer
   traces its flags from inside its own callback) waits in [pending],
   its time boxed beside it, until every subscriber has seen the current
   one: all of them, the recorder included, see one stream in one
   order, and every subscriber reads the current event's time. *)
let rec deliver t e k =
  if t.mask land recording <> 0 then t.events <- (now t, e) :: t.events;
  if t.nsubs > 0 then dispatch t e k

and dispatch t e k =
  t.busy <- true;
  (match notify t.subs t.nsubs e k 0 with
  | () -> t.busy <- false
  | exception ex ->
    t.busy <- false;
    t.pending <- [];
    raise ex);
  match t.pending with
  | [] -> ()
  | queued ->
    t.pending <- [];
    replay t (List.rev queued)

(* Subscriptions cannot change while a subscriber runs, so a held event
   is still read by someone. *)
and replay t = function
  | [] -> ()
  | (time, e) :: rest ->
    Float.Array.unsafe_set t.time 0 time;
    deliver t e (kind e);
    replay t rest

(* Inlined into its callers, so the time goes from the caller's cell to
   the trace's without a box. *)
let[@inline] record t ~time e =
  let k = kind e in
  if t.mask land k <> 0 then
    if t.busy then t.pending <- (time, e) :: t.pending
    else begin
      Float.Array.unsafe_set t.time 0 time;
      deliver t e k
    end

let events t = List.rev t.events

let count t ~f =
  List.fold_left (fun n (_, e) -> if f e then n + 1 else n) 0 t.events

let pp_event ppf = function
  | Spawned { pid; parent; name } ->
    Format.fprintf ppf "spawn %a%s %s" Pid.pp pid
      (match parent with
      | None -> ""
      | Some p -> Format.asprintf " (parent %a)" Pid.pp p)
      name
  | Started pid -> Format.fprintf ppf "start %a" Pid.pp pid
  | Exited { pid; status } -> Format.fprintf ppf "exit %a: %s" Pid.pp pid status
  | Sent { msg } -> Format.fprintf ppf "send %a" Message.pp msg
  | Delivered { dest; msg } ->
    Format.fprintf ppf "deliver to %a: %a" Pid.pp dest Message.pp msg
  | Accepted { dest; msg; dest_pred } ->
    Format.fprintf ppf "accept by %a %a: %a" Pid.pp dest Predicate.pp dest_pred
      Message.pp msg
  | Ignored { dest; msg; reason } ->
    Format.fprintf ppf "ignore by %a (%s): %a" Pid.pp dest reason Message.pp msg
  | Split { original; clone; on } ->
    Format.fprintf ppf "split %a -> clone %a on %a" Pid.pp original Pid.pp clone
      Message.pp on
  | Killed { pid; reason } ->
    Format.fprintf ppf "kill %a (%s)" Pid.pp pid reason
  | Fate { pid; fate } ->
    Format.fprintf ppf "fate %a = %s" Pid.pp pid
      (match fate with Predicate.Completed -> "completed" | Predicate.Failed -> "failed")
  | Fate_deferred pid -> Format.fprintf ppf "fate deferred for %a" Pid.pp pid
  | Absorbed { parent; child } ->
    Format.fprintf ppf "absorb %a <- %a" Pid.pp parent Pid.pp child
  | Sync_won { pid; index; epoch } ->
    Format.fprintf ppf "sync won by %a (alternative %d%s)" Pid.pp pid index
      (if epoch = 0 then "" else Printf.sprintf ", epoch %d" epoch)
  | Sync_late { pid; index } ->
    Format.fprintf ppf "sync too late for %a (alternative %d)" Pid.pp pid index
  | Injected { kind; pid; msg } ->
    Format.fprintf ppf "inject %s%s%s" kind
      (match pid with
      | None -> ""
      | Some p -> Format.asprintf " %a" Pid.pp p)
      (match msg with
      | None -> ""
      | Some m -> Format.asprintf " %a" Message.pp m)
  | Degraded { parent; reason } ->
    Format.fprintf ppf "degrade %a to sequential (%s)" Pid.pp parent reason
  | Site_crashed { site } -> Format.fprintf ppf "site %s crashed" site
  | Partitioned { left; right } ->
    Format.fprintf ppf "partition {%s} | {%s}" (String.concat "," left)
      (String.concat "," right)
  | Healed { left; right } ->
    Format.fprintf ppf "heal {%s} | {%s}" (String.concat "," left)
      (String.concat "," right)
  | Recovered { failed; successor; epoch } ->
    Format.fprintf ppf "recover coordinator %a -> %a (epoch %d)" Pid.pp failed
      Pid.pp successor epoch
  | Sanitizer_flag { check; pid; detail } ->
    Format.fprintf ppf "sanitizer %s%s: %s" check
      (match pid with
      | None -> ""
      | Some p -> Format.asprintf " %a" Pid.pp p)
      detail
  | Note s -> Format.fprintf ppf "note: %s" s

(* ------------------------------------------------------------------ *)
(* JSONL export (hand-rolled: no JSON library in the dependency set).  *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_str s = "\"" ^ json_escape s ^ "\""

let json_str_list ss = "[" ^ String.concat "," (List.map json_str ss) ^ "]"
let json_pid p = string_of_int (Pid.to_int p)

let json_pid_list set =
  "[" ^ String.concat "," (List.map json_pid (Pid.Set.elements set)) ^ "]"

let json_pred p =
  Printf.sprintf "{\"completes\":%s,\"fails\":%s}"
    (json_pid_list (Predicate.must_complete p))
    (json_pid_list (Predicate.must_fail p))

let json_msg (m : Message.t) =
  Printf.sprintf
    "{\"sender\":%s,\"dest\":%s,\"tag\":%s,\"seq\":%d,\"predicate\":%s,\"payload\":%s}"
    (json_pid m.Message.sender) (json_pid m.Message.dest)
    (json_str m.Message.tag) m.Message.seq
    (json_pred m.Message.predicate)
    (json_str (Payload.to_string m.Message.payload))

let json_fields_of_event = function
  | Spawned { pid; parent; name } ->
    ( "spawned",
      Printf.sprintf "\"pid\":%s,\"parent\":%s,\"name\":%s" (json_pid pid)
        (match parent with None -> "null" | Some p -> json_pid p)
        (json_str name) )
  | Started pid -> ("started", Printf.sprintf "\"pid\":%s" (json_pid pid))
  | Exited { pid; status } ->
    ( "exited",
      Printf.sprintf "\"pid\":%s,\"status\":%s" (json_pid pid) (json_str status) )
  | Sent { msg } -> ("sent", Printf.sprintf "\"msg\":%s" (json_msg msg))
  | Delivered { dest; msg } ->
    ( "delivered",
      Printf.sprintf "\"dest\":%s,\"msg\":%s" (json_pid dest) (json_msg msg) )
  | Accepted { dest; msg; dest_pred } ->
    ( "accepted",
      Printf.sprintf "\"dest\":%s,\"dest_pred\":%s,\"msg\":%s" (json_pid dest)
        (json_pred dest_pred) (json_msg msg) )
  | Ignored { dest; msg; reason } ->
    ( "ignored",
      Printf.sprintf "\"dest\":%s,\"reason\":%s,\"msg\":%s" (json_pid dest)
        (json_str reason) (json_msg msg) )
  | Split { original; clone; on } ->
    ( "split",
      Printf.sprintf "\"original\":%s,\"clone\":%s,\"on\":%s" (json_pid original)
        (json_pid clone) (json_msg on) )
  | Killed { pid; reason } ->
    ( "killed",
      Printf.sprintf "\"pid\":%s,\"reason\":%s" (json_pid pid) (json_str reason) )
  | Fate { pid; fate } ->
    ( "fate",
      Printf.sprintf "\"pid\":%s,\"fate\":%s" (json_pid pid)
        (json_str
           (match fate with
           | Predicate.Completed -> "completed"
           | Predicate.Failed -> "failed")) )
  | Fate_deferred pid ->
    ("fate_deferred", Printf.sprintf "\"pid\":%s" (json_pid pid))
  | Absorbed { parent; child } ->
    ( "absorbed",
      Printf.sprintf "\"parent\":%s,\"child\":%s" (json_pid parent)
        (json_pid child) )
  | Sync_won { pid; index; epoch } ->
    ( "sync_won",
      Printf.sprintf "\"pid\":%s,\"index\":%d,\"epoch\":%d" (json_pid pid) index
        epoch )
  | Sync_late { pid; index } ->
    ( "sync_late",
      Printf.sprintf "\"pid\":%s,\"index\":%d" (json_pid pid) index )
  | Injected { kind; pid; msg } ->
    ( "injected",
      Printf.sprintf "\"kind\":%s,\"pid\":%s,\"msg\":%s" (json_str kind)
        (match pid with None -> "null" | Some p -> json_pid p)
        (match msg with None -> "null" | Some m -> json_msg m) )
  | Degraded { parent; reason } ->
    ( "degraded",
      Printf.sprintf "\"parent\":%s,\"reason\":%s" (json_pid parent)
        (json_str reason) )
  | Site_crashed { site } ->
    ("site_crashed", Printf.sprintf "\"site\":%s" (json_str site))
  | Partitioned { left; right } ->
    ( "partitioned",
      Printf.sprintf "\"left\":%s,\"right\":%s" (json_str_list left)
        (json_str_list right) )
  | Healed { left; right } ->
    ( "healed",
      Printf.sprintf "\"left\":%s,\"right\":%s" (json_str_list left)
        (json_str_list right) )
  | Recovered { failed; successor; epoch } ->
    ( "recovered",
      Printf.sprintf "\"failed\":%s,\"successor\":%s,\"epoch\":%d"
        (json_pid failed) (json_pid successor) epoch )
  | Sanitizer_flag { check; pid; detail } ->
    ( "sanitizer_flag",
      Printf.sprintf "\"check\":%s,\"pid\":%s,\"detail\":%s" (json_str check)
        (match pid with None -> "null" | Some p -> json_pid p)
        (json_str detail) )
  | Note s -> ("note", Printf.sprintf "\"text\":%s" (json_str s))

let event_to_json ~time e =
  let kind, fields = json_fields_of_event e in
  Printf.sprintf "{\"t\":%.9f,\"ev\":%s,%s}" time (json_str kind) fields

let to_jsonl t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (time, e) ->
      Buffer.add_string buf (event_to_json ~time e);
      Buffer.add_char buf '\n')
    (events t);
  Buffer.contents buf
