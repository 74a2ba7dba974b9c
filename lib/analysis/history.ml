type exit_class =
  | Ok_exit
  | Failed_exit of string
  | Crashed_exit of string
  | Eliminated_exit of string

let classify_exit s =
  let after prefix =
    let n = String.length prefix in
    if String.starts_with ~prefix s then
      Some (String.sub s n (String.length s - n))
    else None
  in
  if s = "ok" then Ok_exit
  else
    match (after "failed: ", after "crashed: ", after "eliminated: ") with
    | Some r, _, _ -> Failed_exit r
    | _, Some r, _ -> Crashed_exit r
    | _, _, Some r -> Eliminated_exit r
    | None, None, None -> invalid_arg ("History.classify_exit: " ^ s)

(* Every list is kept newest first and reversed when read. *)
type t = {
  names : (Pid.t, string) Hashtbl.t;
  exits : (Pid.t, string) Hashtbl.t;  (* one binding per Exited event *)
  sent_tags : (string, int) Hashtbl.t;  (* Sent events per message tag *)
  mutable sync_wins : (Pid.t * int * int) list;
  mutable sync_lates : (Pid.t * int) list;
  mutable absorbs : (Pid.t * Pid.t) list;
  mutable accepts : (Pid.t * Predicate.t * Message.t) list;
  mutable fates : (Pid.t * Predicate.fate) list;
  mutable kills : (Pid.t * string) list;
  mutable injections : (string * Pid.t option * Message.t option) list;
  mutable site_crashes : string list;
  mutable recoveries : (Pid.t * Pid.t * int) list;
  mutable partitions : int;
  mutable heals : int;
}

let create () =
  { names = Hashtbl.create 32; exits = Hashtbl.create 32;
    sent_tags = Hashtbl.create 8; sync_wins = []; sync_lates = [];
    absorbs = []; accepts = []; fates = []; kills = []; injections = [];
    site_crashes = []; recoveries = []; partitions = 0; heals = 0 }

let on_event t = function
  | Trace.Spawned { pid; name; _ } -> Hashtbl.replace t.names pid name
  | Trace.Exited { pid; status } -> Hashtbl.add t.exits pid status
  | Trace.Sync_won { pid; index; epoch } ->
    t.sync_wins <- (pid, index, epoch) :: t.sync_wins
  | Trace.Sync_late { pid; index } ->
    t.sync_lates <- (pid, index) :: t.sync_lates
  | Trace.Absorbed { parent; child } ->
    t.absorbs <- (parent, child) :: t.absorbs
  | Trace.Accepted { dest; msg; dest_pred } ->
    t.accepts <- (dest, dest_pred, msg) :: t.accepts
  | Trace.Fate { pid; fate } -> t.fates <- (pid, fate) :: t.fates
  | Trace.Killed { pid; reason } -> t.kills <- (pid, reason) :: t.kills
  | Trace.Sent { msg = { Message.tag; _ } } ->
    Hashtbl.replace t.sent_tags tag
      (1 + Option.value ~default:0 (Hashtbl.find_opt t.sent_tags tag))
  | Trace.Injected { kind; pid; msg } ->
    t.injections <- (kind, pid, msg) :: t.injections
  | Trace.Site_crashed { site } -> t.site_crashes <- site :: t.site_crashes
  | Trace.Recovered { failed; successor; epoch } ->
    t.recoveries <- (failed, successor, epoch) :: t.recoveries
  | Trace.Partitioned _ -> t.partitions <- t.partitions + 1
  | Trace.Healed _ -> t.heals <- t.heals + 1
  | _ -> ()  (* a kind outside [kinds]: only [replay] hands these over *)

let kinds =
  Trace.Kind.(
    spawned lor exited lor sent lor accepted lor killed lor fate lor absorbed
    lor sync_won lor sync_late lor injected lor site_crashed lor recovered
    lor partitioned lor healed)

let attach trace =
  let t = create () in
  ignore (Trace.subscribe trace kinds (on_event t));
  t

let replay events =
  let t = create () in
  List.iter (fun (_, e) -> on_event t e) events;
  t

let name_of t pid = Hashtbl.find_opt t.names pid

let exits_of t pid = List.rev (Hashtbl.find_all t.exits pid)

let sync_wins t = List.rev t.sync_wins
let sync_lates t = List.rev t.sync_lates
let absorbs t = List.rev t.absorbs
let accepts t = List.rev t.accepts
let fates t = List.rev t.fates
let kills t = List.rev t.kills
let injections t = List.rev t.injections
let site_crashes t = List.rev t.site_crashes
let recoveries t = List.rev t.recoveries
let partitions t = t.partitions
let heals t = t.heals
let faulted t = t.injections <> []

let count_sent_tag t ~tag =
  Option.value ~default:0 (Hashtbl.find_opt t.sent_tags tag)

let count_accept_tag t ~tag ~dest_ok =
  List.length
    (List.filter
       (fun (dest, _, m) -> m.Message.tag = tag && dest_ok dest)
       t.accepts)
