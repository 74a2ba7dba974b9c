type exit_class =
  | Ok_exit
  | Failed_exit of string
  | Crashed_exit of string
  | Eliminated_exit of string

let strip_prefix ~prefix s =
  if String.length s >= String.length prefix
     && String.sub s 0 (String.length prefix) = prefix
  then Some (String.sub s (String.length prefix)
               (String.length s - String.length prefix))
  else None

let classify_exit s =
  if s = "ok" then Ok_exit
  else
    match strip_prefix ~prefix:"failed: " s with
    | Some r -> Failed_exit r
    | None -> (
      match strip_prefix ~prefix:"crashed: " s with
      | Some r -> Crashed_exit r
      | None -> (
        match strip_prefix ~prefix:"eliminated: " s with
        | Some r -> Eliminated_exit r
        | None -> invalid_arg ("History.classify_exit: " ^ s)))

type t = {
  names : (Pid.t, string) Hashtbl.t;
  exits : (Pid.t, string list) Hashtbl.t;  (* statuses, oldest first *)
  sync_wins : (Pid.t * int * int) list;
  sync_lates : (Pid.t * int) list;
  absorbs : (Pid.t * Pid.t) list;
  accepts : (Pid.t * Predicate.t * Message.t) list;
  fates : (Pid.t * Predicate.fate) list;
  kills : (Pid.t * string) list;
  sent : Message.t list;
  injections : (string * Pid.t option * Message.t option) list;
  site_crashes : string list;
  recoveries : (Pid.t * Pid.t * int) list;
}

let of_trace trace =
  let names = Hashtbl.create 32 in
  let exits = Hashtbl.create 32 in
  let wins = ref [] and lates = ref [] and absorbs = ref [] in
  let accepts = ref [] and fates = ref [] and kills = ref [] in
  let sent = ref [] in
  let injections = ref [] in
  let site_crashes = ref [] in
  let recoveries = ref [] in
  List.iter
    (fun (_, e) ->
      match e with
      | Trace.Spawned { pid; name; _ } -> Hashtbl.replace names pid name
      | Trace.Exited { pid; status } ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt exits pid) in
        Hashtbl.replace exits pid (prev @ [ status ])
      | Trace.Sync_won { pid; index; epoch } ->
        wins := (pid, index, epoch) :: !wins
      | Trace.Sync_late { pid; index } -> lates := (pid, index) :: !lates
      | Trace.Absorbed { parent; child } ->
        absorbs := (parent, child) :: !absorbs
      | Trace.Accepted { dest; msg; dest_pred } ->
        accepts := (dest, dest_pred, msg) :: !accepts
      | Trace.Fate { pid; fate } -> fates := (pid, fate) :: !fates
      | Trace.Killed { pid; reason } -> kills := (pid, reason) :: !kills
      | Trace.Sent { msg } -> sent := msg :: !sent
      | Trace.Injected { kind; pid; msg } ->
        injections := (kind, pid, msg) :: !injections
      | Trace.Site_crashed { site } -> site_crashes := site :: !site_crashes
      | Trace.Recovered { failed; successor; epoch } ->
        recoveries := (failed, successor, epoch) :: !recoveries
      | Trace.Started _ | Trace.Delivered _
      | Trace.Ignored _ | Trace.Split _ | Trace.Fate_deferred _ | Trace.Sanitizer_flag _ | Trace.Note _
      | Trace.Partitioned _ | Trace.Healed _ | Trace.Degraded _ -> ())
    (Trace.events trace);
  {
    names;
    exits;
    sync_wins = List.rev !wins;
    sync_lates = List.rev !lates;
    absorbs = List.rev !absorbs;
    accepts = List.rev !accepts;
    fates = List.rev !fates;
    kills = List.rev !kills;
    sent = List.rev !sent;
    injections = List.rev !injections;
    site_crashes = List.rev !site_crashes;
    recoveries = List.rev !recoveries;
  }

let name_of t pid = Hashtbl.find_opt t.names pid
let exits_of t pid = Option.value ~default:[] (Hashtbl.find_opt t.exits pid)
let sync_wins t = t.sync_wins
let sync_lates t = t.sync_lates
let absorbs t = t.absorbs
let accepts t = t.accepts
let fates t = t.fates
let kills t = t.kills
let injections t = t.injections
let site_crashes t = t.site_crashes
let recoveries t = t.recoveries
let faulted t = t.injections <> []

let count_sent_tag t ~tag =
  List.length (List.filter (fun m -> m.Message.tag = tag) t.sent)

let count_accept_tag t ~tag ~dest_ok =
  List.length
    (List.filter
       (fun (dest, _, m) -> m.Message.tag = tag && dest_ok dest)
       t.accepts)
