type t = {
  engine : Engine.t;
  names : string array;
  members : (string, Pid.t list ref) Hashtbl.t;  (* per-site, newest first *)
  crashed : (string, unit) Hashtbl.t;
  mutable cuts : (string * string) list;  (* blocked unordered pairs *)
  mutable rr : int;  (* round-robin cursor for default placement *)
}

let tr t e = Trace.record (Engine.trace t.engine) ~time:(Engine.now t.engine) e

let names t = Array.to_list t.names

let known t site = Array.exists (String.equal site) t.names

let check_known t ~fn site =
  if not (known t site) then
    invalid_arg (Printf.sprintf "Sites.%s: unknown site %S" fn site)

let record_member t site pid =
  match Hashtbl.find_opt t.members site with
  | Some l -> l := pid :: !l
  | None -> Hashtbl.replace t.members site (ref [ pid ])

(* Placement: an explicit request wins; otherwise a process runs where its
   parent runs (a spawn is a local operation); parentless processes are
   spread round-robin. The cursor advances only on round-robin picks, and
   spawn order is deterministic, so placement is too. *)
let place t ~pid ~parent ~name:_ ~explicit =
  let site =
    match explicit with
    | Some s ->
      check_known t ~fn:"place" s;
      s
    | None -> (
      match Option.bind parent (Engine.site_of t.engine) with
      | Some s -> s
      | None ->
        let s = t.names.(t.rr mod Array.length t.names) in
        t.rr <- t.rr + 1;
        s)
  in
  record_member t site pid;
  Some site

let norm_pair a b = if String.compare a b <= 0 then (a, b) else (b, a)

let cut t a b =
  let p = norm_pair a b in
  List.exists (fun q -> q = p) t.cuts

let is_crashed t site = Hashtbl.mem t.crashed site

(* Delivery-time filter: a message is lost if either endpoint's site has
   crashed (in-flight traffic to or from a dead site never arrives) or if
   the link between the two sites is currently cut. Site-less processes
   (spawned before [create], if any) are unaffected. *)
let deliverable t msg ~dest =
  let eng = t.engine in
  let ssite = Engine.site_of eng msg.Message.sender in
  let dsite = Engine.site_of eng dest in
  let drop kind =
    tr t (Trace.Injected { kind; pid = Some dest; msg = Some msg });
    false
  in
  let crashed_end site =
    match site with Some s -> is_crashed t s | None -> false
  in
  if crashed_end ssite || crashed_end dsite then drop "site-drop"
  else
    match (ssite, dsite) with
    | Some a, Some b when (not (String.equal a b)) && cut t a b ->
      drop "partition-drop"
    | _ -> true

let create engine ~names =
  if names = [] then invalid_arg "Sites.create: no sites";
  let arr = Array.of_list names in
  Array.iteri
    (fun i s ->
      for j = i + 1 to Array.length arr - 1 do
        if String.equal s arr.(j) then
          invalid_arg (Printf.sprintf "Sites.create: duplicate site %S" s)
      done)
    arr;
  let t =
    {
      engine;
      names = arr;
      members = Hashtbl.create 8;
      crashed = Hashtbl.create 4;
      cuts = [];
      rr = 0;
    }
  in
  Engine.set_site_hook engine
    (Some (fun ~pid ~parent ~name ~explicit -> place t ~pid ~parent ~name ~explicit));
  Engine.set_delivery_fault engine (Some (fun msg ~dest -> deliverable t msg ~dest));
  t

let members t site =
  check_known t ~fn:"members" site;
  match Hashtbl.find_opt t.members site with
  | None -> []
  | Some l -> List.sort_uniq Pid.compare !l

let site_of t pid = Engine.site_of t.engine pid

let alive_sites t =
  Array.to_list t.names |> List.filter (fun s -> not (is_crashed t s))

let crashed_sites t =
  Array.to_list t.names |> List.filter (fun s -> is_crashed t s)

let crash t site =
  check_known t ~fn:"crash" site;
  if not (is_crashed t site) then begin
    Hashtbl.replace t.crashed site ();
    tr t (Trace.Site_crashed { site });
    (* Kill residents in pid order: iteration order must not depend on
       hash-table internals for the execution to replay byte-identically. *)
    List.iter
      (fun pid ->
        if Engine.alive t.engine pid then begin
          tr t (Trace.Injected { kind = "site-kill"; pid = Some pid; msg = None });
          Engine.kill t.engine pid ~reason:(Printf.sprintf "site %s crashed" site)
        end)
      (members t site)
  end

let check_groups t ~fn left right =
  if left = [] || right = [] then
    invalid_arg (Printf.sprintf "Sites.%s: empty site group" fn);
  List.iter (check_known t ~fn) left;
  List.iter (check_known t ~fn) right;
  List.iter
    (fun l ->
      if List.exists (String.equal l) right then
        invalid_arg
          (Printf.sprintf "Sites.%s: site %S on both sides of the cut" fn l))
    left

let cross_pairs left right =
  List.concat_map (fun l -> List.map (fun r -> norm_pair l r) right) left

let partition t ~left ~right =
  check_groups t ~fn:"partition" left right;
  let fresh =
    List.filter (fun p -> not (List.mem p t.cuts)) (cross_pairs left right)
  in
  t.cuts <- t.cuts @ fresh;
  tr t (Trace.Partitioned { left; right })

let heal t ~left ~right =
  check_groups t ~fn:"heal" left right;
  let gone = cross_pairs left right in
  t.cuts <- List.filter (fun p -> not (List.mem p gone)) t.cuts;
  tr t (Trace.Healed { left; right })

let partitioned t a b =
  check_known t ~fn:"partitioned" a;
  check_known t ~fn:"partitioned" b;
  cut t a b
