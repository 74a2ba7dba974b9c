(* The topology is index-based: site [i] is [names.(i)], and [labels.(i)]
   is the [Some names.(i)] every placement on it returns, boxed once. A
   process's site label is therefore usually one of [labels], and a
   physical comparison finds its index without reading a string. The
   hooks below are top-level functions over these arrays: a placement
   allocates its membership cell and nothing else, and a delivery
   verdict on healthy sites allocates nothing. *)
type t = {
  engine : Engine.t;
  trace : Trace.t;
  names : string array;
  name_list : string list;  (* [names], as given to [create] *)
  labels : string option array;  (* [Some names.(i)] *)
  members : Pid.t list array;  (* per site, newest first *)
  crashed : bool array;
  cut : bool array;
      (* n*n, symmetric: [cut.(i * n + j)] iff the link between sites
         [i] and [j] is cut. The diagonal is never set. *)
  mutable rr : int;  (* round-robin cursor for default placement *)
  site_hook :
    (pid:Pid.t -> parent:Pid.t option -> name:string -> explicit:string option ->
    string option)
    option;
  delivery_hook : (Message.t -> dest:Pid.t -> bool) option;
      (* The two hooks over this topology, boxed once: {!reset} installs
         them again without building either. *)
}

let count t = Array.length t.names
let names t = t.name_list

let rec name_index names s i =
  if i = Array.length names then -1
  else if String.equal (Array.unsafe_get names i) s then i
  else name_index names s (i + 1)

let rec label_index labels so i =
  if i = Array.length labels then -1
  else if Array.unsafe_get labels i == so then i
  else label_index labels so (i + 1)

(* The index of a site label, -1 for none or a site foreign to this
   topology. *)
let site_index t so =
  match so with
  | None -> -1
  | Some s ->
    let i = label_index t.labels so 0 in
    if i >= 0 then i else name_index t.names s 0

let index_exn t ~fn site =
  let i = name_index t.names site 0 in
  if i < 0 then invalid_arg (Printf.sprintf "Sites.%s: unknown site %S" fn site);
  i

let check_known t ~fn site = ignore (index_exn t ~fn site)

let place_on t i pid =
  t.members.(i) <- pid :: t.members.(i);
  Array.unsafe_get t.labels i

(* Placement: an explicit request wins; otherwise a process runs where its
   parent runs (a spawn is a local operation); parentless processes are
   spread round-robin. The cursor advances only on round-robin picks, and
   spawn order is deterministic, so placement is too. A parent placed on
   a site this topology does not know (one installed before it) passes
   its label on, unrecorded. *)
let place t ~pid ~parent ~name:_ ~explicit =
  match explicit with
  | Some s ->
    let i = site_index t explicit in
    if i < 0 then check_known t ~fn:"place" s;
    place_on t i pid
  | None -> (
    let inherited =
      match parent with None -> None | Some p -> Engine.site_of t.engine p
    in
    match inherited with
    | Some _ ->
      let i = site_index t inherited in
      if i >= 0 then place_on t i pid else inherited
    | None ->
      let i = t.rr mod Array.length t.names in
      t.rr <- t.rr + 1;
      place_on t i pid)

let is_cut t i j = Array.unsafe_get t.cut ((i * Array.length t.names) + j)

(* 0: delivered; 1: lost to a crashed end; 2: lost to a cut link. *)
let verdict t ~sender ~dest =
  let s = site_index t (Engine.site_of t.engine sender) in
  let d = site_index t (Engine.site_of t.engine dest) in
  if (s >= 0 && t.crashed.(s)) || (d >= 0 && t.crashed.(d)) then 1
  else if s >= 0 && d >= 0 && s <> d && is_cut t s d then 2
  else 0

let delivers t ~sender ~dest = verdict t ~sender ~dest = 0

(* Delivery-time filter: a message is lost if either endpoint's site has
   crashed (in-flight traffic to or from a dead site never arrives) or if
   the link between the two sites is currently cut. Site-less processes
   (spawned before [create], if any) are unaffected. *)
let deliverable t msg ~dest =
  match verdict t ~sender:msg.Message.sender ~dest with
  | 0 -> true
  | v ->
    if Trace.wants t.trace Trace.Kind.injected then
      Trace.record t.trace ~time:(Engine.now t.engine)
        (Trace.Injected
           {
             kind = (if v = 1 then "site-drop" else "partition-drop");
             pid = Some dest;
             msg = Some msg;
           });
    false

let install t =
  Engine.set_site_hook t.engine t.site_hook;
  Engine.set_delivery_fault t.engine t.delivery_hook

let create engine ~names =
  if names = [] then invalid_arg "Sites.create: no sites";
  let arr = Array.of_list names in
  let n = Array.length arr in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if String.equal arr.(i) arr.(j) then
        invalid_arg (Printf.sprintf "Sites.create: duplicate site %S" arr.(i))
    done
  done;
  let trace = Engine.trace engine in
  let labels = Array.map Option.some arr in
  let members = Array.make n [] in
  let crashed = Array.make n false in
  let cut = Array.make (n * n) false in
  let rec t =
    {
      engine;
      trace;
      names = arr;
      name_list = names;
      labels;
      members;
      crashed;
      cut;
      rr = 0;
      site_hook =
        Some (fun ~pid ~parent ~name ~explicit -> place t ~pid ~parent ~name ~explicit);
      delivery_hook = Some (fun msg ~dest -> deliverable t msg ~dest);
    }
  in
  install t;
  t

let reset t =
  Array.fill t.members 0 (Array.length t.members) [];
  Array.fill t.crashed 0 (Array.length t.crashed) false;
  Array.fill t.cut 0 (Array.length t.cut) false;
  t.rr <- 0;
  install t

let members t site =
  List.sort_uniq Pid.compare t.members.(index_exn t ~fn:"members" site)

let site_of t pid = Engine.site_of t.engine pid

let is_crashed t site =
  let i = name_index t.names site 0 in
  i >= 0 && t.crashed.(i)

let is_crashed_at t i = t.crashed.(i)
let label t i = t.labels.(i)

(* The sites whose crashed flag is [flag], in declaration order. *)
let sites_where t flag =
  let acc = ref [] in
  for i = Array.length t.names - 1 downto 0 do
    if t.crashed.(i) = flag then acc := t.names.(i) :: !acc
  done;
  !acc

let alive_sites t = sites_where t false
let crashed_sites t = sites_where t true

(* Kill the live ones of [pids] in order, each traced first. *)
let rec kill_residents t reason = function
  | [] -> ()
  | pid :: rest ->
    if Engine.alive t.engine pid then begin
      if Trace.wants t.trace Trace.Kind.injected then
        Trace.record t.trace ~time:(Engine.now t.engine)
          (Trace.Injected { kind = "site-kill"; pid = Some pid; msg = None });
      Engine.kill t.engine pid ~reason
    end;
    kill_residents t reason rest

let crash t site =
  let i = index_exn t ~fn:"crash" site in
  if not t.crashed.(i) then begin
    t.crashed.(i) <- true;
    if Trace.wants t.trace Trace.Kind.site_crashed then
      Trace.record t.trace ~time:(Engine.now t.engine) (Trace.Site_crashed { site });
    (* Kill residents in pid order, so the execution replays
       byte-identically whatever order they were placed in. *)
    kill_residents t
      (Printf.sprintf "site %s crashed" site)
      (List.sort_uniq Pid.compare t.members.(i))
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

(* Set every link between [left] and [right] to [v], both ways. *)
let set_cuts t left right v =
  let n = Array.length t.names in
  List.iter
    (fun l ->
      let i = name_index t.names l 0 in
      List.iter
        (fun r ->
          let j = name_index t.names r 0 in
          t.cut.((i * n) + j) <- v;
          t.cut.((j * n) + i) <- v)
        right)
    left

let partition t ~left ~right =
  check_groups t ~fn:"partition" left right;
  set_cuts t left right true;
  if Trace.wants t.trace Trace.Kind.partitioned then
    Trace.record t.trace ~time:(Engine.now t.engine) (Trace.Partitioned { left; right })

let heal t ~left ~right =
  check_groups t ~fn:"heal" left right;
  set_cuts t left right false;
  if Trace.wants t.trace Trace.Kind.healed then
    Trace.record t.trace ~time:(Engine.now t.engine) (Trace.Healed { left; right })

let partitioned t a b =
  let i = index_exn t ~fn:"partitioned" a in
  let j = index_exn t ~fn:"partitioned" b in
  i <> j && is_cut t i j
