(* (map id, vpage) -> id of the frame last written there. *)
type writes = (int * int, int) Hashtbl.t

let record store =
  let w = Hashtbl.create 64 in
  Frame_store.add_observer store
    {
      Frame_store.on_write =
        (fun ~map ~vpage ~frame -> Hashtbl.replace w (map, vpage) frame);
      on_free = (fun ~frame:_ -> ());
      on_release = (fun ~map:_ -> ());
    };
  w

let written w sp =
  let id = Page_map.id (Address_space.map sp) in
  Hashtbl.fold
    (fun (map, vp) f acc -> if map = id then (vp, f) :: acc else acc)
    w []
  |> List.sort compare

let check_isolation w eng ~children ~scenario ~policy ~seed =
  let viol detail =
    Report.violation Report.Isolation ~scenario ~policy ~seed detail
  in
  let logs =
    List.filter_map
      (fun pid ->
        match Engine.space_of eng pid with
        | None -> None
        | Some sp -> Some (pid, written w sp))
      children
  in
  let violations = ref [] in
  let rec over_pairs = function
    | [] -> ()
    | (pid_a, log_a) :: rest ->
      List.iter
        (fun (pid_b, log_b) ->
          List.iter
            (fun (vpage, fid) ->
              if List.mem (vpage, fid) log_b then
                violations :=
                  viol
                    (Format.asprintf
                       "siblings %a and %a both wrote frame %d of virtual \
                        page %d without copy-on-write privatisation"
                       Pid.pp pid_a Pid.pp pid_b fid vpage)
                  :: !violations)
            log_a)
        rest;
      over_pairs rest
  in
  over_pairs logs;
  List.rev !violations

let check_sources src ~scenario ~policy ~seed =
  List.filter_map
    (fun (time, pid, line, certain) ->
      if certain then None
      else
        Some
          (Report.violation Report.Sources ~scenario ~policy ~seed
             (Format.asprintf
                "device %S: speculative process %a emitted %S at t=%.6f \
                 while its predicates were unresolved"
                (Source.name src) Pid.pp pid line time)))
    (Source.emissions src)
