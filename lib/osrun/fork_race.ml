type 'a outcome =
  | Winner of { index : int; value : 'a; elapsed : float }
  | All_failed of { elapsed : float }
  | Timed_out of { elapsed : float }

type child = {
  index : int;
  pid : int;
  fd : Unix.file_descr;
  buf : Buffer.t;
  mutable open_ : bool;
}

let kill_quietly pid =
  try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()

let reap_quietly pid =
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

(* The child computes, marshals the result onto its pipe, and exits without
   running the parent's at_exit handlers or flushing its stdio copies. *)
let spawn_child index f =
  let r, w = Unix.pipe ~cloexec:false () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let code =
      try
        let v = f () in
        let data = Marshal.to_bytes v [ Marshal.Closures ] in
        let len = Bytes.length data in
        let rec write_all off =
          if off < len then
            let n = Unix.write w data off (len - off) in
            write_all (off + n)
        in
        write_all 0;
        0
      with _ -> 1
    in
    (try Unix.close w with Unix.Unix_error _ -> ());
    Unix._exit code
  | pid ->
    Unix.close w;
    { index; pid; fd = r; buf = Buffer.create 256; open_ = true }

let run ?timeout alternatives =
  if alternatives = [] then invalid_arg "Fork_race.run: empty list";
  let t0 = Unix.gettimeofday () in
  let children = List.mapi spawn_child alternatives in
  let eliminate_all () =
    List.iter
      (fun c ->
        if c.open_ then begin
          c.open_ <- false;
          Unix.close c.fd
        end;
        kill_quietly c.pid;
        reap_quietly c.pid)
      children
  in
  let chunk = Bytes.create 65536 in
  let rec wait () =
    let open_fds =
      List.filter_map (fun c -> if c.open_ then Some c.fd else None) children
    in
    if open_fds = [] then begin
      let elapsed = Unix.gettimeofday () -. t0 in
      List.iter (fun c -> reap_quietly c.pid) children;
      All_failed { elapsed }
    end
    else begin
      let remaining =
        match timeout with
        | None -> -1.
        | Some limit -> limit -. (Unix.gettimeofday () -. t0)
      in
      if timeout <> None && remaining <= 0. then begin
        eliminate_all ();
        Timed_out { elapsed = Unix.gettimeofday () -. t0 }
      end
      else begin
        let readable, _, _ = Unix.select open_fds [] [] remaining in
        if readable = [] then begin
          eliminate_all ();
          Timed_out { elapsed = Unix.gettimeofday () -. t0 }
        end
        else begin
          let won =
            List.find_map
              (fun c ->
                if c.open_ && List.memq c.fd readable then begin
                  let n = Unix.read c.fd chunk 0 (Bytes.length chunk) in
                  if n > 0 then begin
                    Buffer.add_subbytes c.buf chunk 0 n;
                    None
                  end
                  else begin
                    (* EOF: the child has finished (or crashed). *)
                    c.open_ <- false;
                    Unix.close c.fd;
                    reap_quietly c.pid;
                    if Buffer.length c.buf > 0 then
                      match Marshal.from_bytes (Buffer.to_bytes c.buf) 0 with
                      | value -> Some (c.index, value)
                      | exception _ -> None (* truncated: child crashed mid-write *)
                    else None
                  end
                end
                else None)
              children
          in
          match won with
          | Some (index, value) ->
            let elapsed = Unix.gettimeofday () -. t0 in
            (* Sibling elimination. *)
            List.iter
              (fun c ->
                if c.open_ then begin
                  c.open_ <- false;
                  Unix.close c.fd;
                  kill_quietly c.pid;
                  reap_quietly c.pid
                end)
              children;
            Winner { index; value; elapsed }
          | None -> wait ()
        end
      end
    end
  in
  wait ()
