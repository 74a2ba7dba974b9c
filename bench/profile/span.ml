type layer =
  | Workload
  | Plan
  | Quota
  | Controller
  | Parallel
  | Batch
  | Engine_create
  | Sites
  | Sanitizer
  | Prepare
  | Concurrent
  | Supervised
  | Sequential
  | Invariants
  | Timeline
  | Digest

let name = function
  | Workload -> "workload"
  | Plan -> "server.plan"
  | Quota -> "quota"
  | Controller -> "controller"
  | Parallel -> "parallel"
  | Batch -> "batch"
  | Engine_create -> "engine.create"
  | Sites -> "sites"
  | Sanitizer -> "sanitizer"
  | Prepare -> "scenario.prepare"
  | Concurrent -> "concurrent"
  | Supervised -> "concurrent.supervised"
  | Sequential -> "alt_block.seq"
  | Invariants -> "invariants"
  | Timeline -> "server.timeline"
  | Digest -> "server.digest"

let now () = Int64.to_int (Monotonic_clock.now ())

(* A span's global id packs the recorder slot above its index. *)
let slot_shift = 40
let gid slot i = (slot lsl slot_shift) lor i
let slot_of g = g lsr slot_shift
let index_of g = g land ((1 lsl slot_shift) - 1)

type recorder = {
  slot : int;
  mutable len : int;
  mutable layer : layer array;
  mutable t0 : int array;
  mutable t1 : int array;
  mutable parent : int array;
  mutable rid : int array;
  mutable cur : int;
}

let initial_capacity = 1 lsl 14
let registry : recorder list ref = ref []
let registry_mu = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      Mutex.lock registry_mu;
      let r =
        {
          slot = List.length !registry;
          len = 0;
          layer = Array.make initial_capacity Workload;
          t0 = Array.make initial_capacity 0;
          t1 = Array.make initial_capacity 0;
          parent = Array.make initial_capacity 0;
          rid = Array.make initial_capacity 0;
          cur = -1;
        }
      in
      registry := r :: !registry;
      Mutex.unlock registry_mu;
      r)

let grow r =
  let extend a =
    let b = Array.make (2 * Array.length a) a.(0) in
    Array.blit a 0 b 0 r.len;
    b
  in
  r.layer <- extend r.layer;
  r.t0 <- extend r.t0;
  r.t1 <- extend r.t1;
  r.parent <- extend r.parent;
  r.rid <- extend r.rid

let enter layer ~rid =
  let r = Domain.DLS.get key in
  if r.len = Array.length r.layer then grow r;
  let i = r.len in
  r.len <- i + 1;
  r.layer.(i) <- layer;
  r.parent.(i) <- r.cur;
  r.rid.(i) <- rid;
  r.t1.(i) <- -1;
  r.cur <- gid r.slot i;
  r.t0.(i) <- now ();
  i

let leave i =
  let t = now () in
  let r = Domain.DLS.get key in
  r.t1.(i) <- t;
  r.cur <- r.parent.(i)

let wrap layer ~rid f =
  let h = enter layer ~rid in
  match f () with
  | v ->
      leave h;
      v
  | exception e ->
      leave h;
      raise e

let current () = (Domain.DLS.get key).cur

let under parent f =
  let r = Domain.DLS.get key in
  let saved = r.cur in
  r.cur <- parent;
  Fun.protect ~finally:(fun () -> r.cur <- saved) f

let recorders () =
  Mutex.lock registry_mu;
  let rs = List.sort (fun a b -> compare a.slot b.slot) !registry in
  Mutex.unlock registry_mu;
  rs

let reset () =
  List.iter
    (fun r ->
      r.len <- 0;
      r.cur <- -1)
    (recorders ())

type span = {
  id : int;
  layer : layer;
  start_ns : int;
  end_ns : int;
  parent : int;
  rid : int;
  domain : int;
  self_ns : int;
}

let spans () =
  List.concat_map
    (fun r ->
      let child_ns = Array.make r.len 0 in
      for i = 0 to r.len - 1 do
        if r.t1.(i) < 0 then
          failwith
            (Printf.sprintf "Span.spans: %s span still open"
               (name r.layer.(i)));
        let p = r.parent.(i) in
        if p >= 0 && slot_of p = r.slot then begin
          let j = index_of p in
          child_ns.(j) <- child_ns.(j) + (r.t1.(i) - r.t0.(i))
        end
      done;
      List.init r.len (fun i ->
          {
            id = gid r.slot i;
            layer = r.layer.(i);
            start_ns = r.t0.(i);
            end_ns = r.t1.(i);
            parent = r.parent.(i);
            rid = r.rid.(i);
            domain = r.slot;
            self_ns = r.t1.(i) - r.t0.(i) - child_ns.(i);
          }))
    (recorders ())
  |> Array.of_list

let to_jsonl buf ~prefix ~base_ns spans =
  Array.iter
    (fun s ->
      Printf.bprintf buf
        "{%s\"id\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%s,\"rid\":%d,\"domain\":%d,\"self_ns\":%d}\n"
        prefix s.id (name s.layer) (s.start_ns - base_ns) (s.end_ns - base_ns)
        (if s.parent < 0 then "null" else string_of_int s.parent)
        s.rid s.domain s.self_ns)
    spans
