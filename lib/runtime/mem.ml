let space ctx =
  match Engine.space ctx with
  | Some sp -> sp
  | None -> invalid_arg "Mem: process has no address space"

let get ctx cell =
  let sp = space ctx in
  let v = Heap.get (Heap.view (Heap.create sp) sp) cell in
  Engine.charge_memory ctx;
  v

let set ctx cell v =
  let sp = space ctx in
  Heap.set (Heap.view (Heap.create sp) sp) cell v;
  Engine.charge_memory ctx

let read_bytes ctx ~addr ~len =
  let b = Address_space.read_bytes (space ctx) ~addr ~len in
  Engine.charge_memory ctx;
  b

let write_bytes ctx ~addr b =
  Address_space.write_bytes (space ctx) ~addr b;
  Engine.charge_memory ctx

let touch ctx ~addr ~len =
  Address_space.touch (space ctx) ~addr ~len;
  Engine.charge_memory ctx
