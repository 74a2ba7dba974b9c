(* Byte-level access to an address space through its production
   accessors: [set_string] writes, and the low byte of [get_int] reads. *)

let set_u8 sp ~addr v = Address_space.set_string sp ~addr (String.make 1 (Char.chr v))
let get_u8 sp ~addr = Address_space.get_int sp ~addr land 0xff
let read sp ~addr ~len = String.init len (fun i -> Char.chr (get_u8 sp ~addr:(addr + i)))
