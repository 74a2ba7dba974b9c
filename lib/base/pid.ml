type t = int

let equal = Int.equal
let compare = Int.compare
let to_int t = t
let of_int n = n
let pp ppf t = Format.fprintf ppf "P%d" t
let to_string t = Format.asprintf "%a" pp t

module Set = Set.Make (Int)
module Map = Map.Make (Int)

module Allocator = struct
  type nonrec t = { mutable next : int; first : int }

  let create ?(first = 0) () = { next = first; first }

  let fresh a =
    let pid = a.next in
    a.next <- a.next + 1;
    pid

  let allocated a = a.next - a.first
  let issued a pid = pid >= a.first && pid < a.next
  let reset a = a.next <- a.first
end
