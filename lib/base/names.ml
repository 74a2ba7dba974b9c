let indexed n f =
  let table = Array.init n f in
  fun i -> if i >= 0 && i < n then Array.unsafe_get table i else f i
