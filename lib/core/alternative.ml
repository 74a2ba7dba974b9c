type footprint = {
  writes : (int * int) list;
  reads_source : bool;
  writes_source : bool;
  endpoints : string list;
}

let pure =
  { writes = []; reads_source = false; writes_source = false; endpoints = [] }

let footprint ?(writes = []) ?(reads_source = false) ?(writes_source = false)
    ?(endpoints = []) () =
  { writes; reads_source; writes_source; endpoints }

type 'a t = {
  name : string;
  guard : Engine.ctx -> bool;
  body : Engine.ctx -> 'a;
  footprint : footprint option;
}

exception Failed of string

let make ?(name = "alt") ?(guard = fun _ -> true) ?footprint body =
  { name; guard; body; footprint }

let fixed ?(name = "fixed") ~cost v =
  make ~name ~footprint:pure (fun ctx ->
      Engine.delay ctx cost;
      v)
