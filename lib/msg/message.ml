type t = {
  sender : Pid.t;
  dest : Pid.t;
  predicate : Predicate.t;
  payload : Payload.t;
  tag : string;
  seq : int;
  size : int;
}

let header_bytes = 32

let pp ppf t =
  Format.fprintf ppf "%a->%a #%d %s%s%a %a" Pid.pp t.sender Pid.pp t.dest t.seq
    t.tag
    (if t.tag = "" then "" else " ")
    Predicate.pp t.predicate Payload.pp t.payload
