module IntMap = Map.Make (Int)

type t = Term.t IntMap.t

let empty = IntMap.empty

let bind s i t =
  if IntMap.mem i s then invalid_arg "Subst.bind: variable already bound";
  IntMap.add i t s

let rec walk s t =
  match t with
  | Term.Var i -> (
    match IntMap.find_opt i s with Some t' -> walk s t' | None -> t)
  | _ -> t

let rec resolve s t =
  match walk s t with
  | Term.Compound (f, args) -> Term.Compound (f, Array.map (resolve s) args)
  | t' -> t'

let restrict s ~vars =
  List.filter_map
    (fun v ->
      match walk s (Term.Var v) with
      | Term.Var v' when v' = v -> None
      | _ -> Some (v, resolve s (Term.Var v)))
    vars
