type t =
  | Unit
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Pair of t * t
  | List of t list

let rec size_bytes = function
  | Unit -> 1
  | Bool _ -> 1
  | Int _ -> 8
  | Float _ -> 8
  | Str s -> 4 + String.length s
  | Pair (a, b) -> 2 + size_bytes a + size_bytes b
  | List l -> 4 + List.fold_left (fun acc x -> acc + size_bytes x) 0 l

let equal = ( = )

let rec pp ppf = function
  | Unit -> Format.fprintf ppf "()"
  | Bool b -> Format.fprintf ppf "%b" b
  | Int i -> Format.fprintf ppf "%d" i
  | Float f -> Format.fprintf ppf "%g" f
  | Str s -> Format.fprintf ppf "%S" s
  | Pair (a, b) -> Format.fprintf ppf "(%a, %a)" pp a pp b
  | List l ->
    Format.fprintf ppf "[%a]"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") pp)
      l

let to_string t = Format.asprintf "%a" pp t

let int i = Int i
let str s = Str s
let pair a b = Pair (a, b)

let get_int = function Int i -> i | _ -> invalid_arg "Payload.get_int"
let get_str = function Str s -> s | _ -> invalid_arg "Payload.get_str"
let get_pair = function Pair (a, b) -> (a, b) | _ -> invalid_arg "Payload.get_pair"
