type t =
  | Var of int
  | Atom of string
  | Int of int
  | Compound of string * t array

let compound f = function
  | [] -> Atom f
  | args -> Compound (f, Array.of_list args)

let nil = Atom "[]"
let cons h t = Compound (".", [| h; t |])

let of_list l = List.fold_right cons l nil

let to_list t =
  let rec go acc = function
    | Atom "[]" -> Some (List.rev acc)
    | Compound (".", [| h; tl |]) -> go (h :: acc) tl
    | _ -> None
  in
  go [] t

let functor_of = function
  | Atom f -> Some (f, 0)
  | Compound (f, args) -> Some (f, Array.length args)
  | Var _ | Int _ -> None

let rec equal a b =
  match (a, b) with
  | Var i, Var j -> i = j
  | Atom x, Atom y -> String.equal x y
  | Int x, Int y -> x = y
  | Compound (f, xs), Compound (g, ys) ->
    String.equal f g
    && Array.length xs = Array.length ys
    && Array.for_all2 equal xs ys
  | (Var _ | Atom _ | Int _ | Compound _), _ -> false

let vars t =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  let rec go = function
    | Var i ->
      if not (Hashtbl.mem seen i) then begin
        Hashtbl.replace seen i ();
        acc := i :: !acc
      end
    | Atom _ | Int _ -> ()
    | Compound (_, args) -> Array.iter go args
  in
  go t;
  List.rev !acc

let max_var t =
  let rec go m = function
    | Var i -> max m i
    | Atom _ | Int _ -> m
    | Compound (_, args) -> Array.fold_left go m args
  in
  go (-1) t

let rec rename ~offset = function
  | Var i -> Var (i + offset)
  | (Atom _ | Int _) as t -> t
  | Compound (f, args) -> Compound (f, Array.map (rename ~offset) args)

let infix_operators =
  [ "="; "\\="; "is"; "<"; ">"; "=<"; ">="; "=:="; "=\\="; "+"; "-"; "*"; "/"; "mod" ]

let pp_named ~names ppf t =
  let var_name i =
    match names i with Some s -> s | None -> "_" ^ string_of_int i
  in
  let rec go ppf = function
    | Var i -> Format.pp_print_string ppf (var_name i)
    | Atom s -> Format.pp_print_string ppf s
    | Int i -> Format.pp_print_int ppf i
    | Compound (".", [| _; _ |]) as t -> pp_list ppf t
    | Compound (f, [| a; b |]) when List.mem f infix_operators ->
      Format.fprintf ppf "%a %s %a" go_arg a f go_arg b
    | Compound (f, args) ->
      Format.fprintf ppf "%s(%a)" f
        (Format.pp_print_array
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           go)
        args
  and go_arg ppf t =
    (* Parenthesise nested operator applications for readability. *)
    match t with
    | Compound (f, [| _; _ |]) when List.mem f infix_operators ->
      Format.fprintf ppf "(%a)" go t
    | _ -> go ppf t
  and pp_list ppf t =
    let rec elems ppf = function
      | Atom "[]" -> ()
      | Compound (".", [| h; (Compound (".", _) as tl) |]) ->
        Format.fprintf ppf "%a, %a" go h elems tl
      | Compound (".", [| h; Atom "[]" |]) -> go ppf h
      | Compound (".", [| h; tl |]) -> Format.fprintf ppf "%a|%a" go h go tl
      | t -> go ppf t
    in
    Format.fprintf ppf "[%a]" elems t
  in
  go ppf t

let pp ppf t = pp_named ~names:(fun _ -> None) ppf t
let to_string t = Format.asprintf "%a" pp t
