type clause = { head : Term.t; body : Term.t option }
type item = Clause of clause | Query of Term.t

exception Parse_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Parse_error s)) fmt

(* Binary operator table: token -> (precedence, right_associative). In
   standard notation xfx operators have equal-precedence operands forbidden;
   we implement xfx as non-associative via left-climbing, which accepts a
   superset — fine for our purposes. *)
let binop = function
  | ":-" -> Some (1200, false)
  | ";" -> Some (1100, true)
  | "->" -> Some (1050, true)
  | "," -> Some (1000, true)
  | "=" | "\\=" | "is" | "<" | ">" | "=<" | ">=" | "=:=" | "=\\=" | "==" | "\\=="
    -> Some (700, false)
  | "+" | "-" -> Some (500, false)
  | "*" | "/" | "mod" -> Some (400, false)
  | _ -> None

type state = {
  mutable toks : Lexer.token list;
  vars : (string, int) Hashtbl.t;
  mutable next_var : int;
}

let peek st = match st.toks with [] -> Lexer.Eof | t :: _ -> t

let advance st =
  match st.toks with [] -> () | _ :: rest -> st.toks <- rest

let expect st tok what =
  if peek st = tok then advance st
  else fail "expected %s, found %a" what Lexer.pp_token (peek st)

let fresh_var st =
  let v = st.next_var in
  st.next_var <- v + 1;
  v

let named_var st name =
  if String.equal name "_" then fresh_var st
  else
    match Hashtbl.find_opt st.vars name with
    | Some v -> v
    | None ->
      let v = fresh_var st in
      Hashtbl.replace st.vars name v;
      v

(* Arguments and list elements live below the precedence of ','. *)
let arg_precedence = 999

let rec parse_expr st max_prec =
  let lhs = parse_primary st in
  climb st lhs max_prec

and climb st lhs max_prec =
  let op =
    (* Operators are symbolic ([Punct]) or alphabetic atoms ([is], [mod]). *)
    match peek st with
    | Lexer.Punct op -> Some op
    | Lexer.Atom op when binop op <> None -> Some op
    | _ -> None
  in
  match op with
  | Some op -> (
    match binop op with
    | Some (prec, right_assoc) when prec <= max_prec ->
      advance st;
      let rhs_max = if right_assoc then prec else prec - 1 in
      let rhs = parse_expr st rhs_max in
      climb st (Term.compound op [ lhs; rhs ]) max_prec
    | _ -> lhs)
  | None -> lhs

and parse_primary st =
  match peek st with
  | Lexer.Integer k ->
    advance st;
    Term.Int k
  | Lexer.Variable name ->
    advance st;
    Term.Var (named_var st name)
  | Lexer.Punct "-" ->
    (* Unary minus: constant-fold integers, else -(X). *)
    advance st;
    (match peek st with
    | Lexer.Integer k ->
      advance st;
      Term.Int (-k)
    | _ -> Term.compound "-" [ parse_expr st 200 ])
  | Lexer.Punct "\\+" ->
    (* Negation as failure, prefix, precedence 900 (fy). *)
    advance st;
    Term.compound "\\+" [ parse_expr st 900 ]
  | Lexer.Punct "(" ->
    advance st;
    let t = parse_expr st 1200 in
    expect st (Lexer.Punct ")") "')'";
    t
  | Lexer.Punct "[" ->
    advance st;
    parse_list st
  | Lexer.Punct "!" ->
    advance st;
    Term.Atom "!"
  | Lexer.Atom name ->
    advance st;
    if peek st = Lexer.Punct "(" then begin
      advance st;
      let args = parse_args st in
      expect st (Lexer.Punct ")") "')'";
      Term.compound name args
    end
    else Term.Atom name
  | tok -> fail "unexpected token %a" Lexer.pp_token tok

and parse_args st =
  let first = parse_expr st arg_precedence in
  if peek st = Lexer.Punct "," then begin
    advance st;
    first :: parse_args st
  end
  else [ first ]

and parse_list st =
  if peek st = Lexer.Punct "]" then begin
    advance st;
    Term.nil
  end
  else begin
    let elems = parse_args st in
    let tail =
      match peek st with
      | Lexer.Punct "|" ->
        advance st;
        let t = parse_expr st arg_precedence in
        t
      | _ -> Term.nil
    in
    expect st (Lexer.Punct "]") "']'";
    List.fold_right Term.cons elems tail
  end

let fresh_state toks = { toks; vars = Hashtbl.create 8; next_var = 0 }

let reset_clause_scope st =
  Hashtbl.reset st.vars;
  st.next_var <- 0

let parse_clause_body st =
  let body = parse_expr st 1200 in
  expect st Lexer.Dot "'.'";
  body

let parse_item st =
  match peek st with
  | Lexer.Punct "?-" ->
    advance st;
    Query (parse_clause_body st)
  | Lexer.Punct ":-" ->
    (* A directive; we treat it as a query as well. *)
    advance st;
    Query (parse_clause_body st)
  | _ -> (
    let head = parse_expr st 1200 in
    match head with
    | Term.Compound (":-", [| h; b |]) ->
      expect st Lexer.Dot "'.'";
      Clause { head = h; body = Some b }
    | _ ->
      expect st Lexer.Dot "'.'";
      Clause { head; body = None })

let program src =
  let st = fresh_state (Lexer.tokens src) in
  let rec go acc =
    if peek st = Lexer.Eof then List.rev acc
    else begin
      reset_clause_scope st;
      let item = parse_item st in
      go (item :: acc)
    end
  in
  go []

let query src =
  let st = fresh_state (Lexer.tokens src) in
  (match peek st with
  | Lexer.Punct "?-" -> advance st
  | _ -> ());
  let goal = parse_expr st 1200 in
  (match peek st with
  | Lexer.Dot -> advance st
  | Lexer.Eof -> ()
  | tok -> fail "trailing input after query: %a" Lexer.pp_token tok);
  let names = Hashtbl.fold (fun name v acc -> (v, name) :: acc) st.vars [] in
  (goal, List.sort compare names)
