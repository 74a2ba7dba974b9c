type t = { table : (string * int, Parser.clause list ref) Hashtbl.t }

let create () = { table = Hashtbl.create 64 }

(* Normalise a clause so its variables are 0..k densely (parser output
   already satisfies this, but clauses can also be built programmatically). *)
let normalise (c : Parser.clause) =
  let whole =
    match c.Parser.body with
    | None -> c.Parser.head
    | Some b -> Term.compound ":-" [ c.Parser.head; b ]
  in
  let vars = Term.vars whole in
  let map = Hashtbl.create 8 in
  List.iteri (fun i v -> Hashtbl.replace map v i) vars;
  let rec go = function
    | Term.Var v -> Term.Var (Hashtbl.find map v)
    | (Term.Atom _ | Term.Int _) as t -> t
    | Term.Compound (f, args) -> Term.Compound (f, Array.map go args)
  in
  match go whole with
  | Term.Compound (":-", [| h; b |]) -> { Parser.head = h; body = Some b }
  | h -> { Parser.head = h; body = None }

let add t clause =
  match Term.functor_of clause.Parser.head with
  | None -> invalid_arg "Database.add: clause head must be callable"
  | Some key ->
    let clause = normalise clause in
    match Hashtbl.find_opt t.table key with
    | Some l -> l := !l @ [ clause ]
    | None -> Hashtbl.replace t.table key (ref [ clause ])

let add_program t src =
  let items = Parser.program src in
  List.filter_map
    (function
      | Parser.Clause c ->
        add t c;
        None
      | Parser.Query g -> Some g)
    items

let clauses t ~name ~arity =
  match Hashtbl.find_opt t.table (name, arity) with
  | Some l -> !l
  | None -> []

let prelude =
  {|
append([], Ys, Ys).
append([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).

member(X, [X|_]).
member(X, [_|Xs]) :- member(X, Xs).

length([], 0).
length([_|Xs], N) :- length(Xs, M), N is M + 1.

reverse(Xs, Ys) :- rev_acc(Xs, [], Ys).
rev_acc([], Acc, Acc).
rev_acc([X|Xs], Acc, Ys) :- rev_acc(Xs, [X|Acc], Ys).

between(L, H, L) :- L =< H.
between(L, H, X) :- L < H, L1 is L + 1, between(L1, H, X).

last([X], X).
last([_|Xs], X) :- last(Xs, X).

nth0(0, [X|_], X).
nth0(N, [_|Xs], X) :- N > 0, M is N - 1, nth0(M, Xs, X).

select(X, [X|Xs], Xs).
select(X, [Y|Xs], [Y|Ys]) :- select(X, Xs, Ys).
|}

let with_prelude () =
  let t = create () in
  ignore (add_program t prelude);
  t
