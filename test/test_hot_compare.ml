(* The compiled libraries keep the polymorphic compare out of hot code.

   An [=] or [<] whose operands' type is not known to be [int] (or
   another base type) at the comparison compiles to a C call into the
   runtime's generic compare: [caml_equal], [caml_lessthan] and the
   rest. On an int walk that costs a call per element where an inline
   compare costs one instruction. This test reads every library archive
   with [nm -u -A] and fails if a module outside [cold] references one of
   those symbols. A function annotated over [int array] compares inline;
   remove the annotation and the module shows up here.

   The archives are the ones this executable was linked against (the
   test stanza names every library), found at [../lib] from the
   executable. *)

let check = Alcotest.check

let generic_compares =
  [
    "caml_equal"; "caml_notequal"; "caml_lessthan"; "caml_lessequal";
    "caml_greaterthan"; "caml_greaterequal"; "caml_compare";
  ]

(* Modules that may compare polymorphically, as "dir/module" under lib/,
   "dir/*" for a whole library. Post-mortem analysis, payloads,
   replication, the experiment tables,
   the Prolog interpreter and the transaction layer: none of them runs
   per event on a serving path. *)
let cold =
  [
    "analysis/invariants"; "analysis/campaign"; "analysis/race"; "msg/payload";
    "core/replicate"; "experiments/experiments"; "prolog/*"; "txn/txn";
  ]

let lib_dir = Filename.concat (Filename.dirname Sys.executable_name) "../lib"

(* Every [dir/archive.a] under [lib_dir]. *)
let archives () =
  Sys.readdir lib_dir |> Array.to_list |> List.sort String.compare
  |> List.concat_map (fun dir ->
         let d = Filename.concat lib_dir dir in
         if not (Sys.is_directory d) then []
         else
           Sys.readdir d |> Array.to_list |> List.sort String.compare
           |> List.filter (fun f -> Filename.check_suffix f ".a")
           |> List.map (fun f -> (dir, Filename.concat d f)))

let lines_of_process prog args =
  let ic = Unix.open_process_args_in prog (Array.of_list (prog :: args)) in
  let rec go acc =
    match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc
  in
  let lines = go [] in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> lines
  | _ -> Alcotest.failf "%s %s failed" prog (String.concat " " args)

let drop n s = String.sub s n (String.length s - n)

(* [(module, symbol)] for each undefined symbol of each object of the
   archive at [path] in [dir]; [module] is "dir/object". A line reads
   "path:object.o:    U symbol". *)
let undefined dir path =
  let prefix = path ^ ":" in
  lines_of_process "nm" [ "-u"; "-A"; path ]
  |> List.filter_map (fun line ->
         if not (String.starts_with ~prefix line) then None
         else
           let rest = drop (String.length prefix) line in
           match String.index_opt rest ':' with
           | None -> None
           | Some i ->
             let obj = Filename.remove_extension (String.sub rest 0 i) in
             match List.rev (String.split_on_char ' ' (drop (i + 1) rest)) with
             | sym :: _ -> Some (dir ^ "/" ^ obj, sym)
             | [] -> None)

let scan = lazy (List.concat_map (fun (dir, path) -> undefined dir path) (archives ()))
let modules () = List.sort_uniq String.compare (List.map fst (Lazy.force scan))

(* Allowlist entry [c] covers module [m]. *)
let covers c m =
  if String.ends_with ~suffix:"/*" c then
    String.starts_with ~prefix:(String.sub c 0 (String.length c - 1)) m
  else String.equal c m

let allowed m = List.exists (fun c -> covers c m) cold
let generic (_, sym) = List.mem sym generic_compares

(* The scan is not vacuous: it reads the hot modules, and it sees the
   compares the cold ones are known to make. *)
let test_scan_reads_the_archives () =
  let modules = modules () in
  List.iter
    (fun m -> check Alcotest.bool ("scanned " ^ m) true (List.mem m modules))
    [
      "analysis/vclock"; "analysis/sanitizer"; "predicate/predicate";
      "runtime/engine"; "core/concurrent"; "pages/page_map"; "serve/server";
    ];
  check Alcotest.bool "the cold modules' compares are seen" true
    (List.exists generic (Lazy.force scan))

let test_no_generic_compare_outside_cold () =
  let hot =
    List.filter (fun ((m, _) as r) -> generic r && not (allowed m)) (Lazy.force scan)
    |> List.map (fun (m, sym) -> m ^ ": " ^ sym)
    |> List.sort_uniq String.compare
  in
  check Alcotest.(list string) "polymorphic compares outside the cold allowlist" [] hot

(* Every allowlist entry covers a module that exists, so a renamed or
   deleted module leaves no stale entry to excuse whatever later takes
   its name. *)
let test_allowlist_names_modules () =
  let modules = modules () in
  List.iter
    (fun c ->
      check Alcotest.bool ("allowlisted " ^ c ^ " exists") true
        (List.exists (covers c) modules))
    cold

let () =
  Alcotest.run "hot_compare"
    [
      ( "guard",
        [
          Alcotest.test_case "the scan reads the archives" `Quick test_scan_reads_the_archives;
          Alcotest.test_case "no polymorphic compare outside the cold allowlist" `Quick
            test_no_generic_compare_outside_cold;
          Alcotest.test_case "every allowlist entry names a module" `Quick
            test_allowlist_names_modules;
        ] );
    ]
