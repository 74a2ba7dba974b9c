(* Every value a library exports has a production caller.

   The library's interface is what [bin/], [bench/], [examples/] and the
   other library modules call. A value exported only for a test widens
   that interface for a reader and every refactor, and its test checks an
   entry point production never takes.

   This test reads the compiler's typed trees, as dune leaves them in the
   object directories under [_build/default]. Each [lib/] [.cmti] gives
   its top-level [val]s. Each production [.cmt] (the libraries, the
   executables of [bin/] and [examples/], and [bench/profile] apart from
   its test) gives the values it names, with a local module alias such
   as [module Prolog_term = Term] followed to the module it names. The
   test fails on an exported value that no module other than its own
   names, unless [exports.allow] lists it with a reason, and on an
   allowlist line whose value is gone or has gained a production caller,
   so the list may only shrink. *)

let check = Alcotest.check

let build_dir = Filename.concat (Filename.dirname Sys.executable_name) ".."

(* Every [.cmt] / [.cmti] under [dir], object directories included,
   sorted. *)
let rec annots dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then annots p
           else if Filename.check_suffix f ".cmt" || Filename.check_suffix f ".cmti" then [ p ]
           else [])

let is_test (cmt : Cmt_format.cmt_infos) =
  match cmt.cmt_sourcefile with
  | Some src -> String.starts_with ~prefix:"test_" (Filename.basename src)
  | None -> false

(* "Module.value" of each top-level value a library interface declares. *)
let exports =
  lazy
    (annots (Filename.concat build_dir "lib")
    |> List.filter (fun p -> Filename.check_suffix p ".cmti")
    |> List.concat_map (fun p ->
           let cmt = Cmt_format.read_cmt p in
           match cmt.cmt_annots with
           | Interface sg ->
             List.filter_map
               (fun (it : Typedtree.signature_item) ->
                 match it.sig_desc with
                 | Tsig_value vd -> Some (cmt.cmt_modname ^ "." ^ vd.val_name.txt)
                 | _ -> None)
               sg.sig_items
           | _ -> [])
    |> List.sort_uniq String.compare)

(* The ["Module.value"] names [str] refers to outside module [self], each
   path read through the structure's own module aliases. *)
let uses_of ~self (str : Typedtree.structure) =
  let aliases = Hashtbl.create 8 in
  let rec resolve (p : Path.t) : Path.t =
    match p with
    | Pident id -> (match Hashtbl.find_opt aliases id with Some q -> resolve q | None -> p)
    | Pdot (q, s) -> Pdot (resolve q, s)
    | _ -> p
  in
  let rec target (me : Typedtree.module_expr) =
    match me.mod_desc with
    | Tmod_ident (p, _) -> Some p
    | Tmod_constraint (me, _, _, _) -> target me
    | _ -> None
  in
  let found = ref [] in
  let module_binding it (mb : Typedtree.module_binding) =
    (match (mb.mb_id, target mb.mb_expr) with
    | Some id, Some p -> Hashtbl.replace aliases id p
    | _ -> ());
    Tast_iterator.default_iterator.module_binding it mb
  in
  let expr it (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (p, _, _) -> (
      match resolve p with
      | Pdot (Pident m, v) when Ident.global m && Ident.name m <> self ->
        found := (Ident.name m ^ "." ^ v) :: !found
      | _ -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with module_binding; expr } in
  it.structure it str;
  !found

(* Every name a production module refers to in another module, and the
   production modules read. *)
let production =
  lazy
    (let used = Hashtbl.create 4096 and modules = ref [] in
     List.concat_map
       (fun root -> annots (Filename.concat build_dir root))
       [ "lib"; "bin"; "bench"; "examples" ]
     |> List.iter (fun p ->
            if Filename.check_suffix p ".cmt" then
              let cmt = Cmt_format.read_cmt p in
              match cmt.cmt_annots with
              | Implementation str when not (is_test cmt) ->
                modules := cmt.cmt_modname :: !modules;
                List.iter
                  (fun v -> Hashtbl.replace used v ())
                  (uses_of ~self:cmt.cmt_modname str)
              | _ -> ());
     (used, List.sort_uniq String.compare !modules))

(* [exports.allow], compiled in as [Exports_allow.text]: "Module.value
   reason" per line; "#" starts a comment. *)
let allowlist =
  lazy
    (String.split_on_char '\n' Exports_allow.text
    |> List.filter_map (fun line ->
           let line = String.trim line in
           if line = "" || line.[0] = '#' then None
           else
             match String.index_opt line ' ' with
             | Some i ->
               Some (String.sub line 0 i, String.trim (String.sub line i (String.length line - i)))
             | None -> Some (line, "")))

let has_caller v = Hashtbl.mem (fst (Lazy.force production)) v

(* The scan is not vacuous: it reads the interfaces and every production
   root, and an alias's uses count for the module it names. *)
let test_scan_reads_the_build () =
  let exports = Lazy.force exports and _, modules = Lazy.force production in
  List.iter
    (fun v -> check Alcotest.bool ("exported " ^ v) true (List.mem v exports))
    [ "Engine.create"; "Server.run"; "Term.to_string" ];
  List.iter
    (fun m -> check Alcotest.bool ("read " ^ m) true (List.mem m modules))
    [ "Engine"; "Server"; "Dune__exe__Altcheck"; "Dune__exe__Altserve"; "Dune__exe__Quickstart";
      "Shadow"; "Dune__exe__Altprof" ];
  check Alcotest.bool "no test module read" false
    (List.exists (fun m -> String.starts_with ~prefix:"Test_" m) modules);
  (* A library module without an interface would export everything
     unaudited. *)
  let lib = annots (Filename.concat build_dir "lib") in
  List.iter
    (fun p ->
      if Filename.check_suffix p ".cmt" then
        check Alcotest.bool (p ^ " has an interface") true (List.mem (p ^ "i") lib))
    lib;
  (* altbench names Term only as [Prolog_term]. *)
  let altbench =
    Cmt_format.read_cmt (Filename.concat build_dir "bin/.altbench.eobjs/byte/dune__exe__Altbench.cmt")
  in
  (match altbench.cmt_annots with
  | Implementation str ->
    check Alcotest.bool "Prolog_term.to_string counts for Term" true
      (List.mem "Term.to_string" (uses_of ~self:altbench.cmt_modname str))
  | _ -> Alcotest.fail "altbench has no implementation tree");
  Printf.printf "%d exported values, %d with no production caller, %d allowlisted\n"
    (List.length exports)
    (List.length (List.filter (fun v -> not (has_caller v)) exports))
    (List.length (Lazy.force allowlist))

let test_every_export_is_called () =
  let allowed = Lazy.force allowlist in
  let uncalled =
    List.filter
      (fun v -> (not (has_caller v)) && not (List.mem_assoc v allowed))
      (Lazy.force exports)
  in
  check Alcotest.(list string) "exported values with no production caller" [] uncalled

(* Each allowlist line has a reason and names an exported value that
   production still does not call. *)
let test_allowlist_is_current () =
  let exports = Lazy.force exports in
  List.iter
    (fun (v, reason) ->
      check Alcotest.bool (v ^ " has a reason") true (reason <> "");
      check Alcotest.bool (v ^ " is exported") true (List.mem v exports);
      check Alcotest.bool (v ^ " has no production caller") false (has_caller v))
    (Lazy.force allowlist)

let () =
  Alcotest.run "exports"
    [
      ( "audit",
        [
          Alcotest.test_case "the scan reads the build" `Quick test_scan_reads_the_build;
          Alcotest.test_case "every export has a production caller" `Quick
            test_every_export_is_called;
          Alcotest.test_case "every allowlist line is current" `Quick test_allowlist_is_current;
        ] );
    ]
