(* The hot libraries keep no mutable float in a mixed record.

   A record whose fields are all floats is stored flat, and a store into
   one of its fields writes a double. Any other record holds a float
   field as a pointer to a boxed float, so every store into a [mutable
   f : float] field there allocates a fresh box: a clock advanced per
   event or a time operand set per park would cost two words each time.
   Such values live in a [floatarray] cell instead (the engine's clock,
   the CPU's last charge, an address space's pending cost).

   This test parses every [.ml] of the libraries below with the
   compiler's own parser and fails, naming file, type and field, if one
   declares a mutable float field in a record that is not all floats and
   is not on [allowed]. The sources are the copies dune builds from, found
   at [../lib] from the executable; the test links the libraries, so a
   build of it refreshes them. *)

let check = Alcotest.check

let hot_dirs = [ "runtime"; "pages"; "predicate"; "core"; "consensus"; "serve" ]

(* "dir/file.ml: type.field", each with the reason it may stay. It may
   only shrink. *)
let allowed : (string * string) list = []

let lib_dir = Filename.concat (Filename.dirname Sys.executable_name) "../lib"

let sources () =
  List.concat_map
    (fun dir ->
      let d = Filename.concat lib_dir dir in
      Sys.readdir d |> Array.to_list |> List.sort String.compare
      |> List.filter (fun f -> Filename.check_suffix f ".ml")
      |> List.map (fun f -> (dir ^ "/" ^ f, Filename.concat d f)))
    hot_dirs

let read path = In_channel.with_open_bin path In_channel.input_all

let is_float (ty : Parsetree.core_type) =
  match ty.ptyp_desc with
  | Ptyp_constr ({ txt = Lident "float" | Ldot (Lident "Stdlib", "float"); _ }, []) ->
    true
  | _ -> false

(* ["type.field"] for each mutable float field of a record type of [str]
   that has a field of another type, nested modules included. *)
let boxed_fields (str : Parsetree.structure) =
  let found = ref [] in
  let type_declaration it (td : Parsetree.type_declaration) =
    (match td.ptype_kind with
    | Ptype_record labels ->
      let flat = List.for_all (fun (l : Parsetree.label_declaration) -> is_float l.pld_type) labels in
      if not flat then
        List.iter
          (fun (l : Parsetree.label_declaration) ->
            if l.pld_mutable = Asttypes.Mutable && is_float l.pld_type then
              found := (td.ptype_name.txt ^ "." ^ l.pld_name.txt) :: !found)
          labels
    | _ -> ());
    Ast_iterator.default_iterator.type_declaration it td
  in
  let it = { Ast_iterator.default_iterator with type_declaration } in
  it.structure it str;
  List.rev !found

let scan =
  lazy
    (List.concat_map
       (fun (name, path) ->
         let lexbuf = Lexing.from_string (read path) in
         Lexing.set_filename lexbuf path;
         List.map (fun f -> name ^ ": " ^ f) (boxed_fields (Parse.implementation lexbuf)))
       (sources ()))

(* The scan is not vacuous: it reads the engine, and it finds a boxed
   field where one is declared. *)
let test_scan_reads_the_sources () =
  let names = List.map fst (sources ()) in
  List.iter
    (fun m -> check Alcotest.bool ("scanned " ^ m) true (List.mem m names))
    [ "runtime/engine.ml"; "runtime/cpu.ml"; "pages/page_map.ml"; "serve/controller.ml" ];
  let probe =
    Parse.implementation
      (Lexing.from_string
         "type flat = { mutable a : float; b : float }\n\
          module M = struct type t = { mutable now : float; n : int } end")
  in
  check Alcotest.(list string) "a mixed record's field is found" [ "t.now" ] (boxed_fields probe)

let test_no_boxed_float_field () =
  let boxed =
    List.filter (fun f -> not (List.mem_assoc f allowed)) (Lazy.force scan)
  in
  check Alcotest.(list string) "mutable float fields in mixed records" [] boxed

(* Every allowlist entry still names a field the scan finds, so a fixed
   field leaves no stale entry behind. *)
let test_allowlist_is_current () =
  List.iter
    (fun (f, _) ->
      check Alcotest.bool ("allowlisted " ^ f ^ " exists") true (List.mem f (Lazy.force scan)))
    allowed

let () =
  Alcotest.run "float_fields"
    [
      ( "guard",
        [
          Alcotest.test_case "the scan reads the sources" `Quick test_scan_reads_the_sources;
          Alcotest.test_case "no mutable float in a mixed record" `Quick
            test_no_boxed_float_field;
          Alcotest.test_case "every allowlist entry names a field" `Quick
            test_allowlist_is_current;
        ] );
    ]
