(* The allocation counter every test's allocation contracts read:
   minor words plus words allocated directly in the major heap. An
   object past the minor heap's size limit (a page, a large page table)
   is allocated straight in the major heap, where [Gc.minor_words] never
   sees it. [Gc.counters]' minor figure lags until the next minor
   collection, so the minor words come from [Gc.minor_words]; its major
   figure counts promoted words too, which are subtracted. *)
let count () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* The words [f ()] allocates. Reading the counter allocates its own
   few words; one reading's worth is measured alongside and subtracted,
   so a run that allocates nothing reads exactly 0. *)
let of_run f =
  let w0 = count () in
  let w1 = count () in
  f ();
  let w2 = count () in
  w2 -. w1 -. (w1 -. w0)
