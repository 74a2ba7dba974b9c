(** Race detection over page writes.

    Copy-on-write isolation means sibling writes must always land in
    {e distinct} frames (each write to a shared frame is privatised
    first, and the store never reuses frame ids) — so any
    [(vpage, frame id)] pair written by two siblings is a mutation of
    shared state visible across the mutual-exclusion boundary. The
    writes come from the frame store's observers, the notification the
    online sanitizer hears too. *)

type writes
(** Per map id, the frame each virtual page was last written in. Entries
    outlive the map's release, so eliminated siblings are audited post
    mortem. *)

val record : Frame_store.t -> writes
(** Add an observer recording every write of the store from now on
    ({!Frame_store.add_observer}). A {!Checkpoint.restore}'s fills are
    recorded too, under the restored map: they land in frames that map
    alone holds, so they never pair across siblings. *)

val written : writes -> Address_space.t -> (int * int) list
(** The space's map's [(vpage, frame id)] pairs, ascending. *)

val check_isolation :
  writes ->
  Engine.t ->
  children:Pid.t list ->
  scenario:string ->
  policy:string ->
  seed:int ->
  Report.violation list
(** Pairwise-intersect the recorded writes of the children's address
    spaces ({!Engine.space_of}), each sorted by [(vpage, frame)].
    Children without a space, or whose space wrote nothing since
    {!record}, contribute nothing. *)

val check_sources :
  Source.t ->
  scenario:string ->
  policy:string ->
  seed:int ->
  Report.violation list
(** Every line emitted on the device must have been written (or flushed) by
    a process that was certain at emission time (section 3.4.2: speculative
    processes "cannot interface with sources"). *)
