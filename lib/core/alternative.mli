(** One alternative of an alternative block.

    The paper's construct (figure 1):
    {v
    ALTBEGIN
      ENSURE guard1 WITH method1 OR
      ...
      ENSURE guardn WITH methodn OR
      FAIL
    END
    v}

    An alternative couples a guard with a method. The guard may be
    evaluated "before spawning the alternative, in the child process, at
    the synchronization point, or at any combination of these places, for
    redundancy"; following the paper we evaluate it in the child, "thus
    speeding up spawning and synchronization" (section 3.2). *)

(** A declared effect footprint: what an alternative's body may touch.
    Purely a {e declaration} — nothing enforces it at run time (the online
    sanitizer and the post-mortem checkers watch actual effects); the
    static analyzer ({!Lint.check_footprints}) compares declared
    footprints pairwise and treats an {e undeclared} footprint as
    conflicting with everything. *)
type footprint = {
  writes : (int * int) list;
      (** [(addr, len)] byte ranges of sink state the body may write. *)
  reads_source : bool;  (** Consumes source-device input. *)
  writes_source : bool;  (** Emits source-device output. *)
  endpoints : string list;
      (** Message endpoints (process names, tags) the body communicates
          with. *)
}

val pure : footprint
(** No writes, no source, no endpoints: the footprint of {!fixed} and
    {!failing}. *)

val footprint :
  ?writes:(int * int) list ->
  ?reads_source:bool ->
  ?writes_source:bool ->
  ?endpoints:string list ->
  unit ->
  footprint
(** All fields default to empty/false. *)

type 'a t = {
  name : string;
  guard : Engine.ctx -> bool;
      (** Must hold for the alternative to be eligible. Evaluated in the
          child process. *)
  body : Engine.ctx -> 'a;
      (** The method. May {!Engine.delay}, read and write sink state in
          its {!Engine.space} (then {!Engine.charge_memory}), and exchange
          messages. It must not write sink state after its
          synchronisation succeeds (i.e. after [body] returns). To signal
          failure from within, call {!Engine.abort} or raise {!Failed}. *)
  footprint : footprint option;
      (** Declared effects; [None] means undeclared (conservatively
          conflicting under static analysis). *)
}

exception Failed of string
(** Raised by a body to indicate that this alternative cannot produce an
    acceptable result. *)

val make :
  ?name:string ->
  ?guard:(Engine.ctx -> bool) ->
  ?footprint:footprint ->
  (Engine.ctx -> 'a) ->
  'a t
(** Default guard always holds; default name is ["alt"]; default footprint
    is undeclared. *)

val fixed : ?name:string -> cost:float -> 'a -> 'a t
(** An alternative that consumes exactly [cost] seconds of CPU and returns
    the value: the synthetic computation used throughout the performance
    experiments. *)

val failing : ?name:string -> cost:float -> unit -> 'a t
(** Consumes [cost] seconds, then fails. *)
