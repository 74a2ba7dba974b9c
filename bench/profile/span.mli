(** Per-domain span recorder for the traced (shadow) serving run.

    A span is one call into a layer: its layer, start and end on the
    monotonic clock (ns), the span that was open when it started (its
    parent), and the request or batch id it served. Each domain records
    into its own preallocated arrays (grown by doubling, kept across
    {!reset}), so {!enter} and {!leave} take no lock and, once the
    arrays have reached a run's size, allocate nothing. Spans are read back — for
    the per-layer metrics and the JSONL dump — only after the traced run
    has finished and every worker domain is idle. *)

(** The layer boundaries the shadow pipeline records. *)
type layer =
  | Workload  (** [Workload.generate]. *)
  | Plan  (** Admission and batch formation (phase 1). *)
  | Quota  (** [Quota.admit_all], plus [Quota.tokens] on a shed. *)
  | Controller  (** [Controller.decide]. *)
  | Parallel  (** The [Parallel.map_indexed_shared] call (phase 2). *)
  | Batch  (** One batch's execution, on whichever domain ran it. *)
  | Engine_create  (** [Engine.create]. *)
  | Sites  (** [Sites.create] + [Faultplan.make]/[install]. *)
  | Sanitizer  (** Any [Sanitizer] call. *)
  | Prepare
      (** The request's parent space, scenario [prepare], source and
          alternatives. *)
  | Concurrent  (** [Concurrent.run_toplevel]. *)
  | Supervised  (** [Concurrent.run_supervised]. *)
  | Sequential  (** Ladder rung 2: [Alt_block.run_first] in a root process. *)
  | Invariants  (** [Invariants.check_report]/[check_supervised_report]. *)
  | Timeline  (** Lane timeline and response assembly (phase 3). *)
  | Digest  (** [Server.digest]. *)

val name : layer -> string
(** The span name, e.g. ["concurrent.supervised"]. *)

val now : unit -> int
(** The monotonic clock, in nanoseconds. *)

val enter : layer -> rid:int -> int
(** Open a span on the calling domain; its parent is the innermost span
    open on this domain (or the one set by {!under}). Returns a handle
    for {!leave}. [rid] is the request or batch id ([-1] for none). *)

val leave : int -> unit
(** Close the span whose handle is given (on the domain that opened it). *)

val wrap : layer -> rid:int -> (unit -> 'a) -> 'a
(** [enter], run, [leave] — also when the function raises. *)

val current : unit -> int
(** The global id of the innermost span open on the calling domain
    ([-1] if none): pass it to {!under} on another domain. *)

val under : int -> (unit -> 'a) -> 'a
(** Run the function with the given span (from another domain) as the
    parent of the spans it opens on this domain. *)

val reset : unit -> unit
(** Forget every recorded span on every domain. Call from the main
    domain, between runs, with no job in flight. *)

(** One closed span, as read back after a run. *)
type span = {
  id : int;  (** Global id: unique across domains. *)
  layer : layer;
  start_ns : int;
  end_ns : int;
  parent : int;  (** Global id, [-1] for a root span. *)
  rid : int;
  domain : int;  (** Recorder slot: 0 is the first domain that recorded. *)
  self_ns : int;
      (** Duration minus the durations of the children that ran on the
          same domain (children on other domains overlap it in time and
          are not subtracted). *)
}

val spans : unit -> span array
(** Every span recorded since the last {!reset}, in (domain, open)
    order. Raises [Failure] if a span is still open. *)

val to_jsonl : Buffer.t -> prefix:string -> base_ns:int -> span array -> unit
(** One JSON object per line: [id], [name], [start_ns] and [end_ns]
    relative to [base_ns], [parent] (or [null]), [rid], [domain],
    [self_ns]. [prefix] (e.g. ["\"workload\":\"serve-steady\","]) is
    inserted first in every object. *)
