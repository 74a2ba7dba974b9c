(** Interprocess messages.

    "A message from Pm to Pj has the following three part structure: (1) a
    sending predicate, encapsulating the assumptions under which the sender
    sends the message; (2) the data comprising the message contents; (3)
    some control information, e.g., sender id, destination id" (section
    3.4.1). *)

type t = {
  sender : Pid.t;
  dest : Pid.t;
  predicate : Predicate.t;  (** The sender's assumptions at send time. *)
  payload : Payload.t;
  tag : string;  (** Protocol tag, part of the control information. *)
  seq : int;  (** Per-sender sequence number: IPC is reliable and FIFO. *)
  size : int;  (** Wire size, computed once at construction. *)
}

val header_bytes : int
(** Fixed per-message header estimate added to the payload size. Exposed
    so the engine's send path, which builds its message record inline,
    prices messages identically to {!make}. *)

val make :
  sender:Pid.t ->
  dest:Pid.t ->
  predicate:Predicate.t ->
  ?tag:string ->
  seq:int ->
  Payload.t ->
  t

val size_bytes : t -> int
(** Payload size plus a fixed header estimate, for message costing.
    Constant time: the payload tree is measured once, in {!make}. *)

val pp : Format.formatter -> t -> unit
