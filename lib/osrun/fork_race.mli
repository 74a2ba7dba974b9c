(** Fastest-first racing of real processes.

    The simulation runtime models the paper's design; this module {e is}
    the design, scaled down to one machine: each alternative runs in a real
    child created with [Unix.fork] (inheriting the parent's address space
    copy-on-write, exactly the mechanism the paper measures), the first
    child to deliver a successful result through its pipe wins, and the
    losing siblings are eliminated with SIGKILL. *)

type 'a outcome =
  | Winner of { index : int; value : 'a; elapsed : float }
      (** Alternative [index] finished first; [elapsed] is wall-clock
          seconds from spawn to selection. *)
  | All_failed of { elapsed : float }
      (** Every child exited without delivering a result. *)
  | Timed_out of { elapsed : float }
      (** The [alt_wait] timeout expired; all children were eliminated. *)

val run : ?timeout:float -> (unit -> 'a) list -> 'a outcome
(** [run alternatives] forks one child per alternative and returns the
    first successful result. A child "succeeds" by returning a value (sent
    to the parent with [Marshal], closure serialisation enabled) and
    "fails" by raising; a raised exception or a crash makes that child a
    non-candidate. Raises [Invalid_argument] on an empty list.

    Mutations a child makes to inherited OCaml state are invisible to the
    parent (separate address spaces — the OS's copy-on-write provides the
    isolation that {!Page_map} provides in simulation). The winner's state
    changes must therefore travel in the returned value; this is the
    "method result" discipline of the paper's message layer. *)
