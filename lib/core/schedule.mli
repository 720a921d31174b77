(** Progressive recovery scheduling.

    The paper computes {e what} to repair; in practice crews repair a few
    elements at a time and operators care how fast service comes back
    (the throughput-over-time objective of Wang, Qiao & Yu — the paper's
    reference [32] — discussed in §II).  This module extends the library
    with that dimension: given a recovery solution, order its repairs to
    maximize the satisfied demand after every prefix.

    The greedy ordering picks, at each step, the repair element whose
    addition yields the largest immediate gain in satisfiable demand
    (ties broken by repair cost, then id); between gains it prefers
    elements that complete working paths.  This is a natural baseline for
    the progressive-recovery extension the paper leaves as future work;
    the capacity-constrained round schedulers, the exact MILP oracle and
    the local search built on top of it live in [Netrec_sched.Sched]. *)

type element = [ `Vertex of Graph.vertex | `Edge of Graph.edge_id ]

type step = {
  element : element;
  satisfied_after : float;
      (** fraction of total demand satisfiable once this repair (and all
          previous ones) is done *)
}

type t = {
  steps : step list;  (** repairs in execution order *)
  auc : float;
      (** area under the satisfied-demand curve, normalized to [0,1] —
          1 means everything was satisfied from the first step.  An empty
          schedule reports the {e baseline} satisfaction of the
          unrepaired instance (see {!baseline_satisfaction}), so an empty
          solution on an instance with unsatisfied demand does not score
          a perfect curve. *)
}

(** Structured rejection of a malformed repair order: ids are validated
    against the instance {e before} any state array is indexed, so an
    out-of-range element becomes a typed error instead of a bare
    [Invalid_argument "index out of bounds"]. *)
type order_error =
  | Out_of_range of element  (** id outside the instance's graph *)
  | Not_broken of element  (** element is not broken, nothing to repair *)
  | Duplicate of element  (** element scheduled more than once *)

val element_to_string : element -> string
(** ["vertex 3"] / ["edge 7"]. *)

val order_error_to_string : order_error -> string
(** One-line human-readable rendering. *)

val validate_order : Instance.t -> element list -> (unit, order_error) result
(** Check every element against the instance: in range, actually broken,
    no duplicates.  First offending element wins. *)

val baseline_satisfaction : Instance.t -> float
(** Exact(ish) satisfiable fraction of the {e unrepaired} instance — the
    value an empty schedule's [auc] reports, and round 0 of every
    recovery curve. *)

val prefix_satisfactions : Instance.t -> element list list -> float list
(** [prefix_satisfactions inst groups] applies each group of repairs
    cumulatively and returns the exact satisfiable fraction after each —
    the per-round evaluation primitive of the capacity-constrained
    schedulers.  Elements are {e not} validated (callers batch-validate
    with {!validate_order} first). *)

val greedy : Instance.t -> Instance.solution -> t
(** Order the solution's repairs greedily by marginal satisfied demand.
    The solution should be feasible; unordered leftovers (zero marginal
    gain) are appended by cost.
    @raise Invalid_argument when the solution's repair list does not pass
    {!validate_order} (rendered {!order_error}). *)

val in_order : Instance.t -> element list -> t
(** Evaluate a caller-chosen order (e.g. to compare against {!greedy}).
    @raise Invalid_argument on a malformed order (rendered
    {!order_error}); use {!in_order_result} for the typed variant. *)

val in_order_result : Instance.t -> element list -> (t, order_error) result
(** {!in_order} with the structured error instead of an exception. *)
