(** Fig OPT — exact-solver acceleration study on mid-size Gaussian
    scenarios (Bell-Canada, 5 demand pairs, 10 flow units, variances
    80–140): the full pipeline (LP presolve + Steiner-forest cuts + dual
    steepest-edge pricing) against the un-accelerated baseline
    (presolve off, cuts off, Dantzig pricing) under the same
    branch-and-bound node budget.

    Two tables: (a) proved-optimality rate, average node count and the
    number of scenarios that {e flip} from budget-exhausted to proved;
    (b) the anytime bound gap [objective - bound] and wall time. *)

val smoke_scenario : unit -> Netrec_core.Instance.t
(** The pinned Bell-Canada Gaussian scenario (seed 2, variance 70, 4
    demand pairs of 10 units) behind the bench harness's [lp_gate] block
    and the opt gate tests: the full pipeline and each acceleration
    disabled in turn all prove the same optimum. *)

val midsize_scenario : unit -> Netrec_core.Instance.t
(** The opt gate's mid-size scenario (5 pairs, seed 5, variance 120):
    at a 600-node budget the un-accelerated pipeline stops unproved and
    the full pipeline proves. *)

val run :
  ?journal:Journal.t ->
  ?pool:Netrec_parallel.Pool.t ->
  ?runs:int ->
  ?opt_nodes:int ->
  ?seed:int ->
  unit ->
  Netrec_util.Table.t list
(** Produce both tables (one row per variance; [opt_nodes] defaults to
    600 — the budget both pipelines share). *)
