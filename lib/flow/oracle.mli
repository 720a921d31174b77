(** Layered routability oracle.

    Decides whether a demand set is routable over (a sub-graph of) the
    supply graph — the test at the heart of ISP's loop condition (paper
    §IV-A, system (2)) — escalating through progressively more expensive
    methods:

    + connectivity pre-check (BFS): a demand whose endpoints are
      disconnected kills routability immediately;
    + constructive greedy routing ({!Route_greedy}): success is a
      certificate of routability with an explicit routing;
    + exact LP ({!Mcf_lp.feasible}) when the instance fits the simplex
      budget: decides either way;
    + Garg–Könemann ({!Gk.routable}) on large instances: a certified
      ratio [lambda >= 1] proves routability; unroutability is proved
      either by the weak-duality bound at a phase end (usually long
      before the run's natural end) or by [lambda < 1 - 3 gk_eps]; ratios
      in between are inconclusive.

    The verdict [Unknown] (GK ratio in between, or simplex iteration
    limit) is possible but rare; ISP treats it conservatively as "not
    routable".  The greedy, LP and GK legs run under the [oracle.greedy],
    [oracle.lp] and [oracle.gk] spans. *)

type verdict =
  | Routable of Routing.t  (** with an explicit feasible routing *)
  | Unroutable
  | Unknown

val routable :
  ?budget:Netrec_resilience.Budget.t ->
  ?vertex_ok:(Graph.vertex -> bool) ->
  ?edge_ok:(Graph.edge_id -> bool) ->
  ?lp_var_budget:int ->
  ?gk_eps:float ->
  cap:(Graph.edge_id -> float) ->
  Graph.t ->
  Commodity.t list ->
  verdict
(** Run the escalation chain.  [lp_var_budget] (default 6000) bounds the
    exact-LP size; [gk_eps] (default 0.1) is the GK accuracy, in
    [(0, 1/3)]: the GK leg raises [Invalid_argument] otherwise (see
    {!Gk}).  [budget] (default unlimited) bounds the exact-LP stage;
    exhaustion surfaces as [Unknown]. *)

val max_satisfiable :
  ?budget:Netrec_resilience.Budget.t ->
  ?vertex_ok:(Graph.vertex -> bool) ->
  ?edge_ok:(Graph.edge_id -> bool) ->
  ?lp_var_budget:int ->
  cap:(Graph.edge_id -> float) ->
  Graph.t ->
  Commodity.t list ->
  Routing.t
(** Best-effort maximum satisfied demand: the exact {!Mcf_lp.max_total}
    LP when the instance fits, otherwise the better of the greedy routing
    and {!Gk.max_sum}.  Used to measure the demand loss of heuristics
    without routing guarantees. *)
