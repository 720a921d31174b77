(** Garg–Könemann fully-polynomial approximation for maximum concurrent
    multicommodity flow (Garg & Könemann, SIAM J. Comput. 2007 — the
    paper's reference [17]), with Fleischer-style phases.

    Used as the large-instance fallback of the routability {!Oracle}: the
    exact LP of {!Mcf_lp} does not scale past a few thousand flow
    variables, while GK only needs repeated Dijkstra runs.

    The returned ratio [lambda] is {e certified feasible}: the flow
    scaled by the observed congestion satisfies every capacity, so
    [lambda >= 1] proves routability constructively.  Conversely the GK
    guarantee [lambda >= (1 - 3 eps) lambda*] makes
    [lambda < 1 - 3 eps] a proof of unroutability; ratios in between are
    inconclusive.  {!routable} adds a second, usually much earlier, proof
    of unroutability: weak duality bounds [lambda*] by the dual ratio
    [D(l) / alpha(l)] of the current edge lengths, checked at the end of
    every phase (see DESIGN §19).

    Each call evaluates the [vertex_ok] / [edge_ok] / [cap] closures once
    per edge; the phase loop reads arrays.  Work is counted on the
    [gk.calls] (calls that run phases), [gk.phases] and [gk.dual_exits]
    counters.

    Every entry point raises [Invalid_argument] when [eps] is not in
    [(0, 1/3)], or when the initial edge length
    [delta = (m / (1 - eps))^(-1/eps)] ([m] the live edge count, plus
    the demand count for {!max_sum}) is not a positive normal float —
    small [eps] on large graphs underflows it to 0, with which the phase
    loop would never end. *)

type result = {
  lambda : float;
      (** certified concurrent ratio: every demand can be served at
          [lambda] times its amount simultaneously *)
  routing : Routing.t;
      (** explicit feasible routing serving [min 1 lambda] of each
          demand *)
}

val max_concurrent :
  ?vertex_ok:(Graph.vertex -> bool) ->
  ?edge_ok:(Graph.edge_id -> bool) ->
  ?eps:float ->
  cap:(Graph.edge_id -> float) ->
  Graph.t ->
  Commodity.t list ->
  result
(** Approximate the maximum concurrent flow.  [eps] (default 0.1) trades
    accuracy for running time (cost grows as [1/eps^2]).  Demands with
    amount 0 are ignored; a demand disconnected from its endpoint makes
    [lambda = 0].  Always runs every phase: the reference for
    {!routable}. *)

val routable :
  ?vertex_ok:(Graph.vertex -> bool) ->
  ?edge_ok:(Graph.edge_id -> bool) ->
  ?eps:float ->
  cap:(Graph.edge_id -> float) ->
  Graph.t ->
  Commodity.t list ->
  [ `Routable of Routing.t | `Unroutable | `Unknown ]
(** Routability verdict from the {!max_concurrent} phase loop.
    [`Routable r] when the certified [lambda >= 1] (within
    [Num.feas_eps]), with [r] exactly {!max_concurrent}'s routing;
    [`Unroutable] as soon as the dual bound at a phase end falls below
    [1 - Num.feas_eps], or at the end when [lambda < 1 - 3 eps];
    [`Unknown] for ratios in between.  The early exit fires only when
    [lambda* < 1] is proved, so it never turns a verdict the full run
    would have made [`Routable]. *)

val max_sum :
  ?vertex_ok:(Graph.vertex -> bool) ->
  ?edge_ok:(Graph.edge_id -> bool) ->
  ?eps:float ->
  cap:(Graph.edge_id -> float) ->
  Graph.t ->
  Commodity.t list ->
  Routing.t
(** Approximate the {e maximum total} multicommodity flow with
    per-demand caps [d_h] (each demand served at most its amount) — the
    demand-loss measurement problem.  The per-demand cap is realised by
    the classic virtual-source-edge trick folded into the algorithm: a
    commodity's length includes a private "access" length that grows
    with its own routed amount, so saturated demands stop attracting
    flow.  The returned routing is certified capacity-feasible (scaled
    by the observed congestion) and serves at least [(1 - 3 eps)] of
    the optimum. *)
