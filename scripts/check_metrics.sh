#!/bin/sh
# Run the bench harness and validate the BENCH_metrics.json it emits.
#
#   scripts/check_metrics.sh            # full quick mode (micro + all figures)
#   scripts/check_metrics.sh fig4 quick # any bench/main.exe arguments
#
# Checks that the file exists, parses as JSON, and contains the solver
# work counters, quantile histograms and progress trajectory the run
# report is expected to carry.  The bench runs in a scratch directory,
# so the committed BENCH_metrics.json and results/ are left alone.
set -eu

cd "$(dirname "$0")/.."

dune build bench/main.exe
BENCH_EXE="$(pwd)/_build/default/bench/main.exe"

if [ "$#" -eq 0 ]; then
  set -- quick
fi
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT INT TERM
(cd "$TMP" && "$BENCH_EXE" "$@")

METRICS="$TMP/BENCH_metrics.json"
if [ ! -s "$METRICS" ]; then
  echo "FAIL: $METRICS missing or empty" >&2
  exit 1
fi

if command -v python3 >/dev/null 2>&1; then
  python3 - "$METRICS" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
if doc.get("schema") != "netrec-bench-metrics/2":
    sys.exit("FAIL: unexpected schema %r" % doc.get("schema"))
counters = doc.get("metrics", {}).get("counters", {})
missing = [k for k in ("isp.iterations", "simplex.pivots", "dijkstra.calls",
                       "centrality.cache_hits", "parallel.cells",
                       "simplex.warm_starts", "simplex.phase1_skipped",
                       "milp.nodes", "milp.nodes_pruned")
           if counters.get(k, 0) <= 0]
# cache_misses must be present (every fresh demand is a miss first);
# cache_hits > 0 above proves the incremental path actually reused work.
if "centrality.cache_misses" not in counters:
    missing.append("centrality.cache_misses")
# Sharded-solver counters: the xl gate runs a pinned multi-shard
# scenario in every bench mode, so the shape counters must be live;
# fixup/delegated/skipped are materialised at 0 and may stay there.
missing += [k for k in ("isp.shard_count", "isp.shard_region_vertices",
                        "isp.shard_cut_demands",
                        "centrality.sampled_recomputed")
            if counters.get(k, 0) <= 0]
missing += [k for k in ("isp.shard_fixup_paths", "isp.shard_delegated",
                        "centrality.sampled_skipped")
            if k not in counters]
# Scheduler counters: the sched gate runs the pinned smoke scenario in
# every bench mode, so plan/round/eval counters must be live;
# moves_applied may legitimately stay 0 (greedy can already be optimal).
missing += [k for k in ("sched.plans", "sched.rounds", "sched.evals",
                        "sched.ls_passes", "sched.moves_tried",
                        "sched.oracle_solves", "sched.oracle_nodes")
            if counters.get(k, 0) <= 0]
if "sched.moves_applied" not in counters:
    missing.append("sched.moves_applied")
if missing:
    sys.exit("FAIL: missing or zero counters: %s" % ", ".join(missing))
gate = doc.get("xl_gate", {})
if gate.get("xl.certified") != 1:
    sys.exit("FAIL: xl_gate missing or stitched solution not certified: %r"
             % gate)
if gate.get("check.violations") != 0:
    sys.exit("FAIL: xl_gate check.violations nonzero: %r" % gate)
if gate.get("isp.shard_count", 0) < 2:
    sys.exit("FAIL: xl_gate expected >= 2 shards: %r" % gate)
gate = doc.get("sched_gate", {})
if gate.get("sched.oracle_proved") != 1:
    sys.exit("FAIL: sched_gate missing or oracle did not prove optimality: %r"
             % gate)
if gate.get("sched.certified") != 1:
    sys.exit("FAIL: sched_gate round prefixes not certified: %r" % gate)
# 5% regret gate, in the same microunits the block stores AUCs in.
if gate.get("sched.regret_microunits", 10**9) > 50000:
    sys.exit("FAIL: sched_gate regret exceeds 5%%: %r" % gate)
bad = [k for k in ("sched.plans", "sched.rounds", "sched.evals",
                   "sched.oracle_solves", "sched.oracle_nodes",
                   "sched.plan_rounds")
       if gate.get(k, 0) <= 0]
if bad:
    sys.exit("FAIL: sched_gate counters missing or zero: %s" % ", ".join(bad))
gauges = doc.get("metrics", {}).get("gauges", {})
cpd = gauges.get("parallel.cells_per_domain", {})
if cpd.get("samples", 0) <= 0 or cpd.get("max", 0) <= 0:
    sys.exit("FAIL: parallel.cells_per_domain gauge missing or empty")
# Obs v2: every required histogram must be present with its full
# quantile set; the per-run trajectory block must be non-empty.
hists = doc.get("metrics", {}).get("histograms", {})
for name in ("isp.iteration_ms", "isp.solve_ms", "shard.solve_ms",
             "simplex.pivots_per_solve", "milp.nodes_per_solve",
             "dijkstra.settled_per_call", "parallel.batch_cells",
             "sched.round_satisfaction"):
    h = hists.get(name)
    if h is None:
        sys.exit("FAIL: histogram %s missing" % name)
    if h.get("count", 0) <= 0:
        sys.exit("FAIL: histogram %s is empty" % name)
    for q in ("p50", "p90", "p99", "min", "max"):
        if q not in h:
            sys.exit("FAIL: histogram %s lacks quantile key %s" % (name, q))
# Daemon load-generator block: bench modes that run `serve_bench`
# (default/quick/serve) must export the serve.* counters, the client
# latency histogram, and the flushed latency-quantile gauges.
if doc.get("mode") in ("default", "quick", "serve"):
    bad = [k for k in ("serve.requests", "serve.queries", "serve.ok",
                       "serve.cache_hits", "serve.cache_misses",
                       "serve.connections")
           if counters.get(k, 0) <= 0]
    if bad:
        sys.exit("FAIL: serve counters missing or zero: %s" % ", ".join(bad))
    h = hists.get("serve.client_latency_ms")
    if h is None or h.get("count", 0) <= 0:
        sys.exit("FAIL: serve.client_latency_ms histogram missing or empty")
    for q in ("p50", "p90", "p99", "min", "max"):
        if q not in h:
            sys.exit("FAIL: serve.client_latency_ms lacks quantile key %s" % q)
    for g in ("serve.latency_p50_ms", "serve.latency_p99_ms"):
        if gauges.get(g, {}).get("samples", 0) <= 0:
            sys.exit("FAIL: serve gauge %s missing or empty" % g)
progress = doc.get("metrics", {}).get("progress", [])
if not progress:
    sys.exit("FAIL: progress block missing or empty")
names = set(e.get("name") for e in progress)
if "isp.residual" not in names:
    sys.exit("FAIL: progress block carries no isp.residual trajectory")
for e in progress[:50]:
    for k in ("name", "seq", "t_s", "dom", "fields"):
        if k not in e:
            sys.exit("FAIL: progress event lacks key %s: %r" % (k, e))
# Spans must be exported path-sorted so diffs can align them.
paths = [s.get("path", "") for s in doc.get("metrics", {}).get("spans", [])]
if paths != sorted(paths):
    sys.exit("FAIL: spans are not sorted by path")
gate = doc.get("lp_gate", {})
if gate.get("opt.proved") != 1:
    sys.exit("FAIL: lp_gate missing or OPT did not prove optimality: %r" % gate)
bad = [k for k in ("simplex.pivots", "simplex.solves", "simplex.warm_starts",
                   "milp.nodes") if gate.get(k, 0) <= 0]
if bad:
    sys.exit("FAIL: lp_gate counters missing or zero: %s" % ", ".join(bad))
# Exact-solver accelerations (DESIGN.md 18): the pinned solve must
# actually exercise presolve, the cut separator and DSE pricing, not
# merely tolerate them; the remaining acceleration counters only need
# to be materialised (tightening/aging legitimately hit 0 on some
# models).
bad = [k for k in ("simplex.dse_pivots", "presolve.runs",
                   "presolve.vars_fixed", "cuts.separated", "cuts.added",
                   "cuts.root_solves")
       if gate.get(k, 0) <= 0]
if bad:
    sys.exit("FAIL: lp_gate acceleration counters missing or zero: %s"
             % ", ".join(bad))
bad = [k for k in ("presolve.rows_dropped", "presolve.bounds_tightened",
                   "presolve.coefs_tightened", "simplex.dse_resets",
                   "cuts.rejected", "cuts.aged_out")
       if k not in gate]
if bad:
    sys.exit("FAIL: lp_gate acceleration counters not materialised: %s"
             % ", ".join(bad))
counters_bad = [k for k in ("presolve.runs", "presolve.vars_fixed",
                            "presolve.rows_dropped",
                            "presolve.bounds_tightened", "cuts.separated",
                            "cuts.added", "cuts.root_solves",
                            "simplex.dse_pivots")
                if counters.get(k, 0) <= 0]
if counters_bad:
    sys.exit("FAIL: acceleration counters missing or zero in the run-wide "
             "snapshot: %s" % ", ".join(counters_bad))
print("OK: %s valid (%d counters, %d histograms, %d progress events, "
      "%d benchmarks)"
      % (sys.argv[1], len(counters), len(hists), len(progress),
         len(doc.get("benchmarks", {}))))
EOF
else
  # No python3: fall back to grepping for the required keys.
  for key in '"schema":"netrec-bench-metrics/2"' '"isp.iterations"' \
             '"simplex.pivots"' '"dijkstra.calls"' \
             '"centrality.cache_hits"' '"centrality.cache_misses"' \
             '"centrality.sampled_recomputed"' '"centrality.sampled_skipped"' \
             '"isp.shard_count"' '"isp.shard_region_vertices"' \
             '"isp.shard_cut_demands"' '"isp.shard_fixup_paths"' \
             '"parallel.cells"' '"parallel.cells_per_domain"' \
             '"lp_gate"' '"simplex.warm_starts"' '"simplex.phase1_skipped"' \
             '"milp.nodes"' '"opt.proved":1' '"presolve.runs"' \
             '"cuts.added"' '"simplex.dse_pivots"' \
             '"xl_gate"' '"xl.certified":1' '"shard.solve_ms"' \
             '"sched_gate"' '"sched.oracle_proved":1' '"sched.certified":1' \
             '"sched.plans"' '"sched.round_satisfaction"' \
             '"histograms"' '"isp.iteration_ms"' '"simplex.pivots_per_solve"' \
             '"dijkstra.settled_per_call"' '"p50"' '"p90"' '"p99"' \
             '"progress"' '"isp.residual"'; do
    if ! grep -q "$key" "$METRICS"; then
      echo "FAIL: $key not found in $METRICS" >&2
      exit 1
    fi
  done
  # Serve block, only for bench modes that run the daemon load test.
  if grep -q '"mode":"\(default\|quick\|serve\)"' "$METRICS"; then
    for key in '"serve.requests"' '"serve.queries"' '"serve.ok"' \
               '"serve.cache_hits"' '"serve.client_latency_ms"' \
               '"serve.latency_p50_ms"'; do
      if ! grep -q "$key" "$METRICS"; then
        echo "FAIL: $key not found in $METRICS" >&2
        exit 1
      fi
    done
  fi
  echo "OK: $METRICS contains the required keys (python3 unavailable)"
fi
