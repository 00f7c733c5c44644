# Developer loop shortcuts.  Tier-1 (`make test`) is what CI runs and what
# the acceptance gate measures; `make quick` skips the @pytest.mark.slow
# end-to-end tests (full optimization loops, process pools, model training)
# for a tighter edit-test cycle.  The acquisition contract (no proposal is a
# plan that ran, exhaustion ends a run, budget above the plan space is spent:
# tests/test_core_bayesqo.py, tests/test_batch_ask.py) is not slow: `quick`
# runs it.

PYTEST = PYTHONPATH=src python -m pytest

.PHONY: test quick oracle-full bench-smoke serve-smoke bench-e2e bench-e2e-smoke bench-shape

test:
	$(PYTEST) -x -q

quick:
	$(PYTEST) -x -q -m "not slow"

# Planner vs. the per-hint-set reference search on every JOB/Stack/DSB query
# of <= 10 tables, the DP's whole range: all 49 hint sets up to 8 tables (the
# full cross product), a rotating window of seven at 9-10 tables, where one
# reference search takes up to 0.4 s (tier-1 rotates smaller windows; this is
# a few minutes).
# Executor vs. the nested-loop reference on every <= 5-table JOB query and one
# query of each of the 16 Stack templates x its distinct Bao hint-set plans
# (Stack's repeated alias pairs make multi-predicate joins: composite keys and
# shared columns), plus 300 random small databases and 200 under a lowered work
# cap (~60 s).
# A build side counted from a deferred join's sources vs. build_join_index over
# the gathered keys: every join over a deferred build side of every distinct
# Bao plan of the e2e JOB queries (<= 7 tables, scale 0.16) and of one query
# per Stack template, and 1000 property examples (~5 s).
# Plan decoder vs. the component-forest reference decoder on every JOB/Stack/DSB
# query x 64 VAE-decoded and 64 random token sequences (~20 s).
# Closed-form fantasized conditioning vs. the augmented-factor solve: 2000
# property examples, and the timeout rule's grid level for 64 probe candidates
# after every observation of both replayed GP streams (~60 s).  The direct
# L-BFGS-B driver vs. optimize.minimize: 1000 property examples (~10 s).
# ANALYZE off one sorted copy per column and quantile positions shared by a
# relation's columns vs. np.unique/np.quantile per column, the generator's
# range literals vs. np.quantile over the raw column, and each query
# template's join predicates vs. a per-query walk of the networkx graph:
# every JOB, Stack (with its 2017 rollback and Fig. 7 timeline), DSB and CEB
# build the e2e and figure benchmarks make, queries and statistics bit for
# bit (~5 s).
oracle-full:
	REPRO_ORACLE_FULL=1 $(PYTEST) -q tests/test_db_optimizer.py -k test_benchmark_workloads
	REPRO_ORACLE_FULL=1 $(PYTEST) -q tests/test_executor_oracle.py
	REPRO_ORACLE_FULL=1 $(PYTEST) -q tests/test_kernels_batch.py -k TestCountedJoinIndex
	REPRO_ORACLE_FULL=1 $(PYTEST) -q tests/test_encoding.py -k "TestDecoderOracle and test_benchmark_workloads"
	REPRO_ORACLE_FULL=1 $(PYTEST) -q tests/test_bo_gp.py -k "TestFantasizeOracle or TestDirectLbfgsbOracle"
	REPRO_ORACLE_FULL=1 $(PYTEST) -q tests/test_workloads.py -k test_builds_match_the_reference_statistics_and_literals

bench-smoke:
	PYTHONPATH=src python benchmarks/bench_surrogate_hotpath.py --smoke
	PYTHONPATH=src python benchmarks/bench_workload_parallel.py --smoke
	PYTHONPATH=src python benchmarks/bench_exec_backends.py --smoke
	PYTHONPATH=src python benchmarks/bench_batch_ask.py --smoke
	PYTHONPATH=src python benchmarks/bench_plan_cache.py --smoke
	PYTHONPATH=src python benchmarks/bench_faults.py --smoke
	PYTHONPATH=src python benchmarks/bench_serve.py --smoke
	PYTHONPATH=src python benchmarks/bench_obs.py --smoke
	PYTHONPATH=src python benchmarks/bench_exec_kernels.py --smoke

serve-smoke:
	PYTHONPATH=src python benchmarks/bench_serve.py --smoke

# The end-to-end benchmark of BENCHMARK.json (benchmarks/e2e/README.md): four
# workloads, end-to-end metrics plus the per-layer ledger, judged against the
# committed baseline.  run.py puts src/ on sys.path itself.
bench-e2e:
	mkdir -p out
	python3 benchmarks/e2e/run.py --json out/e2e.json && python3 benchmarks/e2e/compare.py benchmarks/e2e/baseline.json out/e2e.json

bench-e2e-smoke:
	python3 benchmarks/e2e/run.py --smoke

# The ruler's paper-shape check (Fig. 9: on opt_exec_bound plan execution
# outweighs BO overhead) is a property of the full sizes, so the smoke run
# skips it.  One traced contract run (~10 s): prints the ratio, fails on
# "correct": false.
bench-shape:
	python3 benchmarks/e2e/run.py --workload opt_exec_bound --trace 1 --seconds 6 | tail -n 1 | python3 -c "import json, sys; r = json.load(sys.stdin); m = {k: v['value'] for k, v in r['metrics'].items()}; print('db.execute_s / (core.suggest_s + core.observe_s) = %.3f / (%.3f + %.3f) = %.2f' % (m['db.execute_s'], m['core.suggest_s'], m['core.observe_s'], m['db.execute_s'] / (m['core.suggest_s'] + m['core.observe_s']))); sys.exit(None if r['correct'] else 'opt_exec_bound: \"correct\": false (paper shape, digest or attributed share)')"
