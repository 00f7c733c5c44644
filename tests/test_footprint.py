"""What a process loads: numpy at import, three compiled scipy modules at a GP's first use.

A plan server or a pool worker never fits a GP, so importing the package
must not pull scipy in (with its statistics package and networkx, that was
~0.7 s and ~80 MiB), and no path at all may need ``scipy.stats`` or networkx.
A GP loads ``scipy.linalg._flapack``, ``scipy.optimize._lbfgsb`` and
``scipy.special._special_ufuncs`` alone, never their packages, and computes
the same floats as when those packages were imported first.
Each check runs in a fresh interpreter: the test session has them all loaded.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys

import numpy as np

TESTS = os.path.dirname(os.path.abspath(__file__))

#: The scipy packages a GP must not import (the first three hold the modules it calls).
_PACKAGES = ("scipy.linalg", "scipy.optimize", "scipy.special", "scipy.sparse", "scipy.spatial",
             "scipy.fft", "scipy.stats")
#: The compiled modules a GP loads, each without its package.
_STANDALONE = {"scipy.linalg._flapack", "scipy.optimize._lbfgsb", "scipy.special._special_ufuncs"}

#: argv "standalone": the GP loads its scipy modules; "preloaded": the
#: packages holding them were imported first and the GP reuses theirs.
_PROBE = """
import json, sys

if sys.argv[1] == "preloaded":
    import scipy.linalg, scipy.optimize, scipy.special

def heavy():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "networkx"))

import repro, repro.core, repro.serve, repro.exec, repro.harness, repro.db, repro.workloads
report = {"imported": heavy()}

from conftest import _tiny_schema, _tiny_specs
from repro.core import BayesQO, BayesQOConfig, drive_query
from repro.core.config import VAETrainingConfig
from repro.core.optimizer import train_schema_model
from repro.db.datagen import DataGenerator
from repro.db.engine import Database
from repro.db.query import JoinPredicate, Query, TableRef

schema = _tiny_schema()
database = Database(schema, DataGenerator(schema, _tiny_specs(), seed=7).generate(), seed=7)
query = Query(
    "footprint_q", [TableRef("orders#1", "orders"), TableRef("customer#1", "customer"),
                    TableRef("shipment#1", "shipment")],
    [JoinPredicate("orders#1", "customer_id", "customer#1", "id"),
     JoinPredicate("shipment#1", "order_id", "orders#1", "id")],
    [],
)
model = train_schema_model(database, [query], VAETrainingConfig(
    latent_dim=8, embed_dim=8, hidden_dim=32, training_steps=30, corpus_queries=8,
    max_tables=3, seed=3), max_aliases=1)
report["trained"] = heavy()
optimizer = BayesQO(database, model, config=BayesQOConfig(max_executions=12, num_candidates=32, seed=0))
result = drive_query(optimizer, database, query)
report["executions"] = result.num_executions
report["bo_proposals"] = result.sources().get("bo", 0)
report["optimized"] = heavy()
report["trace"] = [[plan, latency.hex(), censored, timeout, source]
                   for plan, latency, censored, timeout, source in result.trace_signature()]

import numpy as np
from repro.bo.gp import CensoredGP

rng = np.random.default_rng(39)
x = rng.random((30, 4))
gp = CensoredGP().fit(x, np.sin(4.0 * x).sum(axis=1), rng.random(30) < 0.3)
mean, std = gp.predict(rng.random((8, 4)))
report["fitted"] = [value.hex() for value in (
    gp.gp.kernel.lengthscale, gp.gp.kernel.outputscale, gp.gp.noise, *mean, *std)]
print(json.dumps(report))
"""


@functools.cache
def _probe(mode: str) -> dict:
    return json.loads(_run(_PROBE, mode))


def _run(probe: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([TESTS, *sys.path]))
    return subprocess.run(
        [sys.executable, "-c", probe, *args], env=env, check=True, capture_output=True, text=True,
        timeout=300,
    ).stdout


def _packages(loaded: list[str]) -> list[str]:
    """The modules of ``loaded`` that only networkx or an imported scipy package brings."""
    return [m for m in loaded if m.split(".")[0] == "networkx"
            or (".".join(m.split(".")[:2]) in _PACKAGES and m not in _STANDALONE)]


def test_importing_loads_no_scipy_and_a_bayesqo_run_only_its_linear_algebra():
    report = _probe("standalone")
    assert report["imported"] == []
    assert report["trained"] == []
    assert report["executions"] == 12 and report["bo_proposals"] > 0
    loaded = report["optimized"]
    assert not _packages(loaded)
    assert _STANDALONE <= set(loaded)


def test_a_run_computes_the_same_floats_whether_or_not_scipy_packages_were_imported_first():
    standalone, preloaded = _probe("standalone"), _probe("preloaded")
    # The preloaded run had the packages, so the GP reused their modules.
    assert {"scipy.linalg", "scipy.optimize", "scipy.special"} <= set(preloaded["optimized"])
    assert len(standalone["trace"]) == 12
    assert standalone["trace"] == preloaded["trace"]
    assert standalone["fitted"] == preloaded["fitted"]


#: ``norm_cdf``/``norm_logsf`` over ``TestNormalForms``' grid, then scipy's
#: ``ndtr``/``log_ndtr`` and ``norm.cdf``/``norm.logsf`` imported afterwards.
_NORMAL_PROBE = """
import json, sys
import numpy as np
from repro.bo.censored import norm_cdf, norm_logsf

grid = np.concatenate([
    np.linspace(-40.0, 40.0, 8001),
    [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 1e6, -1e6, np.inf, -np.inf, np.nan],
])
encode = lambda values: [float(v).hex() for v in values]
with np.errstate(all="ignore"):
    report = {"grid": encode(grid), "ours": [encode(norm_cdf(grid)), encode(norm_logsf(grid))]}
    report["loaded"] = sorted(m for m in sys.modules if m.startswith("scipy"))
    from scipy import special, stats
    report["special"] = [encode(special.ndtr(grid)), encode(special.log_ndtr(-grid))]
    report["stats"] = [encode(stats.norm.cdf(grid)), encode(stats.norm.logsf(grid))]
print(json.dumps(report))
"""


def test_the_standalone_normal_forms_equal_scipys_imported_afterwards():
    report = json.loads(_run(_NORMAL_PROBE))
    assert "scipy.special._special_ufuncs" in report["loaded"]
    assert not _packages(report["loaded"])
    decode = lambda values: np.array([float.fromhex(v) for v in values])
    finite = np.isfinite(decode(report["grid"]))
    for reference in ("special", "stats"):
        for ours, theirs in zip(report["ours"], report[reference]):
            ours, theirs = decode(ours), decode(theirs)
            assert np.array_equal(ours, theirs, equal_nan=True), reference
            assert np.array_equal(np.signbit(ours[finite]), np.signbit(theirs[finite])), reference
