"""The one-BLAS-thread guard: counts set and restored, and traces unchanged."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.utils import blas

TESTS = os.path.dirname(os.path.abspath(__file__))

_COUNTS_PROBE = """
import json
import numpy, scipy.linalg
from repro.utils.blas import one_blas_thread, openblas_controls

controls = openblas_controls()
for set_threads, _ in controls:
    set_threads(2)
counts = lambda: [get_threads() for _, get_threads in controls]
report = {"libraries": len(controls), "before": counts()}
with one_blas_thread():
    report["inside"] = counts()
    with one_blas_thread():
        report["nested"] = counts()
    report["after_inner"] = counts()
report["after"] = counts()
print(json.dumps(report))
"""

#: scipy, and its OpenBLAS, loaded by a GP's first fit: inside two nested
#: guards (argv "guarded") or outside any guard.
_LATE_LOAD_PROBE = """
import json, sys
import numpy as np
from repro.bo.gp import CensoredGP
from repro.utils.blas import one_blas_thread, openblas_controls

def fit():
    x = np.random.default_rng(0).random((12, 3))
    CensoredGP().fit(x, x.sum(axis=1), np.arange(12) % 4 == 0)

counts = lambda: [get_threads() for _, get_threads in openblas_controls()]
report = {"before": counts()}
if sys.argv[1] == "guarded":
    with one_blas_thread():
        with one_blas_thread():
            report["scipy_at_entry"] = sorted(m for m in sys.modules if m.startswith("scipy"))
            fit()
            report["inside"] = counts()
        report["after_inner"] = counts()
else:
    fit()
report["after"] = counts()
print(json.dumps(report))
"""

_TRACE_PROBE = """
import json
from conftest import _tiny_schema, _tiny_specs
from repro.core import BayesQO, BayesQOConfig, drive_query
from repro.core.config import VAETrainingConfig
from repro.core.optimizer import train_schema_model
from repro.db.datagen import DataGenerator
from repro.db.engine import Database
from repro.db.query import FilterPredicate, JoinPredicate, Query, TableRef

schema = _tiny_schema()
database = Database(schema, DataGenerator(schema, _tiny_specs(), seed=7).generate(), seed=7)
query = Query(
    "blas_q", [TableRef("orders#1", "orders"), TableRef("customer#1", "customer"),
               TableRef("product#1", "product"), TableRef("shipment#1", "shipment")],
    [JoinPredicate("orders#1", "customer_id", "customer#1", "id"),
     JoinPredicate("orders#1", "product_id", "product#1", "id"),
     JoinPredicate("shipment#1", "order_id", "orders#1", "id")],
    [FilterPredicate("customer#1", "region", "=", 2)],
)
model = train_schema_model(database, [query], VAETrainingConfig(
    latent_dim=8, embed_dim=8, hidden_dim=32, training_steps=60, corpus_queries=12,
    max_tables=4, seed=3), max_aliases=2)
optimizer = BayesQO(database, model, config=BayesQOConfig(max_executions=24, num_candidates=64, seed=0))
result = drive_query(optimizer, database, query)
print(json.dumps([[plan, latency.hex(), censored, timeout, source]
                  for plan, latency, censored, timeout, source in result.trace_signature()]))
"""


#: The GP's scipy routines with the packages imported before them (argv
#: "packages-first") or after (argv "loader-first"): each module is loaded once.
_LOADER_PROBE = """
import json, sys

def packages():
    import scipy.linalg, scipy.optimize, scipy.special
    return scipy.linalg, scipy.optimize, scipy.special

if sys.argv[1] == "packages-first":
    linalg, optimize, special = packages()
from repro.bo import censored, gp
from repro.utils.blas import scipy_extension

routines, normal = gp._scipy(), censored._ufuncs()
again = [scipy_extension("linalg", "_flapack"), scipy_extension("optimize", "_lbfgsb"),
         scipy_extension("special", "_special_ufuncs")]
if sys.argv[1] == "loader-first":
    linalg, optimize, special = packages()
from scipy.linalg import _flapack
from scipy.optimize import _lbfgsb
print(json.dumps({
    "loaded_once": again == [_flapack, _lbfgsb, normal],
    "lapack": [ours is theirs for ours, theirs in zip(
        routines[:4], linalg.get_lapack_funcs(("potrf", "potri", "potrs", "trtrs"), dtype="float64"))],
    "flapack": [ours is getattr(_flapack, name) for ours, name in zip(
        routines[:4], ("dpotrf", "dpotri", "dpotrs", "dtrtrs"))],
    "setulb": routines.setulb is _lbfgsb.setulb,
    "special": [normal.ndtr is special.ndtr, normal.log_ndtr is special.log_ndtr],
}))
"""


def _run(probe: str, pinned: bool, *args: str) -> str:
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    if pinned:
        env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join([TESTS, *sys.path])
    return subprocess.run(
        [sys.executable, "-c", probe, *args], env=env, check=True, capture_output=True,
        text=True, timeout=300,
    ).stdout


def test_the_guard_pins_every_loaded_openblas_and_restores_it():
    report = json.loads(_run(_COUNTS_PROBE, pinned=False))
    if report["libraries"] == 0:
        pytest.skip("no OpenBLAS loaded by numpy or scipy")
    libraries = report["libraries"]
    assert report["before"] == [2] * libraries
    assert report["inside"] == report["nested"] == report["after_inner"] == [1] * libraries
    assert report["after"] == [2] * libraries


def test_an_openblas_loaded_inside_the_guard_is_pinned_and_restored():
    guarded = json.loads(_run(_LATE_LOAD_PROBE, False, "guarded"))
    unguarded = json.loads(_run(_LATE_LOAD_PROBE, False, "unguarded"))
    # The guard was entered before scipy was imported: only what the GP's
    # first fit loads can have put scipy's OpenBLAS in the process.
    assert guarded["scipy_at_entry"] == []
    if len(unguarded["after"]) <= len(unguarded["before"]):
        pytest.skip("the GP's first fit loaded no OpenBLAS of its own")
    defaults = unguarded["after"]
    if 1 in defaults:
        pytest.skip("an OpenBLAS starts on one thread: nothing to pin")
    # A load outside any guard changes nothing.
    assert unguarded["before"] == defaults[: len(unguarded["before"])]
    assert guarded["before"] == unguarded["before"]
    assert guarded["inside"] == guarded["after_inner"] == [1] * len(defaults)
    assert guarded["after"] == defaults


@pytest.mark.slow
def test_a_guarded_trace_equals_the_env_pinned_one():
    guarded = json.loads(_run(_TRACE_PROBE, pinned=False))
    assert len(guarded) == 24
    assert guarded == json.loads(_run(_TRACE_PROBE, pinned=True))


def test_an_explicit_environment_count_wins(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.setattr(blas, "openblas_controls", lambda: pytest.fail("looked for OpenBLAS"))
    with blas.one_blas_thread():
        pass


def test_no_library_logs_once_and_changes_nothing(monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.setattr(blas, "_candidate_paths", lambda: [])
    monkeypatch.setattr(blas, "_warned", False)
    # Outside the session's guard: this guard is the outermost one.
    monkeypatch.setattr(blas, "_depth", 0)
    monkeypatch.setattr(blas, "_restore", [])
    messages = []
    monkeypatch.setattr(
        blas, "get_logger", lambda name: type("Log", (), {"info": lambda self, *a: messages.append(a)})()
    )
    for _ in range(2):
        with blas.one_blas_thread():
            assert blas._restore == []
    assert len(messages) == 1


def test_a_scipy_module_that_is_not_there_fails_naming_the_pin():
    with pytest.raises(ImportError, match=r"scipy\.linalg\._no_such_module .*scipy>=1\.17,<1\.18"):
        blas.scipy_extension("linalg", "_no_such_module")
    assert "scipy.linalg._no_such_module" not in sys.modules
    with pytest.raises(ImportError, match=r"scipy\.linalg\._flapack has no dno_such_routine;.*scipy>=1\.17,<1\.18"):
        blas.scipy_extension("linalg", "_flapack", "dpotrf", "dno_such_routine")


@pytest.mark.parametrize("order", ["packages-first", "loader-first"])
def test_the_gp_and_the_scipy_packages_share_one_load_of_each_module(order):
    report = json.loads(_run(_LOADER_PROBE, True, order))
    assert report == {"loaded_once": True, "lapack": [True] * 4, "flapack": [True] * 4,
                      "setulb": True, "special": [True, True]}
