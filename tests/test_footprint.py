"""What a process loads: numpy at import, scipy's linear algebra at a GP's first use.

A plan server or a pool worker never fits a GP, so importing the package
must not pull scipy in (with its statistics package and networkx, that was
~0.7 s and ~80 MiB), and no path at all may need ``scipy.stats`` or networkx.
Each check runs in a fresh interpreter: the test session has them all loaded.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

TESTS = os.path.dirname(os.path.abspath(__file__))

_PROBE = """
import json, sys

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
print(json.dumps(report))
"""


def _probe() -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([TESTS, *sys.path]))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, check=True, capture_output=True, text=True,
        timeout=300,
    ).stdout
    return json.loads(out)


def test_importing_loads_no_scipy_and_a_bayesqo_run_only_its_linear_algebra():
    report = _probe()
    assert report["imported"] == []
    assert report["trained"] == []
    assert report["executions"] == 12 and report["bo_proposals"] > 0
    loaded = report["optimized"]
    assert "scipy.linalg" in loaded
    assert not [m for m in loaded if m == "networkx" or m.startswith(("networkx.", "scipy.stats"))]
