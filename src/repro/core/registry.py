"""The technique registry: name -> factory + capability flags.

Replaces the harness's hardcoded ``TECHNIQUES`` tuple.  Each technique module
registers itself with :func:`register_technique`, declaring its capabilities:

* ``workload_level`` — the technique optimizes a whole workload at once
  (implements :class:`~repro.core.protocol.WorkloadOptimizer`; LimeQO) rather
  than one query at a time,
* ``needs_schema_model`` — the technique requires the per-schema VAE/latent
  space (BayesQO); the harness trains it lazily and shares one instance,
* ``ignores_execution_cap`` — the technique's search space is naturally
  bounded, so only the time axis of the budget applies (Bao's 49 hint sets),
* ``order_sensitive`` — the technique shares mutable state (RNG, model)
  across per-query states (Balsa), so the harness must schedule its queries
  sequentially to keep results deterministic,
* ``supports_batch`` — the technique implements the
  :class:`~repro.core.protocol.BatchOptimizer` extension
  (``suggest_batch(state, q)``) and can keep several proposals in flight per
  query (BayesQO, Random); the harness falls back to ``q = 1`` transparently
  for techniques without the flag.

Factories receive a :class:`TechniqueContext` — everything a technique might
need to construct itself — and return a protocol-conformant optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.exceptions import OptimizationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import BayesQOConfig
    from repro.core.optimizer import SchemaModel
    from repro.db.engine import Database
    from repro.workloads.base import Workload


@dataclass
class TechniqueContext:
    """What a technique factory may draw on when building an optimizer."""

    database: "Database"
    workload: "Workload | None" = None
    schema_model: "SchemaModel | None" = None
    bayes_config: "BayesQOConfig | None" = None
    seed: int = 0


@dataclass(frozen=True)
class TechniqueSpec:
    """One registered technique: its factory plus capability flags."""

    name: str
    factory: Callable[[TechniqueContext], object]
    workload_level: bool = False
    needs_schema_model: bool = False
    ignores_execution_cap: bool = False
    order_sensitive: bool = False
    supports_batch: bool = False
    description: str = ""


_REGISTRY: dict[str, TechniqueSpec] = {}

#: Modules whose import registers the built-in techniques.  Loaded lazily on
#: first lookup so `from repro.core import create_optimizer` works without
#: requiring the caller to import repro.baselines (or the harness) for its
#: registration side effect.
_TECHNIQUE_MODULES = (
    "repro.core.optimizer",
    "repro.baselines.bao",
    "repro.baselines.random_search",
    "repro.baselines.balsa",
    "repro.baselines.limeqo",
)
_BUILTINS_LOADED = False


def _ensure_builtins_registered() -> None:
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True  # set first: the imports below re-enter this module
    import importlib

    for module in _TECHNIQUE_MODULES:
        importlib.import_module(module)


def register_technique(
    name: str,
    *,
    workload_level: bool = False,
    needs_schema_model: bool = False,
    ignores_execution_cap: bool = False,
    order_sensitive: bool = False,
    supports_batch: bool = False,
    description: str = "",
) -> Callable[[Callable[[TechniqueContext], object]], Callable[[TechniqueContext], object]]:
    """Decorator registering ``factory`` as the builder for technique ``name``."""

    def decorator(factory: Callable[[TechniqueContext], object]):
        if name in _REGISTRY:
            raise OptimizationError(f"technique {name!r} is already registered")
        _REGISTRY[name] = TechniqueSpec(
            name=name,
            factory=factory,
            workload_level=workload_level,
            needs_schema_model=needs_schema_model,
            ignores_execution_cap=ignores_execution_cap,
            order_sensitive=order_sensitive,
            supports_batch=supports_batch,
            description=description,
        )
        return factory

    return decorator


def get_technique(name: str) -> TechniqueSpec:
    """Look up a registered technique; raises with the known names otherwise."""
    _ensure_builtins_registered()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise OptimizationError(
            f"unknown technique {name!r}; pick one of {technique_names()}"
        ) from None


def technique_names() -> tuple[str, ...]:
    """All registered technique names, in sorted order."""
    _ensure_builtins_registered()
    return tuple(sorted(_REGISTRY))


def create_optimizer(name: str, context: TechniqueContext):
    """Build a protocol optimizer for ``name`` from ``context``."""
    return get_technique(name).factory(context)
