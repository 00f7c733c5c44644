"""Tests for the initialization strategies."""

import pytest

from repro.core.initialization import (
    bao_initialization,
    build_initial_plans,
    default_initialization,
    llm_initialization,
    random_initialization,
)
from repro.exceptions import OptimizationError
from repro.plans.sampling import random_join_trees


class TestInitialization:
    def test_bao_initialization_deduplicated(self, tiny_database, tiny_query):
        plans = bao_initialization(tiny_database, tiny_query)
        assert 1 <= len(plans) <= 49
        keys = [plan.canonical() for plan, _ in plans]
        assert len(keys) == len(set(keys))
        assert all(source == "init:bao" for _, source in plans)

    def test_bao_contains_default_plan(self, tiny_database, tiny_query):
        default = tiny_database.plan(tiny_query).canonical()
        plans = {plan.canonical() for plan, _ in bao_initialization(tiny_database, tiny_query)}
        assert default in plans

    def test_default_initialization(self, tiny_database, tiny_query):
        plans = default_initialization(tiny_database, tiny_query)
        assert len(plans) == 1
        assert plans[0][1] == "init:default"

    def test_random_initialization(self, tiny_query):
        plans = random_initialization(tiny_query, 10, seed=1)
        assert 1 <= len(plans) <= 10
        for plan, source in plans:
            plan.validate_for_query(tiny_query)
            assert source == "init:random"

    def test_llm_initialization_uses_generator(self, tiny_query):
        class FakeGenerator:
            def generate_plans(self, query, count):
                return [plan for plan in random_join_trees(query, count, seed=0)]

        plans = llm_initialization(FakeGenerator(), tiny_query, 5)
        assert plans and all(source == "init:llm" for _, source in plans)

    def test_build_dispatch(self, tiny_database, tiny_query):
        assert build_initial_plans("bao", tiny_database, tiny_query)
        assert build_initial_plans("default", tiny_database, tiny_query)
        assert build_initial_plans("random", tiny_database, tiny_query, count=5)
        provided = [tiny_database.plan(tiny_query)]
        assert build_initial_plans("provided", tiny_database, tiny_query, provided=provided)

    def test_build_llm_requires_generator(self, tiny_database, tiny_query):
        with pytest.raises(OptimizationError):
            build_initial_plans("llm", tiny_database, tiny_query)

    def test_build_provided_requires_plans(self, tiny_database, tiny_query):
        with pytest.raises(OptimizationError):
            build_initial_plans("provided", tiny_database, tiny_query)

    def test_build_unknown_strategy(self, tiny_database, tiny_query):
        with pytest.raises(OptimizationError):
            build_initial_plans("nope", tiny_database, tiny_query)

