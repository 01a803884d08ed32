"""Benchmark-suite configuration.

Every table/figure benchmark runs its experiment exactly once inside
``benchmark.pedantic`` (training runs are far too expensive for repeated
rounds).
"""

import pytest


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment a single time under the benchmark clock."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def once(benchmark):
    def _once(fn, *args, **kwargs):
        return run_once(benchmark, fn, *args, **kwargs)

    return _once
