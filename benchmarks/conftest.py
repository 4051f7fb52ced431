"""Benchmark-suite configuration.

The benches are pytest-benchmark tests; each runs its experiment exactly
once (``rounds=1``) because a run is an entire simulation campaign, not a
micro-kernel.  Use ``pytest benchmarks/ --benchmark-only`` to execute them
all; each prints its figure report and persists it under
``benchmarks/results/``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# the ablation benches import their baselines from tests/oracles.py
sys.path.insert(0, str(Path(__file__).parent.parent))


@pytest.fixture
def once(benchmark):
    """Run the experiment exactly once under pytest-benchmark timing."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1, warmup_rounds=0)

    return runner
