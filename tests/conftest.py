"""Shared fixtures for the test suite."""

from __future__ import annotations

from math import inf

import numpy as np
import pytest

from repro.config import SimConfig
from repro.runtime.context import DistContext

#: the step law of :class:`AffineTable`: ``FLOOR + tokens * PER_TOKEN``
FLOOR = 1e-3
PER_TOKEN = 1e-5


class AffineTable:
    """A latency table whose affine step law ignores the context, so
    serving timelines can be checked to the bit without the simulator.

    The table is its own pricer and implements the
    :class:`~repro.serve.latency.StepPricer` surface: ``decode_coeffs``
    returns a flat cell.  With ``calls`` it records every ``(tokens,
    ctx)`` the engine resolves, and ends each cell at ``ctx`` so the
    engine resolves again on every decode step.
    """

    def __init__(self, calls: list | None = None):
        self.calls = calls

    def interpolator(self, model, method, world=8, spec=None, seed=0):
        return self

    def __call__(self, tokens: int, ctx: int = 0) -> float:
        return FLOOR + tokens * PER_TOKEN

    def decode_coeffs(self, tokens: int, ctx: int) -> tuple:
        if self.calls is None:
            return (0, self(tokens, ctx), inf)
        self.calls.append((tokens, ctx))
        return (0, self(tokens, ctx), ctx)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def make_ctx(world: int = 4, numerics: bool = True, trace: bool = False,
             **kw) -> DistContext:
    cfg = SimConfig(world_size=world, execute_numerics=numerics, trace=trace,
                    **kw)
    return DistContext.create(cfg)


@pytest.fixture
def ctx4() -> DistContext:
    """A 4-rank numeric-mode context."""
    return make_ctx(4)


@pytest.fixture
def ctx2() -> DistContext:
    return make_ctx(2)
