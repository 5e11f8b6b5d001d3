"""Shared builders for the test suite.

Every random draw in the suite goes through a seeded Generator so the
whole run is reproducible; helpers here only wrap the drawing protocol,
they never touch package internals.
"""

import math

import numpy as np
import pytest

from spinbath import (
    FullObservable,
    LocalObservable,
    RelevantObservable,
    SpinBathModel,
)

ROOT_HALF = math.sqrt(0.5)


def bounded_model(n, rng, a2_lo=0.0, a2_hi=1.0, phases=False, g_lo=0.0, g_hi=1.0):
    """Random model with |alpha|^2 restricted to [a2_lo, a2_hi]."""
    spins = []
    for _ in range(n):
        a2 = rng.uniform(a2_lo, a2_hi)
        amp_a, amp_b = math.sqrt(a2), math.sqrt(1.0 - a2)
        if phases:
            pa, pb = 2.0 * math.pi * rng.random(2)
            alpha = amp_a * complex(math.cos(pa), math.sin(pa))
            beta = amp_b * complex(math.cos(pb), math.sin(pb))
        else:
            alpha, beta = complex(amp_a), complex(amp_b)
        g = rng.uniform(g_lo, g_hi)
        if g == 0.0:
            g = g_hi
        spins.append((alpha, beta, g))
    return SpinBathModel(complex(ROOT_HALF), complex(ROOT_HALF), *zip(*spins))


def triples(model):
    """The bath as (alpha, beta, g) Python triples, one per spin in order."""
    return list(zip(model.alpha.tolist(), model.beta.tolist(), model.g.tolist()))


def random_system_observable(rng):
    c = rng.uniform(-1.0, 1.0, size=4)
    return RelevantObservable(c[0], c[1], complex(c[2], c[3]))


def random_full_observable(rng, n):
    parts = []
    for _ in range(n):
        e = rng.uniform(-0.5, 0.5, size=4)
        parts.append(LocalObservable(e[0], e[1], complex(e[2], e[3])))
    return FullObservable(random_system_observable(rng), tuple(parts))


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)
