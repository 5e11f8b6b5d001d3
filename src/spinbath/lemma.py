"""Analytical decoherence verdict for finite trigonometric sums.

A sum  sum_i w_i e^{i x_i t}  over a large, nearly uniformly distributed
frequency set with small, slowly varying nonnegative weights stays near
zero for times long before its recurrence. That statement turns into a
decision procedure here:

* :func:`check_quasi_continuous` tests the "many, uniformly spread points"
  hypothesis via three gates: a minimum count, the coefficient of
  variation of nearest-neighbor gaps, and a Kolmogorov-style sup-distance
  between the empirical point CDF and the uniform CDF on [min, max].
* :func:`check_l1` tests the "small, roughly constant weights" hypothesis:
  a global cap on the largest weight and a per-group max-minus-min cap
  over a contiguous partition of the sorted points.
* :func:`estimate_recurrence_time` rationalizes consecutive frequency
  differences by continued fractions to find a common divisor Delta and
  returns t_P = 2*pi/Delta, or EffectivelyInfinite when the differences
  are incommensurate at working precision.
* :func:`decoherence_verdict` runs the full pipeline on a model's exact
  frequency spectrum. The verdict is Decoheres exactly when every gate row
  passes; the sum's magnitude at t_P/2 is reported as a diagnostic but
  never consulted.

All thresholds are explicit and overridable, and every diagnostic is
reported regardless of the verdict, so callers can re-gate.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

from .errors import DegenerateSetError, InvalidParameterError
from .model import SpinBathModel, check_phases
from .spectrum import SpectralDecomposition, WeightedPointSet, spectral_decomposition


class _Sentinel:
    """Named singleton for non-numeric report values; ``label`` is its JSON string."""

    __slots__ = ("_name", "label")

    def __init__(self, name: str, label: str):
        self._name = name
        self.label = label

    def __repr__(self) -> str:
        return self._name


EFFECTIVELY_INFINITE = _Sentinel("EffectivelyInfinite", "effectively_infinite")
NOT_EVALUATED = _Sentinel("NotEvaluated", "not_evaluated")


class Verdict(Enum):
    DECOHERES = "decoheres"
    NO_VERDICT = "no_verdict"


@dataclass(frozen=True)
class VerdictConfig:
    """The verdict's thresholds, one per row of the gate table GATES, which
    says which gate each one bounds and from which side."""

    n_min: int = 64
    cv_max: float = 1.0
    ks_max: float = 0.2
    eps_global: float = 1e-3
    eps_group: float = 1e-3


@dataclass(frozen=True)
class Gate:
    """One gate of the verdict: a measured ``value`` against its ``threshold``."""

    name: str
    value: float
    threshold: float
    passed: bool


# The gate table: each gate's VerdictConfig threshold field and the test its
# value must pass against it. ``count`` is a floor, the others are caps.
GATES = {
    "count": ("n_min", operator.ge),
    "gap_cv": ("cv_max", operator.le),
    "ks": ("ks_max", operator.le),
    "max_weight": ("eps_global", operator.le),
    "group_deviation": ("eps_group", operator.le),
}


def _gates(config: VerdictConfig, **values: float) -> tuple[Gate, ...]:
    """One row per named value, in the order given, judged by the gate table."""
    rows = []
    for name, value in values.items():
        key, passes = GATES[name]
        threshold = getattr(config, key)
        rows.append(Gate(name, value, threshold, passes(value, threshold)))
    return tuple(rows)


@dataclass(frozen=True, eq=False)
class PartitionScheme:
    """Contiguous grouping of n_points sorted points: group k runs from
    starts[k] up to the next start, the last group up to n_points.

    The starts rise strictly from 0 and stay below n_points, so every group
    holds at least one point and the groups cover the set.
    """

    starts: np.ndarray
    n_points: int

    def __post_init__(self):
        starts = np.array(self.starts, dtype=np.intp)
        if not (
            starts.ndim == 1 and starts.size >= 1 and starts[0] == 0
            and np.all(starts[1:] > starts[:-1]) and starts[-1] < self.n_points
        ):
            raise InvalidParameterError(
                f"partition starts must rise strictly from 0 and stay below "
                f"{self.n_points}, got {starts.tolist()}"
            )
        starts.setflags(write=False)
        object.__setattr__(self, "starts", starts)

    @property
    def g_groups(self) -> int:
        return int(self.starts.size)


def check_quasi_continuous(
    point_set: WeightedPointSet,
    config: VerdictConfig = VerdictConfig(),
) -> tuple[Gate, ...]:
    """Test whether the points are numerous and nearly uniformly spread:
    the ``count``, ``gap_cv`` and ``ks`` rows, filled in whatever the outcome."""
    pts = point_set.points
    n = pts.size
    if n < 2:
        raise InvalidParameterError("quasi-continuity needs at least 2 points")
    span = float(pts[-1] - pts[0])
    if span == 0.0:
        raise DegenerateSetError("all points coincide; no spread to measure")

    gaps = np.diff(pts)
    mean_gap = span / (n - 1)
    # np.std squares the gaps' deviations, which can overflow on a finite span
    with np.errstate(over="ignore", invalid="ignore"):
        gap_cv = float(np.std(gaps) / mean_gap)
    del gaps
    if not math.isfinite(gap_cv):
        raise InvalidParameterError(
            f"the gap spread of points from {float(pts[0])!r} to {float(pts[-1])!r} "
            "is beyond the float range"
        )

    # The empirical CDF steps from grid[i] to grid[i + 1] at the i-th point.
    u = (pts - pts[0]) / span
    grid = np.arange(n + 1) / n
    above = np.max(grid[1:] - u)
    u -= grid[:-1]
    ks_stat = float(max(above, np.max(u)))

    return _gates(config, count=n, gap_cv=gap_cv, ks=ks_stat)


def make_partition(point_set: WeightedPointSet, g_groups: int) -> PartitionScheme:
    """Split the sorted points into g_groups contiguous near-equal groups.

    Sizes differ by at most one; the first n mod G groups take the extra
    point.
    """
    n = point_set.n_points
    if not 1 <= g_groups <= n:
        raise InvalidParameterError(
            f"g_groups must lie in [1, {n}], got {g_groups}"
        )
    # group k starts after k groups of n // G points and min(k, n % G) extras
    base, extra = divmod(n, g_groups)
    k = np.arange(g_groups)
    return PartitionScheme(k * base + np.minimum(k, extra), n)


def check_l1(
    point_set: WeightedPointSet,
    partition: PartitionScheme,
    config: VerdictConfig = VerdictConfig(),
) -> tuple[tuple[Gate, ...], int]:
    """Test whether weights are globally small and locally near-constant:
    the ``max_weight`` and ``group_deviation`` rows, and the index of the
    group that deviates most (the first on a tie)."""
    n = point_set.n_points
    if partition.n_points != n:
        raise InvalidParameterError(f"partition covers {partition.n_points} points, set has {n}")
    weights, starts = point_set.weights, partition.starts
    deviations = np.maximum.reduceat(weights, starts) - np.minimum.reduceat(weights, starts)
    worst = int(np.argmax(deviations))  # the first group on a tie
    rows = _gates(config, max_weight=float(np.max(weights)),
                  group_deviation=float(deviations[worst]))
    return rows, worst


def lemma_sum(point_set: WeightedPointSet, t: float) -> complex:
    """Evaluate sum_i w_i e^{+i x_i t} with the stored weights.

    On a spin bath's spectral weights (which sum to 1) this is r(t). t and
    the phases x_i t go by :func:`spinbath.model.check_phases`.
    """
    check_phases(point_set.points, t)
    return complex(np.sum(point_set.weights * np.exp(1j * point_set.points * t)))


# ---------------------------------------------------------------------------
# Recurrence time
# ---------------------------------------------------------------------------

# The recurrence search takes gap ratios p/q with q <= DENOMINATOR_CAP, and
# multiples of Delta within REL_TOLERANCE of their gaps.
DENOMINATOR_CAP = 10**6
REL_TOLERANCE = 1e-9
_JUMP = 1.0 / math.sqrt(REL_TOLERANCE)  # a partial quotient that ends a fraction


def _rationalize(x: float) -> tuple[int, int] | None:
    """Recognize x as a ratio p/q of small integers, or refuse.

    Walks the continued fraction of x and accepts a convergent only when
    the expansion terminates or the next partial quotient would exceed
    1/sqrt(REL_TOLERANCE) - the signature of a genuine rational perturbed
    by rounding noise. A generic irrational keeps producing modest
    quotients, so its denominators, growing at least as the Fibonacci
    numbers, pass DENOMINATOR_CAP within 31 steps and the walk refuses;
    accepting any convergent that merely lands within tolerance would
    wrongly rationalize irrationals, since sufficiently large denominators
    approximate everything. The convergent 0/1 of an x below 1 is never
    accepted: a large next quotient there says only that x is small, so the
    walk goes on to 1/floor(1/x) and beyond. An infinite x or remainder
    reciprocal is refused.
    """
    h1, h0 = 1, 0
    k1, k0 = 0, 1
    value = x
    while True:
        if not math.isfinite(value):
            return None
        a = math.floor(value)
        h1, h0 = a * h1 + h0, h1
        k1, k0 = a * k1 + k0, k1
        if k1 > DENOMINATOR_CAP:
            return None
        frac = value - a
        if frac <= 0.0 or (h1 != 0 and 1.0 / frac > _JUMP):
            if h1 < 1:
                return None
            if abs(x - h1 / k1) > REL_TOLERANCE * abs(x):
                return None
            return h1, k1
        value = 1.0 / frac


def _common_divisor(a: float, b: float) -> float | None:
    """Largest d with a = p*d, b = q*d for small integers p, q; None if absent."""
    pq = _rationalize(a / b)
    if pq is None:
        return None
    _, q = pq
    return b / q


def estimate_recurrence_time(point_set: WeightedPointSet):
    """Period 2*pi/Delta of the sum, where Delta divides every frequency gap.

    Delta is folded over the nonzero gaps between consecutive points (the
    gaps of the distinct points) by continued-fraction rationalization with
    denominators capped at DENOMINATOR_CAP, then every gap is verified to
    be an integer multiple of Delta within REL_TOLERANCE. Any failure,
    including a single distinct point or a multiple beyond the float range,
    yields EFFECTIVELY_INFINITE: no recurrence structure at this precision.
    So does a Delta so small that 2*pi/Delta overflows to infinity.
    """
    deltas = np.diff(point_set.points)
    deltas = deltas[deltas != 0.0]
    if deltas.size == 0:
        return EFFECTIVELY_INFINITE
    delta = float(deltas[0])
    for d in deltas[1:]:
        divisor = _common_divisor(float(d), delta)
        if divisor is None:
            return EFFECTIVELY_INFINITE
        delta = divisor
    with np.errstate(over="ignore"):
        multiples = np.round(deltas / delta)
        misses = np.abs(deltas - multiples * delta)
    if not np.all((multiples >= 1) & (misses <= REL_TOLERANCE * deltas)):
        return EFFECTIVELY_INFINITE
    period = 2.0 * math.pi / delta
    return period if math.isfinite(period) else EFFECTIVELY_INFINITE


# ---------------------------------------------------------------------------
# Verdict
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LemmaReport:
    """Complete outcome of the verdict pipeline, diagnostics included.

    ``sum_of_weights`` is the spectrum's correctly rounded weight sum.
    ``gates`` holds the five gate rows in the order of GATES; the fields
    that are not arguments are read off them, each hypothesis boolean as the
    AND of its rows and ``verdict`` as Decoheres exactly when all pass.
    ``lemma_sum_magnitude_at_half_tp`` is informational only, and
    ``has_degenerate_lines`` flags that distinct indices collided into
    shared frequencies (the checks run on the aggregated spectrum).
    :meth:`to_dict` is the JSON that ``predict`` writes.
    """

    n_spins: int
    sum_of_weights: float
    gates: tuple[Gate, ...]
    n_points: int = field(init=False)
    quasi_continuous: bool = field(init=False)
    qc_gap_cv: float = field(init=False)
    qc_ks_stat: float = field(init=False)
    in_l1: bool = field(init=False)
    l1_max_weight: float = field(init=False)
    l1_max_group_deviation: float = field(init=False)
    recurrence_time: float | _Sentinel
    lemma_sum_magnitude_at_half_tp: float | _Sentinel
    verdict: Verdict = field(init=False)
    has_degenerate_lines: bool = False

    def __post_init__(self):
        count, gap_cv, ks, max_weight, group_deviation = self.gates
        derived = dict(
            n_points=count.value, qc_gap_cv=gap_cv.value, qc_ks_stat=ks.value,
            l1_max_weight=max_weight.value, l1_max_group_deviation=group_deviation.value,
            quasi_continuous=all(g.passed for g in (count, gap_cv, ks)),
            in_l1=all(g.passed for g in (max_weight, group_deviation)),
            verdict=Verdict.DECOHERES if all(g.passed for g in self.gates) else Verdict.NO_VERDICT,
        )
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def to_dict(self) -> dict:
        """JSON-compatible view in field order, without the gate rows;
        sentinels and the verdict become descriptive strings."""
        keys = [f.name for f in fields(self) if f.name != "gates"]
        return {key: _json_value(getattr(self, key)) for key in keys}


def _json_value(value):
    if isinstance(value, Verdict):
        return value.value
    return value.label if isinstance(value, _Sentinel) else value


def default_g_groups(n: int) -> int:
    """ceil(sqrt(n)), clamped to [1, n]."""
    root = math.isqrt(n)
    if root * root < n:
        root += 1
    return min(max(root, 1), n)


def decoherence_verdict(
    model: SpinBathModel,
    config: VerdictConfig = VerdictConfig(),
) -> LemmaReport:
    """Run both hypothesis checks on the model's exact spectrum and decide.

    The spectrum is enumerated exactly and aggregated (coincident
    frequencies merged, weights summed) before checking; the verdict is
    Decoheres iff the aggregated set passes every gate. The recurrence
    time and, when finite, the sum magnitude at half of it are attached as
    diagnostics.
    """
    dec = spectral_decomposition(model)
    return verdict_from_decomposition(dec, config)


def verdict_from_decomposition(
    dec: SpectralDecomposition,
    config: VerdictConfig = VerdictConfig(),
) -> LemmaReport:
    """Verdict pipeline on an already-enumerated spectrum."""
    n = dec.n_lines
    if n < 2:
        raise DegenerateSetError("spectrum collapsed to a single line")

    qc = check_quasi_continuous(dec, config)
    l1, _ = check_l1(dec, make_partition(dec, default_g_groups(n)), config)
    recurrence = estimate_recurrence_time(dec)
    if isinstance(recurrence, float):
        magnitude = abs(lemma_sum(dec, recurrence / 2.0))
    else:
        magnitude = NOT_EVALUATED

    return LemmaReport(
        n_spins=dec.n_spins,
        sum_of_weights=dec.weight_sum,
        gates=qc + l1,
        recurrence_time=recurrence,
        lemma_sum_magnitude_at_half_tp=magnitude,
        has_degenerate_lines=n < 2**dec.n_spins,
    )
