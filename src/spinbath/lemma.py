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
  frequency spectrum. The verdict is Decoheres exactly when both
  hypothesis checks pass; the sum's magnitude at t_P/2 is reported as a
  diagnostic but never consulted.

All thresholds are explicit and overridable, and every diagnostic is
reported regardless of the verdict, so callers can re-gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .errors import DegenerateSetError, InvalidParameterError
from .model import SpinBathModel
from .spectrum import ENUMERATION_CAP, SpectralDecomposition, spectral_decomposition


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


def _frozen_float64(values) -> np.ndarray:
    """``values`` itself if a read-only float64 array, else a float64 copy."""
    array = np.asarray(values)
    if array.dtype == np.float64 and not array.flags.writeable:
        return array
    return np.array(array, dtype=np.float64)


@dataclass(frozen=True)
class WeightedPointSet:
    """Frequencies with nonnegative weights, stored sorted by frequency.

    Read-only float64 input, such as a SpectralDecomposition's arrays, is
    kept without a copy; any other input is copied, so that the set cannot
    change after it is built.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        points = _frozen_float64(self.points)
        weights = _frozen_float64(self.weights)
        if points.ndim != 1 or weights.shape != points.shape:
            raise InvalidParameterError("points and weights must be 1-d and equal length")
        if points.size == 0:
            raise InvalidParameterError("a point set needs at least one point")
        if not (np.all(np.isfinite(points)) and np.all(np.isfinite(weights))):
            raise InvalidParameterError("points and weights must be finite")
        if np.any(weights < 0):
            raise InvalidParameterError("weights must be nonnegative")
        if np.any(points[1:] < points[:-1]):
            order = np.argsort(points, kind="stable")
            points = points[order]
            weights = weights[order]
        points.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)

    @property
    def n_points(self) -> int:
        return int(self.points.size)

    @classmethod
    def from_decomposition(cls, dec: SpectralDecomposition) -> "WeightedPointSet":
        return cls(dec.omega, dec.weight)


@dataclass(frozen=True)
class VerdictConfig:
    """Everything the verdict pipeline can be tuned with.

    The quasi-continuity gates: n_min encodes "many points"; cv_max caps
    the spread of nearest-neighbor gaps relative to their mean; ks_max
    caps the sup-distance between the empirical CDF and the uniform CDF on
    the spanned interval. The weight gates: eps_global caps every weight;
    eps_group caps max-minus-min within each partition group. g_groups
    None means ceil(sqrt(n)) groups, so group count and group size both
    grow with the spectrum.
    """

    n_min: int = 64
    cv_max: float = 1.0
    ks_max: float = 0.2
    eps_global: float = 1e-3
    eps_group: float = 1e-3
    g_groups: int | None = None
    q_max: int = 10**6
    rel_tolerance: float = 1e-9
    omega_tolerance: float = 0.0
    enumeration_cap: int = ENUMERATION_CAP


@dataclass(frozen=True)
class QCDiagnostics:
    n_points: int
    gap_cv: float
    ks_stat: float
    size_ok: bool
    cv_ok: bool
    ks_ok: bool


@dataclass(frozen=True)
class L1Diagnostics:
    max_weight: float
    max_group_deviation: float
    worst_group_index: int
    global_ok: bool
    group_ok: bool


@dataclass(frozen=True)
class PartitionScheme:
    """Contiguous grouping of the sorted points into G near-equal groups.

    group_boundaries holds half-open index ranges; p_per_group is the
    per-group capacity minus one (so G * (P + 1) >= n always holds).
    """

    g_groups: int
    p_per_group: int
    group_boundaries: tuple[tuple[int, int], ...]


def check_quasi_continuous(
    point_set: WeightedPointSet,
    config: VerdictConfig = VerdictConfig(),
) -> tuple[bool, QCDiagnostics]:
    """Test whether the points are numerous and nearly uniformly spread.

    Returns the boolean gate result together with diagnostics that are
    always fully populated, whatever the outcome.
    """
    pts = point_set.points
    n = pts.size
    if n < 2:
        raise InvalidParameterError("quasi-continuity needs at least 2 points")
    span = float(pts[-1] - pts[0])
    if span == 0.0:
        raise DegenerateSetError("all points coincide; no spread to measure")

    gaps = np.diff(pts)
    mean_gap = span / (n - 1)
    gap_cv = float(np.std(gaps) / mean_gap)
    del gaps

    # The empirical CDF steps from grid[i] to grid[i + 1] at the i-th point.
    u = (pts - pts[0]) / span
    grid = np.arange(n + 1) / n
    above = np.max(grid[1:] - u)
    u -= grid[:-1]
    ks_stat = float(max(above, np.max(u)))

    size_ok = n >= config.n_min
    cv_ok = gap_cv <= config.cv_max
    ks_ok = ks_stat <= config.ks_max
    diag = QCDiagnostics(n, gap_cv, ks_stat, size_ok, cv_ok, ks_ok)
    return size_ok and cv_ok and ks_ok, diag


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
    base, extra = divmod(n, g_groups)
    boundaries = []
    start = 0
    for k in range(g_groups):
        stop = start + base + (1 if k < extra else 0)
        boundaries.append((start, stop))
        start = stop
    p_per_group = -(-n // g_groups) - 1
    return PartitionScheme(g_groups, p_per_group, tuple(boundaries))


def check_l1(
    point_set: WeightedPointSet,
    partition: PartitionScheme,
    config: VerdictConfig = VerdictConfig(),
) -> tuple[bool, L1Diagnostics]:
    """Test whether weights are globally small and locally near-constant."""
    n = point_set.n_points
    bounds = partition.group_boundaries
    if len(bounds) != partition.g_groups:
        raise InvalidParameterError("partition boundary count disagrees with g_groups")
    cursor = 0
    for start, stop in bounds:
        if start != cursor or stop <= start:
            raise InvalidParameterError("partition must cover the set contiguously")
        cursor = stop
    if cursor != n:
        raise InvalidParameterError(
            f"partition covers {cursor} points, set has {n}"
        )

    weights = point_set.weights
    max_weight = float(np.max(weights))
    starts = np.array([start for start, _ in bounds], dtype=np.intp)
    deviations = np.maximum.reduceat(weights, starts) - np.minimum.reduceat(weights, starts)
    worst = int(np.argmax(deviations))  # the first group on a tie
    max_dev = float(deviations[worst])
    global_ok = max_weight <= config.eps_global
    group_ok = max_dev <= config.eps_group
    diag = L1Diagnostics(max_weight, max_dev, worst, global_ok, group_ok)
    return global_ok and group_ok, diag


def lemma_sum(point_set: WeightedPointSet, t: float) -> complex:
    """Evaluate sum_i w_i e^{+i x_i t} with the stored weights.

    On a spin bath's spectral weights (which sum to 1) this is r(t).
    """
    if not math.isfinite(t):
        raise InvalidParameterError(f"t must be finite, got {t!r}")
    return complex(np.sum(point_set.weights * np.exp(1j * point_set.points * t)))


# ---------------------------------------------------------------------------
# Recurrence time
# ---------------------------------------------------------------------------

_MAX_CF_STEPS = 64


def _rationalize(x: float, q_max: int, rel_tolerance: float) -> tuple[int, int] | None:
    """Recognize x as a ratio p/q of small integers, or refuse.

    Walks the continued fraction of x and accepts a convergent only when
    the expansion terminates or the next partial quotient would exceed
    1/sqrt(rel_tolerance) - the signature of a genuine rational perturbed
    by rounding noise. A generic irrational keeps producing modest
    quotients, so its denominators grow past q_max and the walk refuses;
    accepting any convergent that merely lands within tolerance would
    wrongly rationalize irrationals, since sufficiently large denominators
    approximate everything.
    """
    jump = max(16.0, 1.0 / math.sqrt(rel_tolerance))
    h1, h0 = 1, 0
    k1, k0 = 0, 1
    value = x
    for _ in range(_MAX_CF_STEPS):
        a = math.floor(value)
        h1, h0 = a * h1 + h0, h1
        k1, k0 = a * k1 + k0, k1
        if k1 > q_max:
            return None
        frac = value - a
        accept = False
        if frac <= 0.0:
            accept = True
        elif 1.0 / frac > jump:
            accept = True
        if accept:
            if h1 < 1:
                return None
            if abs(x - h1 / k1) > rel_tolerance * abs(x):
                return None
            return h1, k1
        value = 1.0 / frac
    return None


def _common_divisor(a: float, b: float, q_max: int, rel_tolerance: float) -> float | None:
    """Largest d with a = p*d, b = q*d for small integers p, q; None if absent."""
    pq = _rationalize(a / b, q_max, rel_tolerance)
    if pq is None:
        return None
    _, q = pq
    return b / q


def estimate_recurrence_time(
    point_set: WeightedPointSet,
    q_max: int = 10**6,
    rel_tolerance: float = 1e-9,
):
    """Period 2*pi/Delta of the sum, where Delta divides every frequency gap.

    Delta is folded over consecutive differences of the distinct points by
    continued-fraction rationalization with denominators capped at q_max,
    then every difference is verified to be an integer multiple of Delta
    within rel_tolerance. Any failure, including a single distinct point,
    yields EFFECTIVELY_INFINITE: no recurrence structure at this precision.
    So does a Delta so small that 2*pi/Delta overflows to infinity.
    """
    if q_max < 1:
        raise InvalidParameterError(f"q_max must be >= 1, got {q_max}")
    if not 0.0 < rel_tolerance < 1.0:
        raise InvalidParameterError(
            f"rel_tolerance must lie in (0, 1), got {rel_tolerance!r}"
        )
    points = point_set.points
    distinct = points[np.concatenate(([True], points[1:] != points[:-1]))]
    if distinct.size < 2:
        return EFFECTIVELY_INFINITE
    deltas = np.diff(distinct)
    delta = float(deltas[0])
    for d in deltas[1:]:
        divisor = _common_divisor(float(d), delta, q_max, rel_tolerance)
        if divisor is None:
            return EFFECTIVELY_INFINITE
        delta = divisor
    for d in deltas:
        d = float(d)
        multiple = round(d / delta)
        if multiple < 1 or abs(d - multiple * delta) > rel_tolerance * d:
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
    ``verdict`` is Decoheres exactly when both hypothesis booleans hold.
    ``lemma_sum_magnitude_at_half_tp`` is informational only, and
    ``has_degenerate_lines`` flags that distinct indices collided into
    shared frequencies (the checks run on the aggregated spectrum).
    :meth:`to_dict` is the JSON that ``predict`` writes.
    """

    n_spins: int
    sum_of_weights: float
    n_points: int
    quasi_continuous: bool
    qc_gap_cv: float
    qc_ks_stat: float
    in_l1: bool
    l1_max_weight: float
    l1_max_group_deviation: float
    recurrence_time: float | _Sentinel
    lemma_sum_magnitude_at_half_tp: float | _Sentinel
    verdict: Verdict
    has_degenerate_lines: bool = False

    def to_dict(self) -> dict:
        """JSON-compatible view in field order; sentinels and the verdict
        become descriptive strings."""
        return {f.name: _json_value(getattr(self, f.name)) for f in fields(self)}


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
    Decoheres iff the aggregated set passes quasi-continuity and the
    weight checks. The recurrence time and, when finite, the sum magnitude
    at half of it are attached as diagnostics.
    """
    dec = spectral_decomposition(
        model, config.omega_tolerance, max_spins=config.enumeration_cap
    )
    return verdict_from_decomposition(dec, config)


def verdict_from_decomposition(
    dec: SpectralDecomposition,
    config: VerdictConfig = VerdictConfig(),
) -> LemmaReport:
    """Verdict pipeline on an already-enumerated spectrum."""
    points = WeightedPointSet.from_decomposition(dec)
    n = points.n_points
    if n < 2:
        raise DegenerateSetError("spectrum collapsed to a single line")

    ok_qc, qc_diag = check_quasi_continuous(points, config)
    g_groups = default_g_groups(n) if config.g_groups is None else config.g_groups
    partition = make_partition(points, g_groups)
    ok_l1, l1_diag = check_l1(points, partition, config)
    recurrence = estimate_recurrence_time(points, config.q_max, config.rel_tolerance)
    if isinstance(recurrence, float):
        magnitude = abs(lemma_sum(points, recurrence / 2.0))
    else:
        magnitude = NOT_EVALUATED

    return LemmaReport(
        n_spins=dec.n_spins,
        sum_of_weights=dec.weight_sum,
        n_points=n,
        quasi_continuous=ok_qc,
        qc_gap_cv=qc_diag.gap_cv,
        qc_ks_stat=qc_diag.ks_stat,
        in_l1=ok_l1,
        l1_max_weight=l1_diag.max_weight,
        l1_max_group_deviation=l1_diag.max_group_deviation,
        recurrence_time=recurrence,
        lemma_sum_magnitude_at_half_tp=magnitude,
        verdict=Verdict.DECOHERES if (ok_qc and ok_l1) else Verdict.NO_VERDICT,
        has_degenerate_lines=bool(np.any(dec.multiplicity > 1)),
    )
