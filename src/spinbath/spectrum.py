"""Exact discrete frequency content of r(t) and the brute-force oracle.

Expanding the product form of r(t) term by term gives a finite
trigonometric sum: each of the 2^N choices of alpha-or-beta per spin
contributes one frequency

    omega_nu = sum_i (-1)^{p_i} g_i        (p_i the per-spin choice bit)

with nonnegative weight  w_nu = prod_i |gamma_i|^2,  where gamma_i is
alpha_i when p_i = 1 and beta_i when p_i = 0. The bit convention places
spin 1 at the most significant digit of nu, so nu = 1 flips the sign of
g_N and nu = 0 carries +sum(g) with weight prod |beta|^2. The sum

    r(t) = sum_nu w_nu e^{+i omega_nu t}

is an exact identity with the product form, checked to 1e-10 in tests.

Collision handling is exact rather than approximate: couplings are
rescaled to integers over a common power-of-two denominator (every float
is a dyadic rational), and the signed subset sums are formed exactly by
one doubling over the spins, in int64 while they fit in 62 bits and as
Python ints beyond. The doubling keeps only the distinct sums, sorted,
each with the number of its terms and their total weight. Each step
merges the two sorted runs sums + m and sums - m and adds the counts and
weights of equal sums at once, so no global sort is needed and the cost
follows the number of distinct sums: the N + 1 lines of equal couplings
cost O(N) per step, weights included. Only the final division back to
float rounds, and sums that round to one float fold into one line. Equal
couplings therefore collide bit-exactly and merge into one line; random
couplings collide with probability zero. No two distinct floats ever
merge, so the lines are exactly the distinct frequencies of r(t).

The brute-force expectation at the bottom shares no code with the
closed forms in :mod:`spinbath.evolution`: it materializes the full
2^(N+1) state vector and every basis energy as outer products over the
spins, and applies the observable one 2x2 tensor factor at a time.
It exists purely as an independent cross-check.
"""

from __future__ import annotations

import functools
import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CapExceededError,
    EmptyEnvironmentError,
    IndexOutOfRangeError,
    InvalidParameterError,
)
from .model import (FullObservable, SpinBathModel, check_phases, observable_entries, read_only,
                    spin_moduli, stack_arrays)

ENUMERATION_CAP = 26
ORACLE_CAP = 12

_WEIGHT_SUM_TOLERANCE = 1e-12

# Peak-RSS rise per enumerated value, for the up-front memory check in
# _require_cap. Measured in a fresh process on generate_random(n, seed),
# seeds 1 to 3 (1 and 2 at N = 24): `predict`, which runs the verdict on
# the spectrum it holds, peaks at about 61 B per term at N = 18, 57 B at
# N = 20 and 49 B at N = 22 and 24, set by check_quasi_continuous; the
# int64 bound adds a margin to that. Random couplings set these bounds,
# since each of their sums is one term: equal couplings, whose doubling
# adds the weights as it goes and keeps only their N + 1 distinct sums,
# take under 0.1 B per term at N = 22 and 26 (12 B when all 2^N weights
# were kept; `predict --n 26 --equal-coupling 0.5` went from 0.4-0.75 s at
# 804 MB peak RSS to 0.015 s at 36 MB, the imports). So _require_cap
# charges an enumeration for the distinct sums it can hold
# (_distinct_sums_bound), not for its 2^N terms: 27 values for 26 equal
# couplings. In a fresh process `predict` on 4, 20 or 26 equal couplings
# raises the peak RSS by 6.0-6.2 MB over the imports, a fixed cost of the
# call, not of its lines. Partial ties (random couplings, seed 7, with
# 0.375 three times, 0.5, -0.5 and 0.125) raise it by 15.4, 59.9 and
# 238.5 MB at N = 20, 22 and 24, against estimates of 25.2, 101 and
# 403 MB for at most 3/8 of the 2^N sums (the lines are 17/64). Sums that
# need Python ints (couplings 1 and 2^-80, say) take about 77 B per term at N = 19 and
# 76 B at N = 20, so spectral_decomposition picks its bound by _fits_int64.
# hamiltonian_spectrum peaks at about 16-18 B per value at N = 20 to 22
# (under 1 B with equal couplings, 34 B where the sums need Python ints),
# so it has its own bound. brute_force_stack peaks at 50-52 B per state
# under tracemalloc at N = 8, 10 and 12 (the phased state and two copies of
# the evolved state while a factor is applied; the phases, at a quarter of
# the states, are freed before), and raises a fresh process's peak RSS by
# about 56.5 B per state on stacks of 2^19 states at N = 8, 10 and 12. A
# whole oracle-check stack (the bath draw, the closed-form pass and
# brute_force_stack) also holds arrays of O(N) per case: on stacks of 2^16
# states it peaks at about 50 B per state plus 240 + 204 N B per case
# (160 B per state at N = 1, 61 at N = 6, 50 at N = 12), so each case is
# charged 256 B per qubit, the system's and its N spins', on top of its
# states.
_INT64_ENUMERATION_BYTES_PER_VALUE = 64
_PYINT_ENUMERATION_BYTES_PER_VALUE = 100
_LEVEL_BYTES_PER_VALUE = 48
_ORACLE_BYTES_PER_STATE = 64
_ORACLE_BYTES_PER_CASE_QUBIT = 256

# _exact_sum bins this many values per np.bincount call, and folds its
# per-exponent sums into one Python int after at most _EXACT_SUM_BLOCK.
# Chunks of 2^14 (128 KB per temporary) measured faster than 2^12, 2^13,
# 2^15 and 2^16 on the spectral weights at N = 16, 20 and 22.
_EXACT_SUM_CHUNK = 1 << 14
_EXACT_SUM_BLOCK = 1 << 26
_LOW_MANTISSA_BITS = np.uint64((1 << 27) - 1)


def _exact_sum(values: np.ndarray) -> float:
    """The correctly rounded sum of finite nonnegative float64 values.

    It equals math.fsum, with no Python float per value. Each value splits
    exactly into a high part, its mantissa with the low 27 bits cleared,
    and the low remainder. Both parts are summed per biased exponent by
    np.bincount. Counted in units in the last place of their exponent, the
    high parts are multiples of 2^27 below 2^53 and the low parts are below
    2^27, so a sum of at most 2^26 of either keeps within 53 significant
    bits and is exact. The per-exponent sums are added as Python ints in
    units of 2^-1074 and divided once, and int / int rounds correctly,
    subnormal results included. A sum beyond the float range raises
    OverflowError, as fsum does.
    """
    bits = values.view(np.uint64)
    scaled = 0
    for block in range(0, bits.size, _EXACT_SUM_BLOCK):
        # bins 0..2047 are the biased exponents; the sign bit of -0.0 gives 2048
        sums = np.zeros((2, 2049))
        stop = min(block + _EXACT_SUM_BLOCK, bits.size)
        for start in range(block, stop, _EXACT_SUM_CHUNK):
            end = min(start + _EXACT_SUM_CHUNK, stop)
            exponent = (bits[start:end] >> 52).view(np.int64)
            high = (bits[start:end] & ~_LOW_MANTISSA_BITS).view(np.float64)
            sums[0] += np.bincount(exponent, high, 2049)
            sums[1] += np.bincount(exponent, values[start:end] - high, 2049)
        for part in sums[sums != 0.0]:
            numerator, denominator = part.as_integer_ratio()
            scaled += numerator << (1075 - denominator.bit_length())
    return scaled / (1 << 1074)


@dataclass(frozen=True, eq=False)
class WeightedPointSet:
    """Frequencies with nonnegative weights, stored sorted by frequency.

    Read-only float64 input is kept without a copy; any other input is
    copied, so that the set cannot change after it is built.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        points = read_only(self.points, np.float64)
        weights = read_only(self.weights, np.float64)
        if points.ndim != 1 or weights.shape != points.shape:
            raise InvalidParameterError("points and weights must be 1-d and equal length")
        if points.size == 0:
            raise InvalidParameterError("a point set needs at least one line")
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
        # Python floats: a span beyond the float range is inf, with no warning
        if not math.isfinite(float(points[-1]) - float(points[0])):
            raise InvalidParameterError(
                f"points from {float(points[0])!r} to {float(points[-1])!r} span "
                "beyond the float range"
            )
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)

    @property
    def n_points(self) -> int:
        return int(self.points.size)


@dataclass(frozen=True, eq=False)
class SpectralDecomposition(WeightedPointSet):
    """All frequencies of r(t) for an N-spin model, merged: the point set
    that the lemma judges, its ``points`` strictly increasing.

    ``weights`` sum to 1 within 1e-12, and their correctly rounded sum
    (equal to ``math.fsum``) is kept as ``weight_sum``. ``multiplicity``
    (each >= 1, summing to 2^N) counts the terms behind each line.
    ``omega``, ``weight`` and ``n_lines`` name ``points``, ``weights`` and
    ``n_points`` too. Read-only arrays of dtype float64, float64 and int64
    are kept without a copy; any other input is copied, as in the point set.
    """

    multiplicity: np.ndarray
    n_spins: int
    weight_sum: float = field(init=False)

    def __post_init__(self):
        points = read_only(self.points, np.float64)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "multiplicity", read_only(self.multiplicity, np.int64))
        # checked before the point set's checks, which would sort the points
        if points.ndim == 1 and np.any(points[1:] <= points[:-1]):
            raise InvalidParameterError("line omegas must be strictly increasing")
        super().__post_init__()
        multiplicity = self.multiplicity
        if multiplicity.shape != self.points.shape:
            raise InvalidParameterError("line arrays must be 1-d and of equal length")
        if np.any(multiplicity < 1):
            raise InvalidParameterError("line multiplicity must be >= 1")
        if self.n_spins < 1:
            raise InvalidParameterError("n_spins must be >= 1")
        total_mult = int(np.sum(multiplicity))
        if total_mult != 1 << self.n_spins:
            raise InvalidParameterError(
                f"multiplicities sum to {total_mult}, expected 2^{self.n_spins}"
            )
        try:
            total_weight = _exact_sum(self.weights)
        except OverflowError:
            total_weight = math.inf
        if abs(total_weight - 1.0) > _WEIGHT_SUM_TOLERANCE:
            raise InvalidParameterError(
                f"weights sum to {total_weight!r}, expected 1 within 1e-12"
            )
        object.__setattr__(self, "weight_sum", total_weight)

    omega = property(lambda self: self.points)
    weight = property(lambda self: self.weights)
    n_lines = property(lambda self: self.n_points)


# ---------------------------------------------------------------------------
# Exact integer scaling of the couplings
# ---------------------------------------------------------------------------

def _scaled_couplings(model: SpinBathModel, scale: int = 1) -> tuple[list[int], int]:
    """Represent every g_i / ``scale`` exactly as M_i / D with integer M_i
    and common D.

    Floats are dyadic rationals, so each as_integer_ratio denominator is a
    power of two and D is their maximum times ``scale``, a power of two
    too. A model whose largest signed sum, sum |g_i| / ``scale``, is beyond
    the float range is refused, since its extreme values would be infinite.
    """
    couplings = model.g.tolist()
    ratios = [g.as_integer_ratio() for g in couplings]
    common = max(d for _, d in ratios)
    scaled = [num * (common // den) for num, den in ratios]
    try:
        sum(abs(m) for m in scaled) / (common * scale)
    except OverflowError:
        over = f" / {scale}" if scale != 1 else ""
        raise InvalidParameterError(
            f"sum_i |g_i|{over} over {model.n_spins} spins (largest |g_i| = "
            f"{max(map(abs, couplings))!r}) is beyond the float range"
        ) from None
    return scaled, common * scale


def _distinct_sums_bound(scaled: list[int]) -> int:
    """A bound on the distinct signed sums sum_i (+-M_i) of the scaled
    couplings, and on those of every subset of them.

    Two bounds hold, and the smaller is returned. The c spins of one
    magnitude |M| give c + 1 sums, so the product of c + 1 over the
    distinct magnitudes is one: N + 1 for equal couplings, and 2^N where no
    two magnitudes tie. With G = gcd(M_i) and S = sum_i |M_i|, every sum is
    congruent to sum_i M_i modulo 2G and lies in [-S, S], so S / G + 1 is
    the other: couplings k / 8 for k = 1 to 30 give at most 466 sums.
    """
    ties = math.prod(c + 1 for c in Counter(map(abs, scaled)).values())
    return min(ties, sum(map(abs, scaled)) // math.gcd(*scaled) + 1)


def _fits_int64(scaled: list[int], denominator: int) -> bool:
    """Whether the int64 path gives the same floats as the Python-int path.

    It rounds each sum to float64 and divides by the power of two D
    exactly, which matches the single rounding of int / int as long as
    every sum fits in 62 bits and D <= 2^1022, so that no quotient is
    subnormal.
    """
    return sum(abs(m) for m in scaled).bit_length() < 63 and denominator.bit_length() <= 1023


def _folded(
    values: np.ndarray, counts: np.ndarray | None, weights: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Sorted values with each run of equal values folded into one value,
    their counts and weights added by np.add.reduceat.

    ``counts`` None stands for one term per value, and is returned as None
    while no two values are equal; ``weights`` may be None.
    """
    breaks = values[1:] != values[:-1]
    if breaks.all():
        return values, counts, weights
    starts = np.flatnonzero(np.concatenate(([True], breaks)))
    sizes = np.diff(starts, append=values.size) if counts is None else np.add.reduceat(counts, starts)
    mass = None if weights is None else np.add.reduceat(weights, starts)
    return values[starts], sizes, mass


def _doubled_terms(
    scaled: list[int], factors: list[tuple[float, float]] | None, dtype
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """The distinct signed sums of the scaled couplings, in increasing order,
    with the count and the total weight of the terms behind each.

    Built by doubling from the last spin, so that spin 1 lands at the most
    significant bit of nu: each step forms sums + m (bit 0) and sums - m
    (bit 1), with the weights times |beta|^2 and times |alpha|^2, and
    merges the two sorted runs of K sums each by one stable sort, in linear
    time (Horowitz & Sahni, J. ACM 21, 277, 1974). Equal neighbours then
    merge into one sum, their counts and weights added by np.add.reduceat,
    so the arrays never hold more than the distinct sums: the N + 1 lines
    of equal couplings cost O(N) per step. ``dtype`` is np.int64, exact
    while sum |scaled| < 2^62, or object, whose Python ints are exact at
    any size. counts is None while every sum is one term, and weights is
    None without ``factors``. No array of 2^N indices outlives its doubling.
    """
    sums = np.zeros(1, dtype=dtype)
    counts = None
    weights = None if factors is None else np.ones(1)
    for k in range(len(scaled) - 1, -1, -1):
        size = sums.size
        buffer = np.empty(2 * size, dtype=dtype)
        np.add(sums, scaled[k], out=buffer[:size])
        np.subtract(sums, scaled[k], out=buffer[size:])
        del sums
        order = None
        if weights is None and counts is None:
            buffer.sort(kind="stable")
        else:
            order = np.argsort(buffer, kind="stable")
        sums = buffer if order is None else buffer[order]
        del buffer
        if weights is not None:
            b2, a2 = factors[k]
            moved = np.empty(2 * size)
            np.multiply(weights, b2, out=moved[:size])
            np.multiply(weights, a2, out=moved[size:])
            # the parent's weights go before the gather allocates 2K more
            del weights
            weights = moved[order]
            del moved
        if counts is not None:
            counts = np.concatenate((counts, counts))[order]
        del order
        sums, counts, weights = _folded(sums, counts, weights)
    return sums, counts, weights


def _sorted_terms(
    scaled: list[int],
    denominator: int,
    moduli: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """The distinct values sum_i (+-M_i) / D in increasing order, with the
    count and the total weight of the terms behind each.

    ``scaled`` and ``denominator`` are _scaled_couplings' M_i and D, so each
    value is correctly rounded; the weights are products of the bath's
    ``moduli`` (spin_moduli), and None without them. counts is None where
    every value is one term. Both the int64 and the Python-int path run
    _doubled_terms, and rounding is monotone, so the values come sorted.
    Distinct integer sums stay distinct floats below 2^53 on the int64
    path; above it, or on the Python-int path, whose quotients may be
    subnormal, two sums may round to one float, and such values are folded
    once more.
    """
    # (|beta_i|^2, |alpha_i|^2) per spin: the weight factors of bit 0 and bit 1
    factors = None if moduli is None else list(zip(moduli[1].tolist(), moduli[0].tolist()))
    fits = _fits_int64(scaled, denominator)
    sums, counts, weights = _doubled_terms(scaled, factors, np.int64 if fits else object)
    if fits:
        values = sums.astype(np.float64)
        values /= denominator
    else:
        values = np.fromiter((s / denominator for s in sums), dtype=np.float64, count=sums.size)
    del sums
    if fits and sum(abs(m) for m in scaled).bit_length() <= 53:
        return values, counts, weights
    return _folded(values, counts, weights)


def _check_index(model: SpinBathModel, nu: int) -> None:
    limit = 1 << model.n_spins
    if not (0 <= nu < limit):
        raise IndexOutOfRangeError(
            f"nu = {nu} outside [0, 2^{model.n_spins}) = [0, {limit})"
        )


def omega_of_index(model: SpinBathModel, nu: int) -> float:
    """Frequency of term nu: sum_i (-1)^{p_i} g_i, spin 1 at the MSB of nu."""
    _check_index(model, nu)
    scaled, denominator = _scaled_couplings(model)
    n = model.n_spins
    total = 0
    for i, m in enumerate(scaled):
        bit = (nu >> (n - 1 - i)) & 1
        total += -m if bit else m
    return total / denominator


def weight_of_index(model: SpinBathModel, nu: int) -> float:
    """Weight of term nu: product of |alpha|^2 (bit 1) or |beta|^2 (bit 0).

    Factors come from spin_moduli and multiply last spin first, as in
    spectral_decomposition, so a line of this term alone has this weight
    bit for bit.
    """
    _check_index(model, nu)
    a2, b2, _ = spin_moduli(model)
    n = model.n_spins
    weight = 1.0
    for i in range(n - 1, -1, -1):
        bit = (nu >> (n - 1 - i)) & 1
        weight *= float((a2 if bit else b2)[i])
    return weight


# cgroup v1 writes "no limit" as the largest page-aligned int64, about 2^63.
_CGROUP_V1_NO_LIMIT = 1 << 62

# Reading the available memory takes about 0.15 ms (four to six small
# files), half the mean oracle call of `oracle-check --n-max 12`, so a
# reading is reused for this many seconds. Only memory taken faster than that goes
# unseen: a spectrum at N = 20 takes about 0.4 s for some 80 MB.
_MEMORY_READING_S = 0.25


def _read_text(path: str) -> str | None:
    try:
        with open(path) as handle:
            return handle.read()
    except OSError:
        return None


def _read_int(path: str) -> int | None:
    try:
        return int(_read_text(path))
    except (TypeError, ValueError):  # unreadable, or cgroup v2 "max"
        return None


def _meminfo_available() -> int | None:
    """MemAvailable from /proc/meminfo: free plus reclaimable memory."""
    for line in (_read_text("/proc/meminfo") or "").splitlines():
        fields = line.split()
        if fields[:1] == ["MemAvailable:"] and len(fields) >= 2 and fields[1].isdigit():
            return int(fields[1]) * 1024
    return None


def _cgroup_headroom() -> int | None:
    """Limit minus usage of this process's memory cgroup; None without a limit."""
    headroom = None
    for line in (_read_text("/proc/self/cgroup") or "").splitlines():
        parts = line.split(":", 2)
        if len(parts) != 3:
            continue
        _, controllers, path = parts
        path = path.rstrip("/")
        if not controllers:
            limit = _read_int(f"/sys/fs/cgroup{path}/memory.max")
            usage = _read_int(f"/sys/fs/cgroup{path}/memory.current")
        elif "memory" in controllers.split(","):
            limit = _read_int(f"/sys/fs/cgroup/memory{path}/memory.limit_in_bytes")
            usage = _read_int(f"/sys/fs/cgroup/memory{path}/memory.usage_in_bytes")
            if limit is not None and limit >= _CGROUP_V1_NO_LIMIT:
                limit = None
        else:
            continue
        if limit is not None and usage is not None:
            room = max(limit - usage, 0)
            headroom = room if headroom is None else min(headroom, room)
    return headroom


def _available_memory() -> int | None:
    """Bytes of memory this process can still take, or None where unknown.

    One reading serves every call within a window of _MEMORY_READING_S.
    """
    return _memory_reading(time.monotonic() // _MEMORY_READING_S)


@functools.lru_cache(maxsize=1)
def _memory_reading(window: float) -> int | None:
    return _read_available_memory()


def _read_available_memory() -> int | None:
    """MemAvailable, or the free physical pages where /proc/meminfo cannot be
    read, bounded by the headroom of the process's memory cgroup."""
    available = _meminfo_available()
    if available is None:
        try:
            available = os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        except (AttributeError, OSError, ValueError):
            pass
    headroom = _cgroup_headroom()
    if headroom is None:
        return available
    return headroom if available is None else min(available, headroom)


def require_memory(estimate: int, needs: str, remedy: str) -> None:
    """Refuse a computation up front when its estimate, in bytes, exceeds the
    memory available to this process now. ``needs`` states the estimate and
    ``remedy`` ends the message."""
    available = _available_memory()
    if available is not None and estimate > available:
        raise CapExceededError(
            f"{needs}; only {available / 1e6:.3g} MB of memory is free. {remedy}"
        )


def _require_cap(
    n: int,
    cap: int,
    exponent: int,
    bytes_per_value: int,
    what: str,
    copies: int = 1,
    bytes_per_copy: int = 0,
    distinct: int | None = None,
) -> None:
    """Refuse ``copies`` enumerations of 2^exponent values over n spins up front.

    Each copy is charged ``bytes_per_value`` per value it holds and
    ``bytes_per_copy`` on top. An enumeration that keeps only distinct
    values passes ``distinct``, a bound on the distinct signed sums of the
    n spins (_distinct_sums_bound), and holds at most
    min(2^n, distinct) * 2^(exponent - n) of its values. The copies are
    refused when they can hold more than 2^cap distinct sums (more than
    ``cap`` spins, without ``distinct``), when the exponent exceeds 62,
    since the int64 counts of an enumeration sum to 2^exponent, or when
    their memory estimate exceeds the memory available to this process now.
    """
    sums = 1 << n if distinct is None else min(1 << n, distinct)
    held = sums << (exponent - n)
    estimate = copies * (held * bytes_per_value + bytes_per_copy)
    count = f"2^{exponent}" if sums == 1 << n else f"at most {held} distinct of 2^{exponent}"
    if copies != 1:
        count = f"{copies} x {count}"
    needs = (
        f"{what} over {n} spins holds {count} values and needs roughly "
        f"{estimate / 1e6:.3g} MB"
    )
    if sums > 1 << cap:
        limit = f"{cap} spins" if distinct is None else f"2^{cap} distinct sums"
        raise CapExceededError(f"{needs}; the cap is {limit}. Reduce N.")
    if exponent > 62:
        raise CapExceededError(
            f"{needs}; its int64 counts sum to 2^{exponent}, beyond the int64 "
            "limit of 2^63 - 1. Reduce N."
        )
    require_memory(estimate, needs, "Reduce N.")


def spectral_decomposition(model: SpinBathModel) -> SpectralDecomposition:
    """Enumerate all 2^N (omega, weight) terms and merge coincident lines.

    Terms merge into one line only where their frequencies are one float,
    bit for bit, with their weights and multiplicities summed; equal
    couplings collide exactly under the integer scaling. So the lines are
    the distinct frequencies of r(t) itself, and the lemma judges them as
    they are. A bath whose distinct signed sums can number more than
    2^ENUMERATION_CAP is refused up front (_distinct_sums_bound): any bath
    of more than ENUMERATION_CAP spins without ties or a common lattice,
    but equal couplings, or couplings on a coarse lattice, up to the int64
    limit of 62 spins.
    """
    n = model.n_spins
    scaled, denominator = _scaled_couplings(model)
    bytes_per_term = (
        _INT64_ENUMERATION_BYTES_PER_VALUE if _fits_int64(scaled, denominator)
        else _PYINT_ENUMERATION_BYTES_PER_VALUE
    )
    _require_cap(
        n, ENUMERATION_CAP, n, bytes_per_term, "spectral enumeration",
        distinct=_distinct_sums_bound(scaled),
    )

    omegas, counts, weights = _sorted_terms(scaled, denominator, spin_moduli(model))
    if counts is None:
        counts = np.ones(omegas.size, dtype=np.int64)
    for array in (omegas, weights, counts):
        array.setflags(write=False)
    return SpectralDecomposition(omegas, weights, counts, n)


def hamiltonian_spectrum(model: SpinBathModel) -> tuple[np.ndarray, np.ndarray]:
    """All 2^(N+1) eigenvalues +-(1/2) sum_i (+-g_i), merged by degeneracy.

    Returns ``(energies, degeneracies)``: float64 levels in increasing
    order and their int64 degeneracies, each >= 1 and totalling 2^(N+1).
    The system's up branch carries +half the signed coupling sum of the
    bath pattern and the down branch the negation. Each pattern's half-sum
    is the negation of its complement's, and rounding is symmetric, so the
    down branch's levels equal the up branch's: each distinct half-sum is a
    level of twice its count. The levels mirror exactly: each is the
    negation of its mirror, and a middle one +0.0. The cap is that of
    spectral_decomposition, and the int64 limit is 61 spins.
    """
    n = model.n_spins
    scaled, denominator = _scaled_couplings(model, scale=2)
    _require_cap(
        n, ENUMERATION_CAP, n + 1, _LEVEL_BYTES_PER_VALUE, "eigenvalue enumeration",
        distinct=_distinct_sums_bound(scaled),
    )

    levels, counts, _ = _sorted_terms(scaled, denominator)
    # half-sums of +-2^-1075 round to -0.0 and +0.0, and the middle level
    # would keep the sign of the lower; -0.0 + 0.0 is +0.0
    levels += 0.0
    degeneracies = np.full(levels.size, 2, dtype=np.int64) if counts is None else 2 * counts
    total = int(np.sum(degeneracies))
    if total != 1 << (n + 1) or np.any(degeneracies < 1):
        raise InvalidParameterError(
            f"degeneracies must each be >= 1 and sum to 2^{n + 1}, got a sum of {total}"
        )
    return levels, degeneracies


def degeneracy_count(n: int, l: int) -> int:
    """Number of eigenvectors at bath flip count l: 2 * C(n, l).

    Exact integer arithmetic; the documented OverflowError can only occur
    if the result is later forced into a fixed-width type by the caller.
    """
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    if not 0 <= l <= n:
        raise InvalidParameterError(f"l must lie in [0, {n}], got {l}")
    return 2 * math.comb(n, l)


def brute_force_expectation(model: SpinBathModel, obs: FullObservable, t: float) -> float:
    """Full state-vector expectation, independent of every closed form.

    This is brute_force_stack on a stack of one case.
    """
    system, env = observable_entries(obs)
    return float(brute_force_stack(
        model.a, model.b, model.alpha[None], model.beta[None], model.g[None],
        system[None], env[None], t,
    )[0])


def _apply_phases(quarters: np.ndarray, energy: np.ndarray, t: np.ndarray) -> None:
    """Multiply psi by e^{-i E t} in place, psi as the first operand.

    ``quarters`` is psi as (k, system branch, spin 1, 2^(n-1)), up before
    down, and ``energy`` the bath energies E of the spin-1-up patterns,
    (k, 2^(n-1)); ``t`` is (k, 1). Entry j of the spin-1-down quarter is
    the complement of entry 2^(n-1) - 1 - j of the spin-1-up quarter,
    whose energy is -E, so its phase is the conjugate read backwards;
    where E is +0 (an exact cancellation) the complement's energy is +0
    too, and its phase is the same, not the conjugate. The down branch
    takes the conjugates of the up branch. So one cos and one sin of E t
    give the bits of ``np.exp(-1j * E * t)`` on all four quarters.
    ``energy`` is overwritten. A complex product with its operands swapped
    can differ in the last bit, hence psi first.
    """
    zero = None if energy.all() else np.nonzero(energy == 0.0)
    angle = np.multiply(energy, t, out=energy)
    phase = np.empty(angle.shape, dtype=np.complex128)
    np.cos(angle, out=phase.real)
    np.sin(angle, out=phase.imag)
    mirror = phase[:, ::-1]
    up, down = quarters[:, 0], quarters[:, 1]
    np.multiply(down[:, 0], phase, out=down[:, 0])
    if zero is not None:
        phase.imag[zero] = -phase.imag[zero]
    np.multiply(up[:, 1], mirror, out=up[:, 1])
    np.negative(phase.imag, out=phase.imag)
    np.multiply(down[:, 1], mirror, out=down[:, 1])
    if zero is not None:
        phase.imag[zero] = -phase.imag[zero]
    np.multiply(up[:, 0], phase, out=up[:, 0])


def brute_force_stack(a, b, alpha, beta, g, system, env, t) -> np.ndarray:
    """State-vector expectations of a stack of k cases of one bath size n.

    Takes the arrays that :func:`spinbath.evolution.expectation_full_stack`
    takes: ``alpha``, ``beta`` and ``g`` of shape (k, n), the observable
    entries ``system`` (k, 4) and ``env`` (k, n, 4), and ``a``, ``b`` and
    ``t`` with one value per case or one for all; returns the k values.

    Builds each |psi(0)> as a chain of outer products (system first, then
    spins in order, the last spin at the least significant index). Each
    basis state is phased by e^{-i E t}, with E the bath energy
    sum_i (+-g_i/2) on the system's up branch and its negation on the down
    branch. The energies are built the same way, spin 1 added first, but
    only with spin 1 up: the complement of a bath pattern is the pattern
    read backwards, its energy is the exact negation (round-to-nearest is
    symmetric in sign), and one cos and one sin of the 2^(n-1) angles E t
    phase all four quarters of psi (system up or down, spin 1 up or
    down), with the bits that ``np.exp(-1j * E * t)`` gives on each basis
    state. The observable is applied one 2x2 factor at a time and
    contracted with the evolved state. Every step runs on the whole stack
    at once, one row per case. Cost and memory are exponential: the stack
    holds k * 2^(n+1) states, and is refused up front beyond the oracle
    cap or the memory available. The phases E t go by
    :func:`spinbath.model.check_phases`: a case's largest |E| is the
    left-to-right sum of its |g_i| / 2, as rounding is monotone and symmetric.
    """
    a, b, alpha, beta, g, system, env, t = stack_arrays(a, b, alpha, beta, g, system, env, t)
    k, n = alpha.shape
    if n < 1:
        raise EmptyEnvironmentError("the state-vector oracle needs at least one environment spin")
    _require_cap(
        n, ORACLE_CAP, n + 1, _ORACLE_BYTES_PER_STATE, "state-vector oracle", k,
        _ORACLE_BYTES_PER_CASE_QUBIT * (n + 1),
    )
    with np.errstate(over="ignore"):
        check_phases(np.cumsum(np.abs(g) / 2, axis=-1), t)
    t = np.broadcast_to(t, (k,))[:, None]
    psi = np.empty((k, 2), dtype=np.complex128)
    psi[:, 0], psi[:, 1] = a, b
    for i in range(n):
        # outer products with (alpha_i, beta_i), per case
        grown = np.empty((k, psi.shape[1], 2), dtype=np.complex128)
        np.multiply(psi, alpha[:, i, None], out=grown[..., 0])
        np.multiply(psi, beta[:, i, None], out=grown[..., 1])
        psi = grown.reshape(k, -1)
    # energies with spin 1 up: outer sums with (+g_i/2, -g_i/2) from spin 2 on
    energy = 0.0 + g[:, :1] / 2
    for i in range(1, n):
        half = g[:, i, None] / 2
        levels = np.empty((k, energy.shape[1], 2))
        np.add(energy, half, out=levels[..., 0])
        np.add(energy, -half, out=levels[..., 1])
        energy = levels.reshape(k, -1)
    # The phases go before the factors are applied, which hold two more
    # states at once.
    _apply_phases(psi.reshape(k, 2, 2, -1), energy, t)
    del energy

    # One Hermitian 2x2 matrix per tensor factor and case, system first.
    entries = np.concatenate([system[:, None, :], env], axis=1)
    matrices = np.empty((k, n + 1, 2, 2), dtype=np.complex128)
    matrices[..., 0, 0] = entries[..., 0]
    matrices[..., 1, 1] = entries[..., 1]
    matrices[..., 1, 0].real = matrices[..., 0, 1].real = entries[..., 2]
    matrices[..., 1, 0].imag = entries[..., 3]
    matrices[..., 0, 1].imag = -entries[..., 3]
    # Each step applies the matrix of the last tensor factor and moves
    # that factor to the front; after all n + 1 steps the order is back.
    acted = psi
    for factor in range(n, -1, -1):
        pairs = acted.reshape(k, -1, 2).transpose(0, 2, 1)
        acted = (matrices[:, factor] @ pairs).reshape(k, -1)
    return np.array([np.vdot(row, evolved).real for row, evolved in zip(psi, acted)])
