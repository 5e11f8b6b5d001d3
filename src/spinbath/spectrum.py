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
Python ints beyond. The int64 path keeps only the distinct sums, sorted,
with the number of terms behind each one, and the weights of each sum's
terms as one contiguous block in index order. A doubling merges the two
sorted runs sums + m and sums - m, adds the counts of equal sums, and
moves each block of weights whole, so no global sort is needed and the
cost follows the number of distinct sums: the N + 1 lines of equal
couplings cost O(N) per step besides the weights. Only the final division
back to float rounds. Equal couplings therefore collide bit-exactly and
merge at tolerance zero; random couplings collide with probability zero.

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

import numpy as np

from .errors import (
    CapExceededError,
    DimensionMismatchError,
    IndexOutOfRangeError,
    InvalidParameterError,
)
from .model import FullObservable, SpinBathModel, observable_entries, spin_moduli

ENUMERATION_CAP = 26
ORACLE_CAP = 12

_WEIGHT_SUM_TOLERANCE = 1e-12

# Peak-RSS rise per enumerated value, for the up-front memory check in
# _require_cap. Measured in a fresh process on generate_random(n, seed),
# seeds 1 to 3 (1 and 2 at N = 24): `predict`, which runs the verdict on
# the spectrum it holds, peaks at about 61 B per term at N = 18, 57 B at
# N = 20 and 49 B at N = 22 and 24, set by check_quasi_continuous; the
# int64 bound adds a margin to that. Random couplings set these bounds:
# equal couplings, whose doubling keeps only their N + 1 distinct sums,
# take about 13 B per term in `predict` and `compare` at N = 20 and 12 B
# at N = 22 and 26, all of it the weights. Sums that need Python ints
# (couplings 1 and 2^-80, say) take about 89 B per term at N = 19 and
# 76 B at N = 20, so spectral_decomposition picks its bound by
# _fits_int64.
# hamiltonian_spectrum peaks at about 30 B per value at N = 20 and 22
# (under 1 B with equal couplings, 42 B where the sums need Python ints),
# so it has its own bound. brute_force_stack peaks at about 53 B per state
# under tracemalloc at N = 10, 11 and 12 (the phased state, the energies
# times t at half length, and two copies of the evolved state while a factor
# is applied), and raises a fresh process's peak RSS by about 57 B per state
# on stacks of 2^19 states at N = 8, 10 and 12.
_INT64_ENUMERATION_BYTES_PER_VALUE = 64
_PYINT_ENUMERATION_BYTES_PER_VALUE = 100
_LEVEL_BYTES_PER_VALUE = 48
_ORACLE_BYTES_PER_STATE = 64

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


class SpectralDecomposition:
    """All frequencies of r(t) for an N-spin model, merged and sorted.

    Three 1-d arrays of equal length: ``omega`` (finite, strictly
    increasing), ``weight`` (finite and nonnegative, summing to 1 within
    1e-12; their correctly rounded sum (equal to ``math.fsum``) is kept as
    ``weight_sum``) and ``multiplicity`` (each >= 1, summing to 2^N).
    Arrays already of dtype float64, float64 and int64 are taken without a
    copy and made read-only.
    """

    __slots__ = ("omega", "weight", "multiplicity", "n_spins", "weight_sum")

    def __init__(self, omega, weight, multiplicity, n_spins: int):
        omega = np.asarray(omega, dtype=np.float64)
        weight = np.asarray(weight, dtype=np.float64)
        multiplicity = np.asarray(multiplicity, dtype=np.int64)
        if omega.ndim != 1 or not omega.shape == weight.shape == multiplicity.shape:
            raise InvalidParameterError("line arrays must be 1-d and of equal length")
        if not np.all(np.isfinite(omega)):
            raise InvalidParameterError("line omega must be finite")
        if not np.all(np.isfinite(weight)):
            raise InvalidParameterError("line weight must be finite")
        if np.any(weight < 0):
            raise InvalidParameterError("line weight must be nonnegative")
        if np.any(multiplicity < 1):
            raise InvalidParameterError("line multiplicity must be >= 1")
        if n_spins < 1:
            raise InvalidParameterError("n_spins must be >= 1")
        if omega.size == 0:
            raise InvalidParameterError("a decomposition needs at least one line")
        if np.any(omega[1:] <= omega[:-1]):
            raise InvalidParameterError("line omegas must be strictly increasing")
        total_mult = int(np.sum(multiplicity))
        if total_mult != 1 << n_spins:
            raise InvalidParameterError(
                f"multiplicities sum to {total_mult}, expected 2^{n_spins}"
            )
        try:
            total_weight = _exact_sum(weight)
        except OverflowError:
            total_weight = math.inf
        if abs(total_weight - 1.0) > _WEIGHT_SUM_TOLERANCE:
            raise InvalidParameterError(
                f"weights sum to {total_weight!r}, expected 1 within 1e-12"
            )
        for name, array in zip(("omega", "weight", "multiplicity"), (omega, weight, multiplicity)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        object.__setattr__(self, "n_spins", n_spins)
        object.__setattr__(self, "weight_sum", total_weight)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def n_lines(self) -> int:
        return int(self.omega.size)


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


def _fits_int64(scaled: list[int], denominator: int) -> bool:
    """Whether the int64 path gives the same floats as the Python-int path.

    It rounds each sum to float64 and divides by the power of two D
    exactly, which matches the single rounding of int / int as long as
    every sum fits in 62 bits and D <= 2^1022, so that no quotient is
    subnormal.
    """
    return sum(abs(m) for m in scaled).bit_length() < 63 and denominator.bit_length() <= 1023


# A doubling moves the weights of each source block with one np.multiply
# into its place while the blocks average at least this many terms, and
# with one gather of all terms below that. Moving 2^20 weights took about
# 12 ms by one gather at any block length, and by block copies 34 ms at
# 64 terms per block, 12 ms at 128, 9.6 ms at 256 and 3.8 ms at 1024
# (in-process medians on a 2-core 2.0 GHz Xeon VM).
_BLOCK_COPY_MIN_TERMS = 256


def _merged_equal(
    sums: np.ndarray, counts: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Sorted sums with equal neighbours merged into one, their counts added.

    ``counts`` None stands for one term per sum, and is returned as None
    while every sum is distinct.
    """
    distinct = sums[1:] != sums[:-1]
    if distinct.all():
        return sums, counts
    starts = np.flatnonzero(np.concatenate(([True], distinct)))
    if counts is None:
        counts = np.diff(starts, append=sums.size)
    else:
        counts = np.add.reduceat(counts, starts)
    return sums[starts], counts


def _doubled_weights(
    weights: np.ndarray,
    factors: tuple[float, float],
    order: np.ndarray | None,
    counts: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """One doubling of the weights, times |beta|^2 then times |alpha|^2.

    Returns the new weights and the gather that puts them in order, None
    where they already are. Without ``order`` the two halves stay in index
    order. With it, entry i of ``order`` names the block that goes i-th:
    block j < K holds the counts[j] weights of sum j times |beta|^2, block
    K + j the same weights times |alpha|^2 (K sums; one weight each where
    ``counts`` is None). Each block is moved whole, so its terms keep their
    order.
    """
    b2, a2 = factors
    size = weights.size
    moved = np.empty(2 * size)
    gather = order
    if counts is not None:
        firsts = np.cumsum(counts)
        firsts -= counts
        sources = np.concatenate((firsts, firsts + size))[order]
        lengths = np.concatenate((counts, counts))[order]
        if order.size * _BLOCK_COPY_MIN_TERMS <= moved.size:
            stop = 0
            for first, length in zip(sources.tolist(), lengths.tolist()):
                start, stop = stop, stop + length
                factor = b2 if first < size else a2
                first %= size
                np.multiply(weights[first:first + length], factor, out=moved[start:stop])
            return moved, None
        # the place in `moved` of every term: one step on within a block,
        # and at each block's start a jump to its first source term
        gather = np.ones(moved.size, dtype=np.int64)
        gather[0] = sources[0]
        jumps = sources[1:] - sources[:-1]
        jumps -= lengths[:-1]
        jumps += 1
        gather[np.cumsum(lengths[:-1])] = jumps
        np.cumsum(gather, out=gather)
    np.multiply(weights, b2, out=moved[:size])
    np.multiply(weights, a2, out=moved[size:])
    return moved, gather


def _doubled_terms(
    scaled: list[int],
    factors: list[tuple[float, float]] | None,
    dtype,
    sort: bool,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """All 2^N signed sums of the scaled couplings, with their counts and weights.

    Built by doubling from the last spin, so that spin 1 lands at the most
    significant bit of nu: each step writes sums + m (bit 0), then
    sums - m (bit 1), and the weights times |beta|^2, then times
    |alpha|^2. ``dtype`` is np.int64, exact while sum |scaled| < 2^62, or
    object, whose Python ints are exact at any size.

    Without ``sort`` all 2^N sums come in index order, and counts is None.
    With it, the sums are the distinct ones in increasing order, and
    counts[j] terms stand behind sum j (counts is None while every sum is
    one term); the weights of each sum's terms are one contiguous block,
    in index order. Each step merges the two sorted runs sums + m and
    sums - m by one stable sort of 2K values in linear time (Horowitz &
    Sahni, J. ACM 21, 277, 1974), and equal neighbours merge into one sum.
    On a tie the +m copy comes first, and its terms have the lower
    indices, because the new bit is the most significant one. So the
    weights of sum j, the block of its +m source, then the block of its
    -m source, stay in index order, exactly as a stable argsort of all
    2^N index-order terms leaves them. While every sum is one term, a
    step is one argsort, one gather of the sums and of the weights, and
    one comparison of neighbours. No array of 2^N indices outlives its
    doubling.
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
        if sort and weights is None and counts is None:
            buffer.sort(kind="stable")
        elif sort:
            order = np.argsort(buffer, kind="stable")
        sums = buffer if order is None else buffer[order]
        del buffer
        if weights is not None:
            moved, gather = _doubled_weights(weights, factors[k], order, counts)
            del weights
            weights = moved if gather is None else moved[gather]
            del moved, gather
        if counts is not None:
            counts = np.concatenate((counts, counts))[order]
        del order
        if sort:
            sums, counts = _merged_equal(sums, counts)
    return sums, counts, weights


def _sorted_terms(
    scaled: list[int],
    denominator: int,
    moduli: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """The values sum_i (+-M_i) / D in increasing order, with counts and weights.

    ``scaled`` and ``denominator`` are _scaled_couplings' M_i and D, so each
    value is correctly rounded; the weights are products of the bath's
    ``moduli`` (spin_moduli), and None without them. The value array holds
    the distinct values of the int64 path, each standing for counts[j]
    terms (counts is None where each value is one term), and the weights of
    each value's terms come as one contiguous block. Equal values keep index
    order, exactly as a stable argsort of the index-order arrays leaves
    them, so merged weights keep their np.sum bits. Sorting the exact
    int64 sums orders their floats too, since rounding is monotone. Below
    2^53 distinct sums stay distinct floats. Above it two sums may round
    to one float, whose group must then be in index order, not integer
    order: where that happens to weighted terms, and where the sums need
    Python ints, all 2^N index-order terms are sorted by one stable
    argsort of their floats instead, and counts is None.
    """
    # (|beta_i|^2, |alpha_i|^2) per spin: the weight factors of bit 0 and bit 1
    factors = None if moduli is None else list(zip(moduli[1].tolist(), moduli[0].tolist()))
    fits = _fits_int64(scaled, denominator)
    if fits:
        sums, counts, weights = _doubled_terms(scaled, factors, np.int64, sort=True)
        values = sums.astype(np.float64)
        values /= denominator
        del sums
        if (
            weights is None
            or sum(abs(m) for m in scaled).bit_length() <= 53
            or not np.any(values[1:] == values[:-1])
        ):
            return values, counts, weights
        del counts, weights, values
    sums, _, weights = _doubled_terms(scaled, factors, np.int64 if fits else object, sort=False)
    if fits:
        values = sums.astype(np.float64)
        values /= denominator
    else:
        values = np.fromiter((s / denominator for s in sums), dtype=np.float64, count=sums.size)
    del sums
    order = np.argsort(values, kind="stable")
    return values[order], None, None if weights is None else weights[order]


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
    n: int, cap: int, exponent: int, bytes_per_value: int, what: str, copies: int = 1
) -> None:
    """Refuse ``copies`` enumerations of 2^exponent values over n spins up front.

    They are refused when n exceeds the cap, or when their memory estimate
    exceeds the memory available to this process now.
    """
    estimate = copies * (1 << exponent) * bytes_per_value
    held = f"{copies} x 2^{exponent}" if copies != 1 else f"2^{exponent}"
    needs = (
        f"{what} over {n} spins holds {held} values and needs roughly "
        f"{estimate / 1e6:.3g} MB"
    )
    if n > cap:
        raise CapExceededError(
            f"{needs}; the cap is {cap} spins. Reduce N or raise the cap."
        )
    require_memory(estimate, needs, "Reduce N.")


def _merge_sorted(
    values: np.ndarray,
    counts: np.ndarray | None,
    weights: np.ndarray | None,
    radius: float,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Group consecutive values, given in increasing order, whose gaps are <= radius.

    Value j stands for counts[j] terms (one where ``counts`` is None),
    whose weights are the next counts[j] entries of ``weights``. Returns
    (representatives, merged weights or None, group sizes in terms). A
    group of identical values keeps that exact value; otherwise the
    representative is the weight-averaged position of its terms (plain
    mean if the mass is zero). Where every group is a single term the
    inputs are returned as they are. Of the groups of two or more terms
    only those that need it take a Python iteration: each weight sum is
    np.sum over one slice of the weights, whose pairwise rounding
    np.add.reduceat does not reproduce, and only a group of differing
    values needs a new representative.
    """
    starts = np.flatnonzero(np.diff(values) > radius)
    starts += 1
    starts = np.concatenate(([0], starts))
    if counts is None and starts.size == values.size:
        return values, weights, np.ones(values.size, dtype=np.int64)
    widths = np.diff(starts, append=values.size)
    reps = values[starts]
    spread = reps != values[starts + widths - 1]
    if counts is None:
        firsts, sizes = starts, widths
    else:
        sizes = np.add.reduceat(counts, starts)
        firsts = np.cumsum(sizes)
        firsts -= sizes
    mass = weights[firsts] if weights is not None else None
    for k in np.flatnonzero(spread if weights is None else sizes > 1).tolist():
        lo = int(firsts[k])
        hi = lo + int(sizes[k])
        if weights is not None:
            mass[k] = np.sum(weights[lo:hi])
        if not spread[k]:
            continue
        group = slice(int(starts[k]), int(starts[k] + widths[k]))
        block = values[group] if counts is None else np.repeat(values[group], counts[group])
        if weights is not None and mass[k] > 0.0:
            reps[k] = np.sum(block * weights[lo:hi]) / mass[k]
        else:
            reps[k] = np.mean(block)
    return reps, mass, sizes


def spectral_decomposition(
    model: SpinBathModel,
    omega_tolerance: float = 0.0,
    *,
    max_spins: int = ENUMERATION_CAP,
) -> SpectralDecomposition:
    """Enumerate all 2^N (omega, weight) terms and merge coincident lines.

    Lines whose frequencies differ by at most ``omega_tolerance * max|g|``
    (an absolute radius) are merged, summing weights and multiplicities.
    At the default tolerance 0 only bit-exact collisions merge, which is
    exactly what equal couplings produce under the integer scaling.
    """
    if not omega_tolerance >= 0:
        raise InvalidParameterError(f"omega_tolerance must be >= 0, got {omega_tolerance!r}")
    n = model.n_spins
    scaled, denominator = _scaled_couplings(model)
    bytes_per_term = (
        _INT64_ENUMERATION_BYTES_PER_VALUE if _fits_int64(scaled, denominator)
        else _PYINT_ENUMERATION_BYTES_PER_VALUE
    )
    _require_cap(n, max_spins, n, bytes_per_term, "spectral enumeration")

    omegas, counts, weights = _sorted_terms(scaled, denominator, spin_moduli(model))
    radius = omega_tolerance * float(np.abs(model.g).max())
    reps, merged, sizes = _merge_sorted(omegas, counts, weights, radius)
    del omegas, counts, weights
    return SpectralDecomposition(reps, merged, sizes, n)


def hamiltonian_spectrum(
    model: SpinBathModel,
    merge_tolerance: float = 0.0,
    *,
    max_spins: int = ENUMERATION_CAP,
) -> tuple[np.ndarray, np.ndarray]:
    """All 2^(N+1) eigenvalues +-(1/2) sum_i (+-g_i), merged by degeneracy.

    Returns ``(energies, degeneracies)``: float64 levels in increasing
    order and their int64 degeneracies, each >= 1 and totalling 2^(N+1).
    The system's up branch carries +half the signed coupling sum of the
    bath pattern and the down branch the negation, so the level multiset
    is negation symmetric. Levels within ``merge_tolerance * max|g|`` are
    merged.
    """
    if not merge_tolerance >= 0:
        raise InvalidParameterError(f"merge_tolerance must be >= 0, got {merge_tolerance!r}")
    n = model.n_spins
    _require_cap(n, max_spins, n + 1, _LEVEL_BYTES_PER_VALUE, "eigenvalue enumeration")

    # Rounding is symmetric, so negating a rounded half-sum is exact. The
    # half-sums and their negations are two sorted runs, which a stable
    # sort merges in linear time.
    half, counts, _ = _sorted_terms(*_scaled_couplings(model, scale=2))
    energies = np.concatenate([half, -half[::-1]])
    del half
    if counts is None:
        energies.sort(kind="stable")
    else:
        order = np.argsort(energies, kind="stable")
        energies = energies[order]
        counts = np.concatenate([counts, counts[::-1]])[order]
        del order
    radius = merge_tolerance * float(np.abs(model.g).max())
    reps, _, sizes = _merge_sorted(energies, counts, None, radius)
    total = int(np.sum(sizes))
    if total != 1 << (n + 1) or np.any(sizes < 1):
        raise InvalidParameterError(
            f"degeneracies must each be >= 1 and sum to 2^{n + 1}, got a sum of {total}"
        )
    return reps, sizes


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


def brute_force_expectation(
    model: SpinBathModel,
    obs: FullObservable,
    t: float,
    *,
    max_spins: int = ORACLE_CAP,
) -> float:
    """Full state-vector expectation, independent of every closed form.

    This is brute_force_stack on a stack of one case.
    """
    system, env = observable_entries(obs)
    return float(brute_force_stack(
        model.a, model.b, model.alpha[None], model.beta[None], model.g[None],
        system[None], env[None], t, max_spins=max_spins,
    )[0])


def _branch_phases(angle: np.ndarray) -> np.ndarray:
    """e^{-i E t} per case (row) and basis state, from ``angle`` = bath
    energy times t, shape (k, 2^n): E is the bath energy on the system's up
    branch (the first 2^n states) and its negation on the down branch.

    One cos and one sin of ``angle`` serve both branches. On these purely
    imaginary arguments they give the bits of ``np.exp(-1j * E * t)`` at
    half its work; tests pin the oracle's values to those bits.
    """
    k, half = angle.shape
    cos, sin = np.cos(angle), np.sin(angle)
    phase = np.empty((k, 2, half), dtype=np.complex128)
    phase.real[:, 0] = phase.real[:, 1] = cos
    phase.imag[:, 0] = -sin
    phase.imag[:, 1] = sin
    return phase.reshape(k, -1)


def brute_force_stack(
    a, b, alpha, beta, g, system, env, t, *, max_spins: int = ORACLE_CAP
) -> np.ndarray:
    """State-vector expectations of a stack of k cases of one bath size n.

    Takes the arrays that :func:`spinbath.evolution.expectation_full_stack`
    takes: ``alpha``, ``beta`` and ``g`` of shape (k, n), the observable
    entries ``system`` (k, 4) and ``env`` (k, n, 4), and ``a``, ``b`` and
    ``t`` with one value per case or one for all; returns the k values.

    Builds each |psi(0)> as a chain of outer products (system first, then
    spins in order, the last spin at the least significant index), and
    the bath energies sum_i (+-g_i/2) the same way, spin 1 added first.
    Each basis state is phased by e^{-i E t}, with E the bath energy on
    the system's up branch and its negation on the down branch. The
    observable is applied one 2x2 factor at a time and contracted with
    the evolved state. Every step runs on the whole stack at once, one
    row per case. Cost and memory are exponential: the stack holds
    k * 2^(n+1) states, and is refused up front beyond the oracle cap or
    the memory available.
    """
    alpha = np.asarray(alpha, dtype=np.complex128)
    beta = np.asarray(beta, dtype=np.complex128)
    g = np.asarray(g, dtype=np.float64)
    env = np.asarray(env, dtype=np.float64)
    k, n = alpha.shape
    if env.shape[:2] != (k, n):
        raise DimensionMismatchError(
            f"observable has {env.shape[1]} environment parts, model has {n} spins"
        )
    _require_cap(n, max_spins, n + 1, _ORACLE_BYTES_PER_STATE, "state-vector oracle", k)

    system = np.asarray(system, dtype=np.float64)
    t = np.broadcast_to(np.asarray(t, dtype=np.float64), (k,))[:, None]
    psi = np.empty((k, 2), dtype=np.complex128)
    psi[:, 0], psi[:, 1] = a, b
    env_energy = np.zeros((k, 1))
    for i in range(n):
        # outer products with (alpha_i, beta_i) and (+g_i/2, -g_i/2), per case
        grown = np.empty((k, psi.shape[1], 2), dtype=np.complex128)
        np.multiply(psi, alpha[:, i, None], out=grown[..., 0])
        np.multiply(psi, beta[:, i, None], out=grown[..., 1])
        psi = grown.reshape(k, -1)
        half = g[:, i, None] / 2
        levels = np.empty((k, env_energy.shape[1], 2))
        np.add(env_energy, half, out=levels[..., 0])
        np.add(env_energy, -half, out=levels[..., 1])
        env_energy = levels.reshape(k, -1)
    # psi times the phases in place, psi first: a complex product with its
    # operands swapped can differ in the last bit. The angles go before the
    # factors are applied, which hold two more states at once.
    psi_t = np.multiply(psi, _branch_phases(np.multiply(env_energy, t, out=env_energy)), out=psi)
    del env_energy

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
    acted = psi_t
    for factor in range(n, -1, -1):
        pairs = acted.reshape(k, -1, 2).transpose(0, 2, 1)
        acted = (matrices[:, factor] @ pairs).reshape(k, -1)
    return np.array([np.vdot(row, evolved).real for row, evolved in zip(psi_t, acted)])
