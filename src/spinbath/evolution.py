"""Closed-form time evolution at O(N) cost per time point.

Because the Hamiltonian is diagonal in the product z-basis, the evolved
state stays a branch product: the |up> branch of the system drags every
bath spin through phases e^{-i g t / 2} (up) and e^{+i g t / 2} (down),
and the |down> branch through the conjugate phases. Every quantity here
is a product over bath spins of a 2x2 contraction, so no state vector is
ever materialized; the brute-force check lives in :mod:`spinbath.spectrum`.

The central object is the dephasing factor

    r(t) = prod_i ( |alpha_i|^2 e^{-i g_i t} + |beta_i|^2 e^{+i g_i t} ),

the overlap of the two evolved environment branches. It multiplies the
coherence term of every system-only expectation value, and |r| <= 1 with
r(0) = 1 and r(-t) = conj(r(t)).

Products of N factors are evaluated as plain complex chains; every factor
has modulus <= 1, so there is no overflow and underflow to zero is the
physically correct limit. One kernel, :func:`_r_values`, evaluates r on an
array of times for both :func:`r_of_t` and :func:`sample_series`. On a large
grid it cuts the times into contiguous slices, one per CPU the process may
use, and runs each in its own thread for the length of the call; numpy
releases the GIL inside its array calls, so the slices run at once. Each
time point sees the same operations in the same order however the grid is
cut, so results are bit-identical on any number of CPUs. At large N the
decay is Gaussian and most of a long grid underflows; a time point whose
running product is exactly zero stays zero whatever factors follow, so the
kernel stops multiplying it and reports it as ``0``. A bath whose
couplings are all equal shares one phase row exp(-i g t) per time slice:
it takes one complex exponential per time point instead of one per spin,
with the same bits, since it is the same exp of the same angle. Every
other bath, one with partial ties included, takes one exponential per
spin and time point. The spins go in blocks of _BLOCK_CELLS // points
spins, counted over the points still in play; each block is folded into
r by one reduction, in spin order, and followed by a sweep for exact
zeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .model import (
    FullObservable,
    RelevantObservable,
    SpinBathModel,
    abs2,
    check_phases,
    observable_entries,
    read_only,
    run_lanes,
    spin_moduli,
    stack_arrays,
    usable_cpus,
)

_R_MODULUS_TOLERANCE = 1e-12

# Cells of the spins x points block in _r_slice, whose two complex buffers
# take 256 KB each per slice; a sweep for exact zeros follows each block.
# Blocks keep the Python work per spin short, so the threads spend their
# time in numpy calls, which release the GIL. On compare-equal-n20's grid
# (20 spins x 2000 points, in process) blocks of 8192, 16384 and 32768
# cells took 0.46, 0.42 and 0.86 ms a call, and simulate-n5000 peaked at
# 36.8, 37.2 and 38.2 MB RSS in a fresh process (2-vCPU VM).
_BLOCK_CELLS = 16384

# Spins x points below which _r_values runs on one thread. Such a grid takes
# a few milliseconds at most; on 20 spins x 2000 points (about 1 ms), two
# threads took 0.8x to 1.4x the time of one on a 2-vCPU VM.
_SPLIT_CELLS = 2**18


@dataclass(frozen=True)
class TimeSeries:
    """Sampled evolution on a strictly increasing time grid.

    ``expectation_values`` is present only when an observable was sampled.
    Arrays are read-only; lengths always match the grid. Read-only input
    of the right dtype is kept without a copy; any other input is copied,
    so the caller's own arrays stay writable.
    """

    times: np.ndarray
    r_values: np.ndarray
    expectation_values: np.ndarray | None = None

    def __post_init__(self):
        times = read_only(self.times, np.float64)
        r_values = read_only(self.r_values, np.complex128)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "r_values", r_values)
        if times.ndim != 1 or r_values.shape != times.shape:
            raise InvalidParameterError("times and r_values must be 1-d and equal length")
        if len(times) >= 2 and not np.all(np.diff(times) > 0):
            raise InvalidParameterError("times must be strictly increasing")
        if np.any(np.abs(r_values) > 1.0 + _R_MODULUS_TOLERANCE):
            raise InvalidParameterError("|r| exceeds 1 beyond tolerance")
        if self.expectation_values is not None:
            exp = read_only(self.expectation_values, np.float64)
            if exp.shape != times.shape:
                raise InvalidParameterError("expectation_values length must match times")
            object.__setattr__(self, "expectation_values", exp)

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class ReducedState:
    """System qubit state after tracing out the bath: diagonal + coherence.

    ``coherence`` is the (up, down) entry of the 2x2 density matrix, i.e.
    a * conj(b) * r(t). Positivity |coherence|^2 <= p_uu * p_dd holds
    automatically since |r| <= 1.
    """

    p_uu: float
    p_dd: float
    coherence: complex

    def __post_init__(self):
        if self.p_uu < 0 or self.p_dd < 0:
            raise InvalidParameterError("populations must be nonnegative")
        if abs(self.p_uu + self.p_dd - 1.0) > 1e-12:
            raise InvalidParameterError("populations must sum to 1 within 1e-12")
        bound = np.sqrt(self.p_uu * self.p_dd) + 1e-12
        if abs(self.coherence) > bound:
            raise InvalidParameterError("coherence violates positivity")


def _slice_count(n_spins: int, points: int) -> int:
    """Time slices for _r_values: one per usable CPU on a grid of at least
    _SPLIT_CELLS spins x points, each of at least two points (see _r_values)."""
    if n_spins * points < _SPLIT_CELLS:
        return 1
    return max(1, min(usable_cpus(), points // 2))


def _r_values(a2: np.ndarray, b2: np.ndarray, g: np.ndarray, times: np.ndarray) -> np.ndarray:
    """r at every entry of ``times``: the product of the per-spin factors.

    The grid is cut into contiguous slices (_slice_count), each evaluated
    by _r_slice in a lane of :func:`spinbath.model.run_lanes` while numpy
    releases the GIL; the lanes are joined before returning, and an
    exception in any slice is raised here. Every time point runs the same
    operations in the same order whatever the slicing, so the result does
    not depend on the number of CPUs. Points whose product underflows to exactly zero come
    back as ``0j``; every other entry is bit-identical to the full product
    over any array of two or more time points.

    numpy multiplies a one-element array in place with its reduction
    loop, which rounds complex products unlike the vector loop of longer
    arrays. So no array here is shorter than two: a lone time point is
    evaluated twice, a slice holds at least two points, and a zero rides
    along with a lone live point.
    """
    t = np.asarray(times, dtype=np.float64)
    check_phases(g, t)
    if len(t) == 1:
        t = np.repeat(t, 2)
    out = np.empty(len(t), dtype=np.complex128)
    slices = _slice_count(len(g), len(t))
    edges = [len(t) * k // slices for k in range(slices + 1)]

    def run(k: int) -> None:
        lo, hi = edges[k], edges[k + 1]
        _r_slice(a2, b2, g, t[lo:hi], out[lo:hi])

    run_lanes(run, slices)
    return out[:len(times)]


def _r_slice(a2: np.ndarray, b2: np.ndarray, g: np.ndarray, t: np.ndarray, out: np.ndarray) -> None:
    """Write r on the times ``t`` (two or more) into ``out``.

    Spins go in blocks of _BLOCK_CELLS // points spins (one spin per block
    on longer slices), counted over the time points still in play, and
    are multiplied in spin order, in place in ``out`` until a point drops.
    Each block is folded into r by one ``np.multiply.reduce`` over a chain
    whose first row is r: that gives the bits of multiplying the rows in
    one at a time. Where every coupling of the bath is equal, the one
    phase row exp(-i g t) is evaluated once for the slice and copied into
    each block; otherwise each block takes its phases from one ``np.exp``
    call, one row per spin. The block arrays are buffers made once per
    call and written with ``out=``: fresh temporaries of this size went
    back to the OS and page-faulted in again on every block. After every
    block, points whose product is exactly zero (both parts) are dropped,
    from the shared row too: no finite factor can move them off zero.
    """
    cells = min(max(_BLOCK_CELLS, len(t)), len(g) * len(t))
    phase_buf = np.empty(cells, dtype=np.complex128)
    chain_buf = np.empty(cells + len(t), dtype=np.complex128)
    # validated couplings are nonzero, so equal values have equal bits
    row = np.exp(-1j * g[:1, None] * t)[0] if np.all(g == g[0]) else None
    out[...] = 1
    r = out
    index = None
    lo = 0
    while lo < len(g):
        hi = min(lo + max(1, _BLOCK_CELLS // len(t)), len(g))
        phase = phase_buf[:(hi - lo) * len(t)].reshape(-1, len(t))
        chain = chain_buf[:phase.size + len(t)].reshape(-1, len(t))
        chain[0] = r
        factors = chain[1:]
        if row is None:
            np.exp(np.multiply(-1j * g[lo:hi, None], t, out=phase), out=phase)
        else:
            phase[...] = row
        # a2 * phase + b2 * conj(phase), operation for operation
        np.multiply(a2[lo:hi, None], phase, out=factors)
        np.multiply(b2[lo:hi, None], np.conj(phase, out=phase), out=phase)
        np.add(factors, phase, out=factors)
        np.multiply.reduce(chain, axis=0, out=r)
        lo = hi
        live = r != 0
        n_live = np.count_nonzero(live)
        if n_live == 0:
            break
        if n_live < len(r):
            if n_live == 1:
                live[np.argmin(live)] = True
            index = np.flatnonzero(live) if index is None else index[live]
            t, r = t[live], r[live]
            if row is not None:
                row = row[live]
    if index is not None:
        out[...] = 0
        out[index] = r
    out[out == 0] = 0  # no -0 parts


def r_of_t(model: SpinBathModel, t: float) -> complex:
    """Dephasing factor r(t), the overlap of the two evolved bath branches;
    t and the phases g t go by :func:`spinbath.model.check_phases`."""
    return complex(_r_values(*spin_moduli(model), np.array([t]))[0])


def r_squared(model: SpinBathModel, t: float) -> float:
    """|r(t)|^2 evaluated from the real product form.

    Each factor is |alpha|^4 + |beta|^4 + 2 |alpha|^2 |beta|^2 cos(2 g t),
    so the result is manifestly real; it equals |r_of_t(t)|^2 within 1e-12.
    """
    a2, b2, g = spin_moduli(model)
    check_phases(g, t, 2.0)
    factors = a2 * a2 + b2 * b2 + 2.0 * a2 * b2 * np.cos(2.0 * g * t)
    return float(np.prod(factors))


def r_bounds(model: SpinBathModel) -> tuple[float, float]:
    """Envelope of |r(t)|^2: (prod_i (2|alpha_i|^2 - 1)^2, 1).

    The lower bound is attained when every cos(2 g_i t) reaches -1
    simultaneously (exactly at half the recurrence time for equal
    couplings); the upper bound 1 is attained at t = 0.
    """
    a2, _, _ = spin_moduli(model)
    lower = float(np.prod((2.0 * a2 - 1.0) ** 2))
    return lower, 1.0


def expectation_relevant(model: SpinBathModel, obs: RelevantObservable, t: float) -> float:
    """Expectation of a system-only observable in the evolved state.

    Equals |a|^2 s_uu + |b|^2 s_dd + 2 Re[a conj(b) s_du r(t)]: the
    populations are frozen and the interference term decays with r(t).
    Bit for bit the entry of :func:`sample_series` at the same t.
    """
    system = (obs.s_uu, obs.s_dd, obs.s_du.real, obs.s_du.imag)
    return _system_side(model.a, model.b, system, r_of_t(model, t))


def expectation_full(model: SpinBathModel, obs: FullObservable, t: float) -> float:
    """Expectation of a product observable acting on the system and every spin.

    Each system matrix element carries its own product of per-spin
    environment contractions:

    * the |up><up| term sees   |alpha|^2 e_uu + |beta|^2 e_dd
                               + 2 Re(alpha conj(beta) e_du e^{-i g t}),
    * the |down><down| term the same with e^{+i g t},
    * the coherence term sees  |alpha|^2 e_uu e^{-i g t}
                               + |beta|^2 e_dd e^{+i g t}
                               + 2 Re(alpha conj(beta) e_du).

    With identity environment factors the diagonal products collapse to 1
    and the coherence product to r(t), recovering expectation_relevant.
    The three products are kept separate because the diagonal ones differ
    whenever Im(alpha conj(beta) e_du) != 0; collapsing them to a single
    factor is only exact for real cross terms. This is
    expectation_full_stack on a stack of one case.
    """
    system, env = observable_entries(obs)
    return float(expectation_full_stack(
        model.a, model.b, model.alpha[None], model.beta[None], model.g[None],
        system[None], env[None], t,
    )[0])


def expectation_full_stack(a, b, alpha, beta, g, system, env, t) -> np.ndarray:
    """expectation_full for a stack of k cases of one bath size n, in one
    array pass; returns the k values.

    ``alpha``, ``beta`` and ``g`` hold one row of n spins per case, shape
    (k, n). The observables are given by their entries, in the layout of
    :func:`spinbath.model.observable_entries`: ``system`` of shape (k, 4)
    and ``env`` of shape (k, n, 4). ``a``, ``b`` and ``t`` hold one value
    per case, or one value for all. On a stack of one the values are
    expectation_full's. A row of a larger stack can differ from the single
    call in the last bit: on arrays of 256 KB and more numpy may reuse a
    temporary for a complex product, with the operands swapped. t and the
    phases g t go by :func:`spinbath.model.check_phases`, case by case.
    """
    a, b, alpha, beta, g, system, env, t = stack_arrays(a, b, alpha, beta, g, system, env, t)
    check_phases(g, t)
    t = t[..., None]

    a2, b2 = abs2(alpha), abs2(beta)
    e_uu, e_dd = env[..., 0], env[..., 1]
    e_du = np.empty(e_uu.shape, dtype=np.complex128)
    e_du.real, e_du.imag = env[..., 2], env[..., 3]

    phase = np.exp(1j * g * t)
    cross = alpha * np.conj(beta) * e_du
    diag_up = a2 * e_uu + b2 * e_dd + 2.0 * (cross * np.conj(phase)).real
    diag_down = a2 * e_uu + b2 * e_dd + 2.0 * (cross * phase).real
    coherent = a2 * e_uu * np.conj(phase) + b2 * e_dd * phase + 2.0 * cross.real
    return _system_side(
        a, b, system.T, np.prod(coherent, axis=-1),
        np.prod(diag_up, axis=-1), np.prod(diag_down, axis=-1),
    )


def _system_side(a, b, system, r, up=1.0, down=1.0):
    """|a|^2 s_uu up + |b|^2 s_dd down + 2 Re(a conj(b) s_du r), on numbers
    or arrays: ``system`` is (s_uu, s_dd, Re s_du, Im s_du), ``r`` the
    coherence product and ``up`` and ``down`` the diagonal environment
    products, 1 on the system alone. Complex products go by _product."""
    s_uu, s_dd, s_re, s_im = system
    c_re, c_im = _product(a.real, a.imag, b.real, -b.imag)
    c_re, c_im = _product(c_re, c_im, s_re, s_im)
    return (
        (a.real * a.real + a.imag * a.imag) * s_uu * up
        + (b.real * b.real + b.imag * b.imag) * s_dd * down
        + 2.0 * (c_re * r.real - c_im * r.imag)
    )


def _product(x_re, x_im, y_re, y_im):
    """The parts of the complex product x * y, rounded as Python's complex
    type rounds them: numpy's complex multiply may fuse a multiply and an
    add, which moves the last bit."""
    return x_re * y_re - x_im * y_im, x_re * y_im + x_im * y_re


def reduced_state(model: SpinBathModel, t: float) -> ReducedState:
    """System density matrix at time t: fixed populations, decaying coherence.

    The defining contract is expectation_relevant(model, obs, t) ==
    trace(rho(t) obs) for every system observable, which pins the
    coherence to a * conj(b) * r(t) with no free sign or conjugation, and
    the populations to the expectations of the projectors on |up>, |down>.
    """
    a, b, r = model.a, model.b, r_of_t(model, t)
    p_uu = _system_side(a, b, (1.0, 0.0, 0.0, 0.0), r)
    p_dd = _system_side(a, b, (0.0, 1.0, 0.0, 0.0), r)
    return ReducedState(p_uu, p_dd, a * b.conjugate() * r)


def sample_series(
    model: SpinBathModel,
    t_start: float,
    t_end: float,
    steps: int,
    obs: RelevantObservable | None = None,
) -> TimeSeries:
    """Evaluate r(t) (and optionally an expectation) on a uniform grid.

    The grid has ``steps`` points and includes both endpoints. Work is
    vectorized over the grid points whose product is still nonzero; a
    point that underflows to exactly zero is no longer multiplied and is
    reported as ``0`` (never ``-0``).
    """
    if steps < 2:
        raise InvalidParameterError(f"steps must be >= 2, got {steps}")
    if not np.isfinite(float(t_end) - float(t_start)) or t_start >= t_end:
        raise InvalidParameterError(
            f"need finite t_start < t_end a finite span apart, got [{t_start!r}, {t_end!r}]"
        )
    times = np.linspace(t_start, t_end, steps)
    r = _r_values(*spin_moduli(model), times)
    expectations = None
    if obs is not None:
        system = (obs.s_uu, obs.s_dd, obs.s_du.real, obs.s_du.imag)
        expectations = _system_side(model.a, model.b, system, r)
    for array in (times, r, expectations):
        if array is not None:
            array.setflags(write=False)  # handed over: TimeSeries keeps them
    return TimeSeries(times, r, expectations)
