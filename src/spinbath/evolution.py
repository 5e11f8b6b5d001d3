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
array of times for both :func:`r_of_t` and :func:`sample_series`. At large N
the decay is Gaussian and most of a long grid underflows; a time point whose
running product is exactly zero stays zero whatever factors follow, so the
kernel stops multiplying it and reports it as ``0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidParameterError
from .model import FullObservable, RelevantObservable, SpinBathModel

_R_MODULUS_TOLERANCE = 1e-12

# Spins multiplied between two sweeps for exact zeros in _r_values. A
# sweep copies the surviving points, so it must be rare against the
# per-spin work; yet a point that has reached zero is still multiplied
# until the next sweep. At N = 5000 and 2000 steps, blocks of 16 to 128
# spins ran alike within timing noise, and 64 was kept.
_ZERO_SWEEP_SPINS = 64


@dataclass(frozen=True)
class TimeSeries:
    """Sampled evolution on a strictly increasing time grid.

    ``expectation_values`` is present only when an observable was sampled.
    Arrays are read-only; lengths always match the grid.
    """

    times: np.ndarray
    r_values: np.ndarray
    expectation_values: np.ndarray | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        r_values = np.asarray(self.r_values, dtype=np.complex128)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "r_values", r_values)
        if times.ndim != 1 or r_values.shape != times.shape:
            raise InvalidParameterError("times and r_values must be 1-d and equal length")
        if len(times) >= 2 and not np.all(np.diff(times) > 0):
            raise InvalidParameterError("times must be strictly increasing")
        if np.any(np.abs(r_values) > 1.0 + _R_MODULUS_TOLERANCE):
            raise InvalidParameterError("|r| exceeds 1 beyond tolerance")
        if self.expectation_values is not None:
            exp = np.asarray(self.expectation_values, dtype=np.float64)
            if exp.shape != times.shape:
                raise InvalidParameterError("expectation_values length must match times")
            object.__setattr__(self, "expectation_values", exp)
            exp.setflags(write=False)
        times.setflags(write=False)
        r_values.setflags(write=False)

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


def _check_time(t: float) -> None:
    if not math.isfinite(t):
        raise InvalidParameterError(f"t must be finite, got {t!r}")


def _moduli(model: SpinBathModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-spin (|alpha|^2, |beta|^2, g) arrays."""
    alpha = np.array([s.alpha for s in model.spins], dtype=np.complex128)
    beta = np.array([s.beta for s in model.spins], dtype=np.complex128)
    g = np.array([s.g for s in model.spins], dtype=np.float64)
    a2 = alpha.real**2 + alpha.imag**2
    b2 = beta.real**2 + beta.imag**2
    return a2, b2, g


def _populations(model: SpinBathModel) -> tuple[float, float]:
    """System populations (|a|^2, |b|^2)."""
    a, b = model.a, model.b
    return a.real * a.real + a.imag * a.imag, b.real * b.real + b.imag * b.imag


def _r_values(a2: np.ndarray, b2: np.ndarray, g: np.ndarray, times: np.ndarray) -> np.ndarray:
    """r at every entry of ``times``: the product of the per-spin factors.

    Factors are multiplied in spin order, one vectorized pass per spin
    over the time points still in play. After every _ZERO_SWEEP_SPINS
    spins, points whose product is exactly zero (both parts) are dropped:
    no finite factor can move them off zero. Dropped points come back as
    ``0j``; every other entry is bit-identical to the full product over
    any array of two or more time points.

    numpy multiplies a one-element array in place with its reduction
    loop, which rounds complex products unlike the vector loop of longer
    arrays. So no array here is shorter than two: a lone time point is
    evaluated twice, and a zero rides along with a lone live point.
    """
    t = np.asarray(times, dtype=np.float64)
    if len(t) == 1:
        t = np.repeat(t, 2)
    size = len(t)
    index = np.arange(size)
    r = np.ones(size, dtype=np.complex128)
    for start in range(0, len(g), _ZERO_SWEEP_SPINS):
        stop = start + _ZERO_SWEEP_SPINS
        for a2_i, b2_i, g_i in zip(a2[start:stop], b2[start:stop], g[start:stop]):
            phase = np.exp(-1j * g_i * t)
            r *= a2_i * phase + b2_i * np.conj(phase)
        live = r != 0
        n_live = np.count_nonzero(live)
        if n_live == 0:
            break
        if n_live < len(r):
            if n_live == 1:
                live[np.argmin(live)] = True
            index, t, r = index[live], t[live], r[live]
    out = np.zeros(size, dtype=np.complex128)
    live = r != 0
    out[index[live]] = r[live]
    return out[:len(times)]


def r_of_t(model: SpinBathModel, t: float) -> complex:
    """Dephasing factor r(t), the overlap of the two evolved bath branches."""
    _check_time(t)
    return complex(_r_values(*_moduli(model), np.array([t]))[0])


def r_squared(model: SpinBathModel, t: float) -> float:
    """|r(t)|^2 evaluated from the real product form.

    Each factor is |alpha|^4 + |beta|^4 + 2 |alpha|^2 |beta|^2 cos(2 g t),
    so the result is manifestly real; it equals |r_of_t(t)|^2 within 1e-12.
    """
    _check_time(t)
    a2, b2, g = _moduli(model)
    factors = a2 * a2 + b2 * b2 + 2.0 * a2 * b2 * np.cos(2.0 * g * t)
    return float(np.prod(factors))


def r_bounds(model: SpinBathModel) -> tuple[float, float]:
    """Envelope of |r(t)|^2: (prod_i (2|alpha_i|^2 - 1)^2, 1).

    The lower bound is attained when every cos(2 g_i t) reaches -1
    simultaneously (exactly at half the recurrence time for equal
    couplings); the upper bound 1 is attained at t = 0.
    """
    a2, _, _ = _moduli(model)
    lower = float(np.prod((2.0 * a2 - 1.0) ** 2))
    return lower, 1.0


def expectation_relevant(model: SpinBathModel, obs: RelevantObservable, t: float) -> float:
    """Expectation of a system-only observable in the evolved state.

    Equals |a|^2 s_uu + |b|^2 s_dd + 2 Re[a conj(b) s_du r(t)]: the
    populations are frozen and the interference term decays with r(t).
    """
    a2, b2 = _populations(model)
    cross = model.a * model.b.conjugate() * obs.s_du * r_of_t(model, t)
    return a2 * obs.s_uu + b2 * obs.s_dd + 2.0 * cross.real


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
    factor is only exact for real cross terms.
    """
    n = model.n_spins
    if len(obs.env_parts) != n:
        raise DimensionMismatchError(
            f"observable has {len(obs.env_parts)} environment parts, model has {n} spins"
        )
    _check_time(t)
    a2, b2, g = _moduli(model)
    alpha = np.array([s.alpha for s in model.spins], dtype=np.complex128)
    beta = np.array([s.beta for s in model.spins], dtype=np.complex128)
    e_uu = np.array([p.e_uu for p in obs.env_parts], dtype=np.float64)
    e_dd = np.array([p.e_dd for p in obs.env_parts], dtype=np.float64)
    e_du = np.array([p.e_du for p in obs.env_parts], dtype=np.complex128)

    phase = np.exp(1j * g * t)
    cross = alpha * np.conj(beta) * e_du
    diag_up = a2 * e_uu + b2 * e_dd + 2.0 * (cross * np.conj(phase)).real
    diag_down = a2 * e_uu + b2 * e_dd + 2.0 * (cross * phase).real
    coherent = a2 * e_uu * np.conj(phase) + b2 * e_dd * phase + 2.0 * cross.real

    sys_a2, sys_b2 = _populations(model)
    s = obs.system_part
    value = (
        sys_a2 * s.s_uu * float(np.prod(diag_up))
        + sys_b2 * s.s_dd * float(np.prod(diag_down))
        + 2.0 * (model.a * model.b.conjugate() * s.s_du * complex(np.prod(coherent))).real
    )
    return float(value)


def reduced_state(model: SpinBathModel, t: float) -> ReducedState:
    """System density matrix at time t: fixed populations, decaying coherence.

    The defining contract is expectation_relevant(model, obs, t) ==
    trace(rho(t) obs) for every system observable, which pins the
    coherence to a * conj(b) * r(t) with no free sign or conjugation.
    """
    p_uu, p_dd = _populations(model)
    return ReducedState(p_uu, p_dd, model.a * model.b.conjugate() * r_of_t(model, t))


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
    if not (np.isfinite(t_start) and np.isfinite(t_end)) or t_start >= t_end:
        raise InvalidParameterError(
            f"need finite t_start < t_end, got [{t_start!r}, {t_end!r}]"
        )
    times = np.linspace(t_start, t_end, steps)
    r = _r_values(*_moduli(model), times)
    expectations = None
    if obs is not None:
        sys_a2, sys_b2 = _populations(model)
        base = sys_a2 * obs.s_uu + sys_b2 * obs.s_dd
        expectations = base + 2.0 * (model.a * model.b.conjugate() * obs.s_du * r).real
    return TimeSeries(times, r, expectations)
