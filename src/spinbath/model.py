"""Model data for a central spin-1/2 dephasing against a bath of N spins.

Conventions used throughout the package:

* The system qubit starts in ``a|up> + b|down>``; bath spin i starts in
  ``alpha_i|up> + beta_i|down>``. All four amplitudes are complex and each
  pair is normalized to 1 within 1e-12.
* The interaction couples the system's z-projection to each bath spin's
  z-projection with strength ``g_i``; there are no self-Hamiltonians.
  Initial states are pure products.
* Units are dimensionless: g carries radians per unit time, so ``g * t``
  is a phase. Nothing in the package fixes a time scale.
* Observables are stored by their independent Hermitian entries only:
  the diagonal is real and the upper off-diagonal entry is the conjugate
  of the lower one, so a 2x2 Hermitian matrix is (x_uu, x_dd, x_du).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    EmptyEnvironmentError,
    InvalidParameterError,
    NormalizationError,
)

NORMALIZATION_TOLERANCE = 1e-12

# The system amplitudes a = b of every random model: a balanced qubit.
BALANCED_AMPLITUDE = complex(math.sqrt(0.5))


def _abs2(z: complex) -> float:
    return z.real * z.real + z.imag * z.imag


def _check_pair(x: complex, y: complex, which: str) -> None:
    if not (math.isfinite(x.real) and math.isfinite(x.imag)
            and math.isfinite(y.real) and math.isfinite(y.imag)):
        raise InvalidParameterError(f"{which}: amplitudes must be finite")
    residual = abs(_abs2(x) + _abs2(y) - 1.0)
    if residual > NORMALIZATION_TOLERANCE:
        raise NormalizationError(which, residual)


@dataclass(frozen=True)
class EnvironmentSpin:
    """One bath spin: initial amplitudes and its coupling to the system.

    ``alpha`` multiplies |up>, ``beta`` multiplies |down>, and ``g`` is the
    coupling strength in radians per unit time (finite and nonzero).
    """

    alpha: complex
    beta: complex
    g: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "beta", complex(self.beta))
        object.__setattr__(self, "g", float(self.g))
        _check_pair(self.alpha, self.beta, "environment spin")
        if not math.isfinite(self.g) or self.g == 0.0:
            raise InvalidParameterError(
                f"environment spin: coupling g must be finite and nonzero, got {self.g!r}"
            )


@dataclass(frozen=True)
class SpinBathModel:
    """The full system: central amplitudes (a, b) and an ordered spin bath."""

    a: complex
    b: complex
    spins: tuple[EnvironmentSpin, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "b", complex(self.b))
        object.__setattr__(self, "spins", tuple(self.spins))
        if len(self.spins) == 0:
            raise EmptyEnvironmentError("a model needs at least one environment spin")
        _check_pair(self.a, self.b, "system")

    @property
    def n_spins(self) -> int:
        return len(self.spins)


def new_model(
    a: complex,
    b: complex,
    spins: Iterable[tuple[complex, complex, float]],
) -> SpinBathModel:
    """Build a validated model from raw (alpha, beta, g) triples.

    Raises NormalizationError naming the offending pair (with its residual),
    EmptyEnvironmentError for an empty bath, and InvalidParameterError for
    non-finite entries or zero couplings.
    """
    built = []
    for i, (alpha, beta, g) in enumerate(spins):
        try:
            built.append(EnvironmentSpin(alpha, beta, g))
        except NormalizationError as exc:
            raise NormalizationError(f"spin {i + 1}", exc.residual) from None
        except InvalidParameterError as exc:
            raise InvalidParameterError(f"spin {i + 1}: {exc}") from None
    if not built:
        raise EmptyEnvironmentError("a model needs at least one environment spin")
    return SpinBathModel(a, b, tuple(built))


def _check_entries(obs, what: str) -> None:
    """Coerce an observable's fields (diagonal, diagonal, off-diagonal) to
    float, float and complex, then refuse the first that is not finite."""
    names = [f.name for f in fields(obs)]
    for name, kind in zip(names, (float, float, complex)):
        object.__setattr__(obs, name, kind(getattr(obs, name)))
    for name in names:
        if not np.isfinite(getattr(obs, name)):
            raise InvalidParameterError(f"{what} {name} must be finite")


@dataclass(frozen=True)
class RelevantObservable:
    """Hermitian observable on the system qubit alone (identity on the bath).

    Entries: s_uu = <up|O|up>, s_dd = <down|O|down>, s_du = <down|O|up>;
    the remaining entry is conj(s_du) by Hermiticity.
    """

    s_uu: float
    s_dd: float
    s_du: complex = 0j

    def __post_init__(self):
        _check_entries(self, "observable")

    @classmethod
    def identity(cls) -> "RelevantObservable":
        return cls(1.0, 1.0, 0j)


@dataclass(frozen=True)
class LocalObservable:
    """Hermitian observable on a single bath spin (same entry convention)."""

    e_uu: float
    e_dd: float
    e_du: complex = 0j

    def __post_init__(self):
        _check_entries(self, "local observable")

    @classmethod
    def identity(cls) -> "LocalObservable":
        return cls(1.0, 1.0, 0j)


@dataclass(frozen=True)
class FullObservable:
    """Tensor-product observable: system part times one local factor per spin."""

    system_part: RelevantObservable
    env_parts: tuple[LocalObservable, ...]

    def __post_init__(self):
        object.__setattr__(self, "env_parts", tuple(self.env_parts))

    @classmethod
    def identity_environment(cls, system_part: RelevantObservable, n: int) -> "FullObservable":
        return cls(system_part, tuple(LocalObservable.identity() for _ in range(n)))


def spin_arrays(model: SpinBathModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bath as ``(alpha, beta, g)`` arrays, one entry per spin in order."""
    alpha = np.array([s.alpha for s in model.spins], dtype=np.complex128)
    beta = np.array([s.beta for s in model.spins], dtype=np.complex128)
    g = np.array([s.g for s in model.spins], dtype=np.float64)
    return alpha, beta, g


def spin_moduli(model: SpinBathModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bath as ``(|alpha|^2, |beta|^2, g)`` arrays, each modulus x * x + y * y
    correctly rounded: the one source of moduli for r(t) and the spectral
    weights, so that both routes read the same bits."""
    alpha, beta, g = spin_arrays(model)
    return _abs2(alpha), _abs2(beta), g


def observable_entries(obs: FullObservable) -> tuple[np.ndarray, np.ndarray]:
    """A product observable's entries as float arrays, the layout that the
    stacked evaluators take: ``(s_uu, s_dd, Re s_du, Im s_du)`` of the system
    part, shape (4,), and ``(e_uu, e_dd, Re e_du, Im e_du)`` of each local
    part, shape (n, 4)."""
    s = obs.system_part
    system = np.array([s.s_uu, s.s_dd, s.s_du.real, s.s_du.imag])
    env = np.array(
        [[p.e_uu, p.e_dd, p.e_du.real, p.e_du.imag] for p in obs.env_parts],
        dtype=np.float64,
    ).reshape(len(obs.env_parts), 4)
    return system, env


# ---------------------------------------------------------------------------
# Random generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UniformPositive:
    """Couplings drawn uniformly from (0, g_max]; zero is excluded."""

    g_max: float = 1.0


@dataclass(frozen=True)
class Equal:
    """Every coupling equal to g."""

    g: float


CouplingLaw = UniformPositive | Equal


class PhaseLaw(Enum):
    """Phase protocol for the bath amplitudes.

    ZERO keeps alpha, beta real nonnegative (phases never enter r(t)).
    UNIFORM gives each an independent phase uniform on [0, 2*pi); phases
    do enter full-observable expectations through Re(alpha*conj(beta)*e_du).
    """

    ZERO = "zero"
    UNIFORM = "uniform"


def _spin_checks(alpha: np.ndarray, beta: np.ndarray, g: np.ndarray) -> None:
    """EnvironmentSpin's checks over arrays of spins, in one pass.

    The first spin (in row-major order) that any check refuses is built as
    an EnvironmentSpin, which raises that check's own error.
    """
    # a non-finite amplitude makes the residual non-finite, so it fails too
    ok = np.abs(_abs2(alpha) + _abs2(beta) - 1.0) <= NORMALIZATION_TOLERANCE
    ok &= np.isfinite(g) & (g != 0.0)
    if not ok.all():
        first = np.unravel_index(np.argmin(ok), ok.shape)
        EnvironmentSpin(alpha[first], beta[first], g[first])


def random_spin_arrays(
    n: int,
    seeds: Sequence[int],
    coupling_law: CouplingLaw = UniformPositive(1.0),
    phase_law: PhaseLaw = PhaseLaw.ZERO,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The baths that generate_random draws, for a stack of seeds at once.

    Returns ``(alpha, beta, g)``, each of shape ``(len(seeds), n)``: row j
    is the bath of ``generate_random(n, seeds[j], coupling_law,
    phase_law)``, bit for bit. Each seed's generator makes its whole draw
    in one call (``random(n * k)``, k draws per spin, in the per-spin order
    that generate_random documents; numpy fills an array with the same
    doubles that k * n scalar calls return), and the square roots, phases,
    couplings and EnvironmentSpin's checks then run once over the stack.
    np.cos and np.sin give the bits of math.cos and math.sin on these
    phases; tests/test_model.py pins the whole draw against a per-spin
    scalar transcription.
    """
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    if isinstance(coupling_law, UniformPositive):
        if not (math.isfinite(coupling_law.g_max) and coupling_law.g_max > 0):
            raise InvalidParameterError(
                f"g_max must be positive, got {coupling_law.g_max!r}"
            )
    elif isinstance(coupling_law, Equal):
        if not math.isfinite(coupling_law.g) or coupling_law.g == 0.0:
            raise InvalidParameterError(
                f"equal coupling g must be finite and nonzero, got {coupling_law.g!r}"
            )
    else:
        raise InvalidParameterError(f"unknown coupling law {coupling_law!r}")

    phased = phase_law is PhaseLaw.UNIFORM
    drawn = isinstance(coupling_law, UniformPositive)
    per_spin = 1 + 2 * phased + drawn
    draws = np.array(
        [np.random.default_rng(seed).random(n * per_spin) for seed in seeds]
    ).reshape(len(seeds), n, per_spin)
    u = draws[..., 0]
    amp_a = np.sqrt(u)
    amp_b = np.sqrt(1.0 - u)
    if phased:
        pa = 2.0 * math.pi * draws[..., 1]
        pb = 2.0 * math.pi * draws[..., 2]
        alpha = np.empty(u.shape, dtype=np.complex128)
        beta = np.empty(u.shape, dtype=np.complex128)
        alpha.real, alpha.imag = amp_a * np.cos(pa), amp_a * np.sin(pa)
        beta.real, beta.imag = amp_b * np.cos(pb), amp_b * np.sin(pb)
    else:
        alpha, beta = amp_a.astype(np.complex128), amp_b.astype(np.complex128)
    if drawn:
        g = coupling_law.g_max * (1.0 - draws[..., -1])
    else:
        g = np.full(u.shape, float(coupling_law.g))
    _spin_checks(alpha, beta, g)
    return alpha, beta, g


def generate_random(
    n: int,
    seed: int,
    coupling_law: CouplingLaw = UniformPositive(1.0),
    phase_law: PhaseLaw = PhaseLaw.ZERO,
) -> SpinBathModel:
    """Draw a seeded random model following the simulation protocol.

    The system qubit is fixed balanced (a = b = sqrt(1/2)); each bath spin
    draws |alpha_i|^2 uniformly on [0, 1] with |beta_i|^2 = 1 - |alpha_i|^2.

    The generator is numpy's default PCG64 seeded with ``seed``, and the
    draw order per spin is fixed so identical inputs reproduce identical
    models bit for bit on any platform:

    1. ``u`` uniform on [0, 1) -> |alpha_i|^2
    2. two phase draws (only when phase_law is UNIFORM)
    3. one coupling draw (only when coupling_law is UniformPositive),
       mapped as ``g = g_max * (1 - v)`` so g lies in (0, g_max].

    The draw itself is random_spin_arrays for a stack of one seed.
    """
    alpha, beta, g = random_spin_arrays(n, [seed], coupling_law, phase_law)
    spins = map(EnvironmentSpin, alpha[0].tolist(), beta[0].tolist(), g[0].tolist())
    return SpinBathModel(BALANCED_AMPLITUDE, BALANCED_AMPLITUDE, tuple(spins))
