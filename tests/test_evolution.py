"""Closed-form evolution: r(t), expectations, reduced state, sampling.

The load-bearing checks here compare every closed form against the
state-vector oracle in spinbath.spectrum, which shares no code with the
formulas under test.
"""

import cmath
import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from spinbath import (
    DimensionMismatchError,
    FullObservable,
    InvalidParameterError,
    LocalObservable,
    ReducedState,
    RelevantObservable,
    TimeSeries,
    brute_force_expectation,
    expectation_full,
    expectation_relevant,
    generate_random,
    new_model,
    r_bounds,
    r_of_t,
    r_squared,
    reduced_state,
    sample_series,
)
from spinbath import evolution, spectrum
from spinbath.errors import CapExceededError
from spinbath.evolution import expectation_full_stack
from spinbath.harness import OUTPUT_FORMATS, parse_config
from spinbath.model import (
    Equal,
    PhaseLaw,
    UniformPositive,
    observable_entries,
    random_spin_arrays,
)
from spinbath.spectrum import ORACLE_CAP, brute_force_stack

from conftest import (
    ROOT_HALF,
    bounded_model,
    random_full_observable,
    random_system_observable,
    triples,
)


def random_grid(n, seed, **grid):
    """(t_start, t_end, steps) of the grid parse_config gives generate_random(n, seed)."""
    doc = {"model": {"random": {"n": n, "seed": seed}}, "grid": grid}
    parsed = parse_config(doc, OUTPUT_FORMATS["simulate"]).grid
    return parsed.t_start, parsed.t_end, parsed.steps


def balanced_equal_model(n, g):
    return new_model(ROOT_HALF, ROOT_HALF, [(ROOT_HALF, ROOT_HALF, g)] * n)


# ---------------------------------------------------------------------------
# r(t) against hand formulas
# ---------------------------------------------------------------------------

def test_single_balanced_spin_gives_cosine():
    m = balanced_equal_model(1, 2.0)
    for t in (0.0, 0.3, 1.7, -4.0):
        assert abs(r_of_t(m, t) - math.cos(2.0 * t)) < 1e-12


def test_single_unbalanced_spin_hand_formula():
    # |alpha|^2 = 0.8: r(t) = cos(g t) - 0.6 i sin(g t)
    m = new_model(1.0, 0.0, [(math.sqrt(0.8), math.sqrt(0.2), 1.3)])
    for t in (0.1, 0.9, 5.0):
        expected = complex(math.cos(1.3 * t), -0.6 * math.sin(1.3 * t))
        assert abs(r_of_t(m, t) - expected) < 1e-12


def test_r_is_product_over_spins():
    m = new_model(ROOT_HALF, ROOT_HALF,
                  [(ROOT_HALF, ROOT_HALF, 0.9), (math.sqrt(0.3), math.sqrt(0.7), 2.1)])
    t = 0.77
    one = math.cos(0.9 * t)
    two = 0.3 * cmath.exp(-2.1j * t) + 0.7 * cmath.exp(2.1j * t)
    assert abs(r_of_t(m, t) - one * two) < 1e-12


def test_equal_coupling_balanced_bath_is_cosine_power():
    g = 0.6
    for n in (1, 4, 9):
        m = balanced_equal_model(n, g)
        for t in np.linspace(0.0, 8.0, 17):
            assert abs(r_of_t(m, t) - math.cos(g * t) ** n) < 1e-12


def test_r_at_zero_is_one(rng):
    for n in (1, 5, 40):
        m = bounded_model(n, rng, phases=True)
        assert abs(r_of_t(m, 0.0) - 1.0) < 1e-12


def test_r_conjugate_symmetry(rng):
    m = bounded_model(12, rng, phases=True)
    for t in rng.uniform(-30.0, 30.0, size=20):
        assert abs(r_of_t(m, -t) - r_of_t(m, t).conjugate()) < 1e-12


def test_r_modulus_never_exceeds_one(rng):
    for n in (1, 8, 25):
        m = bounded_model(n, rng)
        for t in rng.uniform(0.0, 100.0, size=50):
            assert abs(r_of_t(m, t)) <= 1.0 + 1e-12


def test_r_squared_matches_modulus(rng):
    m = bounded_model(10, rng, phases=True)
    for t in rng.uniform(0.0, 50.0, size=30):
        assert abs(r_squared(m, t) - abs(r_of_t(m, t)) ** 2) < 1e-12


def test_r_squared_ignores_phases(rng):
    """|r| depends on moduli and couplings only."""
    n, seed = 9, 314
    plain = generate_random(n, seed, phase_law=PhaseLaw.ZERO)
    phased = generate_random(n, seed, phase_law=PhaseLaw.UNIFORM)
    # same seed, same |alpha|^2 draws, but the coupling draws shift position
    # in the stream, so rebuild the phased model with the plain couplings
    rebuilt = new_model(
        phased.a, phased.b,
        [(s_alpha / abs(s_alpha) * abs(p_alpha) if abs(s_alpha) else 0.0,
          s_beta / abs(s_beta) * abs(p_beta) if abs(s_beta) else 0.0,
          p_g)
         for (s_alpha, s_beta, _), (p_alpha, p_beta, p_g) in zip(triples(phased), triples(plain))],
    )
    for t in (0.4, 2.2, 9.1):
        assert abs(r_squared(rebuilt, t) - r_squared(plain, t)) < 1e-12


def test_r_bounds_bracket_samples(rng):
    for n in (2, 7, 14):
        m = bounded_model(n, rng)
        lower, upper = r_bounds(m)
        assert upper == 1.0
        for t in rng.uniform(0.0, 200.0, size=200):
            v = r_squared(m, t)
            assert lower - 1e-12 <= v <= upper + 1e-12


def test_r_bounds_lower_attained_for_equal_couplings():
    g = 0.8
    m = new_model(ROOT_HALF, ROOT_HALF,
                  [(math.sqrt(0.9), math.sqrt(0.1), g),
                   (math.sqrt(0.75), math.sqrt(0.25), g)])
    lower, _ = r_bounds(m)
    # every cos(2 g t) reaches -1 together at t = pi / (2 g)
    assert abs(r_squared(m, math.pi / (2.0 * g)) - lower) < 1e-12


# ---------------------------------------------------------------------------
# Expectation values against the state-vector oracle
# ---------------------------------------------------------------------------

def test_identity_observable_has_unit_expectation(rng):
    m = bounded_model(6, rng, phases=True)
    assert abs(expectation_relevant(m, RelevantObservable.identity(), 3.3) - 1.0) < 1e-12
    full_id = FullObservable.identity_environment(RelevantObservable.identity(), 6)
    assert abs(expectation_full(m, full_id, 3.3) - 1.0) < 1e-12


def test_relevant_expectation_hand_formula(rng):
    m = bounded_model(5, rng, phases=True)
    obs = RelevantObservable(0.25, -1.5, 0.4 - 0.2j)
    for t in (0.0, 1.1, 6.6):
        r = r_of_t(m, t)
        expected = (abs(m.a) ** 2 * 0.25 + abs(m.b) ** 2 * (-1.5)
                    + 2.0 * (m.a * m.b.conjugate() * (0.4 - 0.2j) * r).real)
        assert abs(expectation_relevant(m, obs, t) - expected) < 1e-12


def test_relevant_expectation_against_oracle(rng):
    for _ in range(25):
        n = int(rng.integers(1, 8))
        m = bounded_model(n, rng, phases=True)
        obs = random_system_observable(rng)
        t = float(rng.uniform(0.0, 50.0))
        closed = expectation_relevant(m, obs, t)
        brute = brute_force_expectation(
            m, FullObservable.identity_environment(obs, n), t)
        assert abs(closed - brute) < 1e-10


def test_full_expectation_against_oracle(rng):
    for _ in range(40):
        n = int(rng.integers(1, 9))
        m = bounded_model(n, rng, phases=True)
        obs = random_full_observable(rng, n)
        t = float(rng.uniform(0.0, 50.0))
        assert abs(expectation_full(m, obs, t)
                   - brute_force_expectation(m, obs, t)) < 1e-10


def test_full_expectation_with_complex_cross_terms(rng):
    """Imaginary alpha*conj(beta)*e_du makes the two diagonal branch
    products differ; the oracle pins the resolved form."""
    m = new_model(0.6, 0.8j, [(ROOT_HALF, ROOT_HALF * 1j, 1.1),
                              (0.6j, 0.8, 0.7)])
    obs = FullObservable(
        RelevantObservable(1.0, -1.0, 0.5 + 0.5j),
        (LocalObservable(0.3, -0.2, 0.1 + 0.4j),
         LocalObservable(-0.1, 0.5, 0.2 - 0.3j)),
    )
    for t in np.linspace(0.0, 12.0, 13):
        closed = expectation_full(m, obs, float(t))
        brute = brute_force_expectation(m, obs, float(t))
        assert abs(closed - brute) < 1e-10


def test_full_expectation_reduces_to_relevant_for_identity_environment(rng):
    m = bounded_model(7, rng, phases=True)
    sys_obs = random_system_observable(rng)
    full = FullObservable.identity_environment(sys_obs, 7)
    for t in (0.5, 4.0):
        assert abs(expectation_full(m, full, t)
                   - expectation_relevant(m, sys_obs, t)) < 1e-12


def test_full_expectation_rejects_wrong_arity(rng):
    m = bounded_model(3, rng)
    obs = random_full_observable(rng, 4)
    with pytest.raises(DimensionMismatchError):
        expectation_full(m, obs, 1.0)


def test_expectation_is_real_for_hermitian_input(rng):
    m = bounded_model(5, rng, phases=True)
    obs = random_full_observable(rng, 5)
    value = expectation_full(m, obs, 2.4)
    assert isinstance(value, float)


# ---------------------------------------------------------------------------
# Stacked evaluation: one array pass over many cases of one bath size
# ---------------------------------------------------------------------------

def drawn_case(n, seed):
    """An observable with entries in [-0.5, 0.5] and a time in [0, 50]."""
    r = np.random.default_rng(seed)
    c = r.uniform(-0.5, 0.5, size=4)
    parts = tuple(LocalObservable(e[0], e[1], complex(e[2], e[3]))
                  for e in r.uniform(-0.5, 0.5, size=(n, 4)))
    return FullObservable(RelevantObservable(c[0], c[1], complex(c[2], c[3])), parts), 50.0 * r.random()


def stack_of(models, observables):
    """The arrays the stacked evaluators take, one row per case."""
    a = np.array([m.a for m in models])
    b = np.array([m.b for m in models])
    alpha, beta, g = (np.array([getattr(m, k) for m in models]) for k in ("alpha", "beta", "g"))
    system, env = (np.array(column) for column in zip(*map(observable_entries, observables)))
    return a, b, alpha, beta, g, system, env


@pytest.mark.parametrize("n", range(1, ORACLE_CAP + 1))
def test_stacked_evaluators_agree_with_single_calls(n):
    """Cases with their own system amplitudes, baths, observables and times:
    each row of a stack is the single call's value to within 1e-15."""
    r = np.random.default_rng(1000 + n)
    models, observables, times = [], [], []
    for seed in range(4):
        theta, phi = r.uniform(0.0, math.pi / 2), r.uniform(0.0, 2 * math.pi)
        bath = generate_random(n, 10 * n + seed, UniformPositive(1.0), PhaseLaw.UNIFORM)
        models.append(new_model(math.cos(theta) * cmath.exp(1j * phi), math.sin(theta),
                                triples(bath)))
        obs, t = drawn_case(n, seed)
        observables.append(obs)
        times.append(t)
    arrays = stack_of(models, observables)
    closed = expectation_full_stack(*arrays, times)
    brute = brute_force_stack(*arrays, times)
    assert closed.shape == brute.shape == (4,)
    for j, (m, obs, t) in enumerate(zip(models, observables, times)):
        assert abs(closed[j] - expectation_full(m, obs, t)) <= 1e-15
        assert abs(brute[j] - brute_force_expectation(m, obs, t)) <= 1e-15
        assert abs(closed[j] - brute[j]) < 1e-10


def off_balance_model():
    """Unbalanced, complex system amplitudes and a negative coupling."""
    return new_model(0.6, 0.8j, [(complex(math.sqrt(0.3), 0.0), complex(0.0, math.sqrt(0.7)), 0.5),
                                 (0.6, -0.8, -1.25),
                                 (1j, 0j, 2.0)])


# expectation_full and brute_force_expectation on a model (generate_random(n,
# seed, UniformPositive(1.0), law), or the off-balance one) with
# drawn_case(n, case seed), as the per-case evaluators returned them before
# the stacked ones took over (numpy 2.4 with its bundled OpenBLAS, x86-64).
@pytest.mark.parametrize("n, seed, law, case_seed, closed, brute", [
    (1, 11, PhaseLaw.UNIFORM, 11, "0x1.c3a229e2e9b68p-6", "0x1.c3a229e2e9b59p-6"),
    (3, 12, PhaseLaw.UNIFORM, 12, "0x1.50fd11651030cp-6", "0x1.50fd116510316p-6"),
    (7, 13, PhaseLaw.UNIFORM, 13, "0x1.873e3f8dc3aaap-11", "0x1.873e3f8dc3a7fp-11"),
    (9, 14, PhaseLaw.ZERO, 14, "0x1.cf2db6994bfbap-15", "0x1.cf2db6994bfb3p-15"),
    (12, 15, PhaseLaw.UNIFORM, 15, "0x1.91d6bf830c85bp-21", "0x1.91d6bf830c85ap-21"),
    (3, None, None, 16, "-0x1.ab229096947a8p-6", "-0x1.ab229096947a8p-6"),
])
def test_single_calls_keep_their_recorded_bits(n, seed, law, case_seed, closed, brute):
    if seed is None:
        m = off_balance_model()
    else:
        m = generate_random(n, seed, UniformPositive(1.0), law)
    obs, t = drawn_case(n, case_seed)
    assert expectation_full(m, obs, t).hex() == closed
    assert brute_force_expectation(m, obs, t).hex() == brute


def test_stacked_oracle_over_the_cap_allocates_nothing():
    n = ORACLE_CAP + 1
    alpha, beta, g = random_spin_arrays(n, [1], UniformPositive(1.0), PhaseLaw.UNIFORM)
    system, env = np.zeros((1, 4)), np.zeros((1, n, 4))
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match=f"the cap is {ORACLE_CAP} spins"):
            brute_force_stack(ROOT_HALF, ROOT_HALF, alpha, beta, g, system, env, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** (n + 1)  # under 1/16 of one state vector's bytes


def test_stacked_oracle_charges_the_whole_stack(monkeypatch):
    """Room for one case at N = 8 is not room for a stack of four."""
    n = 8
    alpha, beta, g = random_spin_arrays(n, [1, 2, 3, 4], UniformPositive(1.0), PhaseLaw.UNIFORM)
    system, env = np.zeros((4, 4)), np.zeros((4, n, 4))
    one = 2 ** (n + 1) * spectrum._ORACLE_BYTES_PER_STATE
    monkeypatch.setattr(spectrum, "_available_memory", lambda: 2 * one)
    brute_force_stack(ROOT_HALF, ROOT_HALF, alpha[:1], beta[:1], g[:1], system[:1], env[:1], 1.0)
    with pytest.raises(CapExceededError, match=r"4 x 2\^9 values"):
        brute_force_stack(ROOT_HALF, ROOT_HALF, alpha, beta, g, system, env, 1.0)


def test_stacked_evaluators_check_their_inputs():
    alpha, beta, g = random_spin_arrays(3, [1, 2], UniformPositive(1.0), PhaseLaw.UNIFORM)
    system, env = np.zeros((2, 4)), np.zeros((2, 4, 4))
    for evaluate in (expectation_full_stack, brute_force_stack):
        with pytest.raises(DimensionMismatchError, match="4 environment parts, model has 3"):
            evaluate(ROOT_HALF, ROOT_HALF, alpha, beta, g, system, env, 1.0)
    with pytest.raises(InvalidParameterError, match="t must be finite, got nan"):
        expectation_full_stack(ROOT_HALF, ROOT_HALF, alpha, beta, g, system,
                               np.zeros((2, 3, 4)), [1.0, math.nan])


# ---------------------------------------------------------------------------
# Reduced state
# ---------------------------------------------------------------------------

def test_reduced_state_matches_expectations(rng):
    """tr(rho O) must reproduce expectation_relevant for any O."""
    m = bounded_model(6, rng, phases=True)
    t = 1.9
    rho = reduced_state(m, t)
    for _ in range(10):
        obs = random_system_observable(rng)
        via_rho = (rho.p_uu * obs.s_uu + rho.p_dd * obs.s_dd
                   + 2.0 * (rho.coherence * obs.s_du).real)
        assert abs(via_rho - expectation_relevant(m, obs, t)) < 1e-12


def test_reduced_state_populations_are_static(rng):
    m = bounded_model(4, rng)
    for t in (0.0, 2.0, 17.0):
        rho = reduced_state(m, t)
        assert abs(rho.p_uu - abs(m.a) ** 2) < 1e-15
        assert abs(rho.p_dd - abs(m.b) ** 2) < 1e-15


def test_reduced_state_coherence_decays_with_r(rng):
    m = bounded_model(10, rng)
    rho = reduced_state(m, 3.0)
    expected = m.a * m.b.conjugate() * r_of_t(m, 3.0)
    assert abs(rho.coherence - expected) < 1e-12


def test_reduced_state_rejects_positivity_violation():
    with pytest.raises(InvalidParameterError):
        ReducedState(0.5, 0.5, 0.9 + 0j)
    with pytest.raises(InvalidParameterError):
        ReducedState(0.7, 0.7, 0.0j)
    with pytest.raises(InvalidParameterError, match="nonnegative"):
        ReducedState(-0.25, 1.25, 0j)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def test_sample_series_matches_pointwise_calls(rng):
    m = bounded_model(8, rng, phases=True)
    obs = random_system_observable(rng)
    series = sample_series(m, 0.5, 9.5, 101, obs)
    assert len(series) == 101
    assert series.times[0] == 0.5 and series.times[-1] == 9.5
    for k in (0, 17, 50, 100):
        t = float(series.times[k])
        assert abs(series.r_values[k] - r_of_t(m, t)) < 1e-12
        assert abs(series.expectation_values[k]
                   - expectation_relevant(m, obs, t)) < 1e-12


def test_r_of_t_matches_sample_series_bit_for_bit(rng):
    for n in (1, 7, 40, 300):
        m = bounded_model(n, rng, phases=True)
        series = sample_series(m, -50.0, 50.0, 21)
        pointwise = np.array([r_of_t(m, t) for t in series.times.tolist()])
        assert np.array_equal(pointwise.view(np.float64), series.r_values.view(np.float64))


@pytest.mark.parametrize("n", [3, 20, 300])
def test_expectation_relevant_is_sample_series_bit_for_bit(n):
    """Both evaluate the system side by one formula on the same r, so every
    grid point carries the same bits. The grid spans the decay, which
    takes a time of order 1 / sqrt(n), and phased baths give r an
    imaginary part."""
    obs = RelevantObservable(0.75, -1.25, complex(0.5, -0.375))
    for seed in range(1, 6):
        m = generate_random(n, seed, phase_law=PhaseLaw.UNIFORM)
        series = sample_series(m, 0.0, 4.0 / math.sqrt(n), 29, obs)
        pointwise = [expectation_relevant(m, obs, t) for t in series.times.tolist()]
        assert series.expectation_values.tolist() == pointwise


def test_sample_series_without_observable(rng):
    series = sample_series(bounded_model(3, rng), 0.0, 1.0, 5)
    assert series.expectation_values is None


def per_spin_loop(model, times):
    """r on a grid as one full pass per spin, zeros included."""
    alpha, beta, g = model.alpha, model.beta, model.g
    r = np.ones(len(times), dtype=np.complex128)
    for a2, b2, g_i in zip(alpha.real**2 + alpha.imag**2, beta.real**2 + beta.imag**2, g):
        phase = np.exp(-1j * g_i * times)
        r *= a2 * phase + b2 * np.conj(phase)
    return r


def assert_same_nonzero_bits(r, reference):
    zero = r == 0
    assert np.array_equal(zero, reference == 0)
    assert np.array_equal(r[~zero].view(np.float64), reference[~zero].view(np.float64))
    assert not np.signbit(r[zero].view(np.float64)).any()


@pytest.mark.parametrize("seed", [1, 9])
def test_sample_series_skips_exact_zeros_without_changing_bits(seed):
    m = generate_random(3000, seed)
    t_start, t_end, steps = random_grid(3000, seed, steps=400)
    r = sample_series(m, t_start, t_end, steps).r_values
    assert np.count_nonzero(r == 0) > steps // 2
    assert_same_nonzero_bits(r, per_spin_loop(m, np.linspace(t_start, t_end, steps)))


def test_sample_series_bits_with_one_surviving_point():
    m = generate_random(3000, 1)
    _, t_end, _ = random_grid(3000, 1)
    times = np.linspace(0.05, t_end, 20)
    r = sample_series(m, 0.05, t_end, 20).r_values
    assert np.count_nonzero(r) == 1
    assert_same_nonzero_bits(r, per_spin_loop(m, times))


def test_sample_series_bits_without_zeros(rng):
    m = bounded_model(40, rng, phases=True)
    r = sample_series(m, -3.0, 7.0, 257).r_values
    assert np.all(r != 0)
    reference = per_spin_loop(m, np.linspace(-3.0, 7.0, 257))
    assert np.array_equal(r.view(np.float64), reference.view(np.float64))


def use_cpus(monkeypatch, cpus):
    """Make the kernel see ``cpus`` usable CPUs, so it cuts that many slices."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def test_slice_count_follows_cpus_and_grid_size(monkeypatch):
    use_cpus(monkeypatch, 4)
    assert evolution._slice_count(20, 2000) == 1
    assert evolution._slice_count(5000, 2000) == 4
    assert evolution._slice_count(2**17, 3) == 1
    assert evolution._slice_count(2**18, 1) == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert evolution._slice_count(5000, 2000) == 1


@pytest.mark.parametrize("slices", [1, 2, 3, 5])
def test_split_grid_keeps_every_bit(monkeypatch, rng, slices):
    use_cpus(monkeypatch, slices)
    monkeypatch.setattr(evolution, "_SPLIT_CELLS", 0)
    m = bounded_model(40, rng, phases=True)
    for points in range(2 * slices, 17 * slices + 1):
        assert evolution._slice_count(40, points) == slices
        times = np.linspace(-3.0, 7.0, points)
        r = sample_series(m, -3.0, 7.0, points).r_values
        reference = per_spin_loop(m, times)
        assert np.array_equal(r.view(np.float64), reference.view(np.float64)), points


def test_split_grid_longer_than_a_block_keeps_every_bit(monkeypatch, rng):
    use_cpus(monkeypatch, 2)
    m = bounded_model(20, rng, phases=True)
    steps = 2 * evolution._BLOCK_CELLS + 3
    assert evolution._slice_count(20, steps) == 2
    r = sample_series(m, 0.0, 30.0, steps).r_values
    reference = per_spin_loop(m, np.linspace(0.0, 30.0, steps))
    assert np.array_equal(r.view(np.float64), reference.view(np.float64))


@pytest.mark.parametrize("slices", [2, 5])
def test_split_grid_with_one_live_point_in_a_slice(monkeypatch, slices):
    use_cpus(monkeypatch, slices)
    monkeypatch.setattr(evolution, "_SPLIT_CELLS", 0)
    m = generate_random(3000, 1)
    _, t_end, _ = random_grid(3000, 1)
    r = sample_series(m, 0.05, t_end, 20).r_values
    assert np.count_nonzero(r) == 1
    assert_same_nonzero_bits(r, per_spin_loop(m, np.linspace(0.05, t_end, 20)))


def test_many_slices_under_fast_thread_switching(monkeypatch):
    m = generate_random(3000, 9)
    t_start, t_end, steps = random_grid(3000, 9, steps=400)
    use_cpus(monkeypatch, 1)
    whole = sample_series(m, t_start, t_end, steps).r_values
    use_cpus(monkeypatch, 8)
    kernel = evolution._r_slice
    workers = []

    def recording(*args):
        workers.append(threading.current_thread())
        kernel(*args)

    monkeypatch.setattr(evolution, "_r_slice", recording)
    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        split = sample_series(m, t_start, t_end, steps).r_values
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before
    assert len(set(workers)) == 8
    assert np.array_equal(split.view(np.float64), whole.view(np.float64))


@pytest.mark.parametrize("failing", [0, 1])
def test_an_exception_in_a_slice_reaches_the_caller(monkeypatch, rng, failing):
    use_cpus(monkeypatch, 3)
    monkeypatch.setattr(evolution, "_SPLIT_CELLS", 0)
    times = np.linspace(0.0, 1.0, 30)
    kernel = evolution._r_slice

    def failing_slice(a2, b2, g, t, out):
        if t[0] == times[10 * failing]:
            raise RuntimeError(f"slice {failing}")
        kernel(a2, b2, g, t, out)

    monkeypatch.setattr(evolution, "_r_slice", failing_slice)
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match=f"slice {failing}"):
        sample_series(bounded_model(10, rng), 0.0, 1.0, 30)
    for thread in set(threading.enumerate()) - before:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert set(threading.enumerate()) == before


def test_import_starts_no_thread_and_no_executor():
    code = ("import sys, threading; n = threading.active_count(); import spinbath.cli; "
            "print(threading.active_count() - n, 'concurrent.futures' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(evolution.__file__))}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, check=True, timeout=60)
    assert result.stdout.split() == ["0", "False"]


@pytest.mark.parametrize("seed", [1, 9])
def test_large_bath_r_within_exact_log_bounds(seed):
    # |f_i|^2 = 1 - x_i with x_i = 4 |alpha_i|^2 |beta_i|^2 sin^2(g_i t), and
    # -x/(1-x) <= ln(1-x) <= -x, so ln|r|^2 is bracketed at any N; the sum
    # of log1p(-x_i) gives it directly, with no product to underflow.
    m = generate_random(5000, seed)
    t_start, t_end, steps = random_grid(5000, seed)
    r = sample_series(m, t_start, t_end, steps).r_values
    times = np.linspace(t_start, t_end, steps)
    g = m.g
    ab = 4.0 * np.array([abs(alpha) ** 2 * abs(beta) ** 2 for alpha, beta, _ in triples(m)])
    lower = np.empty(steps)
    upper = np.empty(steps)
    exact = np.empty(steps)
    for k in range(0, steps, 200):
        x = ab * np.sin(np.outer(times[k:k + 200], g)) ** 2
        with np.errstate(divide="ignore"):
            lower[k:k + 200] = -np.sum(x / (1.0 - x), axis=1)
            exact[k:k + 200] = np.sum(np.log1p(-x), axis=1)
        upper[k:k + 200] = -np.sum(x, axis=1)
    modulus = np.abs(r)
    shown = modulus > 1e-300
    log_r2 = 2.0 * np.log(modulus[shown])
    assert np.all(log_r2 >= lower[shown] - 1e-9)
    assert np.all(log_r2 <= upper[shown] + 1e-9)
    # a zero is only allowed where |r| lies below the smallest subnormal
    # double; the lower bound alone is loose where some x_i nears 1
    zero = r == 0
    assert np.count_nonzero(zero) > 0
    assert np.all(lower[zero] < 2.0 * math.log(4.9e-324))
    assert np.all(exact[zero] < 2.0 * math.log(4.9e-324))


@pytest.mark.parametrize(
    "t_start, t_end, steps",
    [(0.0, 1.0, 1), (0.0, 0.0, 10), (2.0, 1.0, 10),
     (0.0, math.inf, 10), (math.nan, 1.0, 10)],
)
def test_sample_series_rejects_bad_grid(rng, t_start, t_end, steps):
    with pytest.raises(InvalidParameterError):
        sample_series(bounded_model(2, rng), t_start, t_end, steps)


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_pointwise_evaluators_reject_non_finite_time(rng, t):
    m = bounded_model(3, rng, phases=True)
    calls = [
        lambda: r_of_t(m, t),
        lambda: r_squared(m, t),
        lambda: expectation_relevant(m, random_system_observable(rng), t),
        lambda: expectation_full(m, random_full_observable(rng, 3), t),
        lambda: reduced_state(m, t),
    ]
    for call in calls:
        with pytest.raises(InvalidParameterError, match="finite"):
            call()


def test_time_series_validation():
    times = np.array([0.0, 1.0, 2.0])
    good = np.ones(3, dtype=complex)
    TimeSeries(times, good)
    with pytest.raises(InvalidParameterError):
        TimeSeries(np.array([0.0, 2.0, 1.0]), good)
    with pytest.raises(InvalidParameterError):
        TimeSeries(times, np.full(3, 1.5 + 0j))
    with pytest.raises(InvalidParameterError):
        TimeSeries(times, np.ones(2, dtype=complex))
    with pytest.raises(InvalidParameterError):
        TimeSeries(times, good, np.zeros(5))


def test_time_series_arrays_are_read_only():
    series = TimeSeries(np.array([0.0, 1.0]), np.ones(2, dtype=complex))
    with pytest.raises(ValueError):
        series.times[0] = 5.0
