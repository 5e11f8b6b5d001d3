"""Exact spectral decomposition, Hamiltonian levels, brute-force oracle."""

import math
from fractions import Fraction

import numpy as np
import pytest

from spinbath import (
    CapExceededError,
    FullObservable,
    IndexOutOfRangeError,
    InvalidParameterError,
    LocalObservable,
    RelevantObservable,
    SpectralDecomposition,
    SpinBathModel,
    brute_force_expectation,
    degeneracy_count,
    generate_random,
    hamiltonian_spectrum,
    new_model,
    omega_of_index,
    r_of_t,
    spectral_decomposition,
    weight_of_index,
)
from spinbath import spectrum
from spinbath.lemma import WeightedPointSet, lemma_sum
from spinbath.model import Equal, PhaseLaw, UniformPositive
from spinbath.spectrum import ENUMERATION_CAP, ORACLE_CAP

from conftest import ROOT_HALF, bounded_model, random_full_observable, triples


def lines(dec):
    """(omega, weight, multiplicity) per line, as Python numbers."""
    return list(zip(dec.omega.tolist(), dec.weight.tolist(), dec.multiplicity.tolist()))


# ---------------------------------------------------------------------------
# Per-index frequencies and weights
# ---------------------------------------------------------------------------

def test_index_bit_convention_two_spins():
    """Spin 1 sits at the most significant bit; bit 1 selects alpha and
    flips the coupling sign."""
    g1, g2 = 0.75, 0.25
    a2_1, a2_2 = 0.8, 0.3
    m = new_model(1.0, 0.0, [
        (math.sqrt(a2_1), math.sqrt(1 - a2_1), g1),
        (math.sqrt(a2_2), math.sqrt(1 - a2_2), g2),
    ])
    assert omega_of_index(m, 0b00) == g1 + g2
    assert omega_of_index(m, 0b01) == g1 - g2
    assert omega_of_index(m, 0b10) == -g1 + g2
    assert omega_of_index(m, 0b11) == -g1 - g2
    assert abs(weight_of_index(m, 0b00) - (1 - a2_1) * (1 - a2_2)) < 1e-15
    assert abs(weight_of_index(m, 0b01) - (1 - a2_1) * a2_2) < 1e-15
    assert abs(weight_of_index(m, 0b10) - a2_1 * (1 - a2_2)) < 1e-15
    assert abs(weight_of_index(m, 0b11) - a2_1 * a2_2) < 1e-15


def test_omega_is_correctly_rounded_exact_sum(rng):
    """The integer-scaled signed sum is a single correctly rounded division,
    checked against rational arithmetic."""
    m = bounded_model(9, rng)
    for nu in (0, 1, 137, 511):
        exact = Fraction(0)
        for i, g in enumerate(m.g.tolist()):
            bit = (nu >> (m.n_spins - 1 - i)) & 1
            exact += -Fraction(g) if bit else Fraction(g)
        assert omega_of_index(m, nu) == float(exact)


def test_couplings_summing_beyond_the_float_range_are_refused():
    """sum |g| = 2e308 is no float; every enumeration refuses it up front.
    The levels are half-sums, so two spins of 1e308 still fit there."""
    m = generate_random(2, 1, Equal(1e308))
    for call in (lambda: spectral_decomposition(m), lambda: omega_of_index(m, 1)):
        with pytest.raises(InvalidParameterError, match="float range"):
            call()
    energies, _ = hamiltonian_spectrum(m)
    assert energies.tolist() == [-1e308, 0.0, 1e308]
    with pytest.raises(InvalidParameterError, match="float range"):
        hamiltonian_spectrum(generate_random(5, 1, Equal(1e308)))


def test_index_out_of_range(rng):
    m = bounded_model(3, rng)
    for nu in (-1, 8, 100):
        with pytest.raises(IndexOutOfRangeError):
            omega_of_index(m, nu)
        with pytest.raises(IndexOutOfRangeError):
            weight_of_index(m, nu)


def test_decomposition_agrees_with_per_index_enumeration(rng):
    m = bounded_model(6, rng, phases=True)
    pairs = {}
    for nu in range(64):
        w = weight_of_index(m, nu)
        o = omega_of_index(m, nu)
        acc = pairs.setdefault(o, [0.0, 0])
        acc[0] += w
        acc[1] += 1
    dec = spectral_decomposition(m)
    assert dec.n_lines == len(pairs)
    for omega, weight, multiplicity in lines(dec):
        mass, count = pairs[omega]
        assert multiplicity == count
        assert abs(weight - mass) < 1e-15


def test_weight_of_index_is_its_line_weight_bit_for_bit():
    """Each of the 16 terms of this model is a line of its own, whose weight
    is weight_of_index's bit for bit: both multiply the moduli of
    spin_moduli in one order. On some of its spins the power x ** 2 rounds
    differently from x * x, so moduli squared by ** would miss here."""
    m = generate_random(4, 238)
    dec = spectral_decomposition(m)
    assert dec.n_lines == 16
    weight_at = dict(zip(dec.omega.tolist(), dec.weight.tolist()))
    for nu in range(16):
        assert weight_of_index(m, nu) == weight_at[omega_of_index(m, nu)]


# ---------------------------------------------------------------------------
# Decomposition structure
# ---------------------------------------------------------------------------

def test_decomposition_identity_with_r(rng):
    for n in (1, 6, 12):
        m = bounded_model(n, rng, phases=True)
        points = WeightedPointSet.from_decomposition(spectral_decomposition(m))
        for t in rng.uniform(0.0, 40.0, size=25):
            assert abs(lemma_sum(points, float(t)) - r_of_t(m, float(t))) < 1e-10


def test_decomposition_bookkeeping(rng):
    m = bounded_model(11, rng)
    dec = spectral_decomposition(m)
    assert sum(dec.multiplicity.tolist()) == 2**11
    assert abs(math.fsum(dec.weight.tolist()) - 1.0) <= 1e-12
    omegas = dec.omega.tolist()
    assert omegas == sorted(omegas)


def test_equal_couplings_collide_exactly():
    """n+1 lines at (n - 2m) g with binomial multiplicities, at merge
    radius zero."""
    n, g, a2 = 10, 0.1, 0.3
    m = new_model(ROOT_HALF, ROOT_HALF,
                  [(math.sqrt(a2), math.sqrt(1 - a2), g)] * n)
    dec = spectral_decomposition(m)
    assert dec.n_lines == n + 1
    for k, (omega, weight, multiplicity) in enumerate(lines(dec)):
        m_alpha = n - k  # minus signs come from alpha picks
        assert abs(omega - (n - 2 * m_alpha) * g) < 1e-15
        assert multiplicity == math.comb(n, m_alpha)
        expected_w = math.comb(n, m_alpha) * a2**m_alpha * (1 - a2)**(n - m_alpha)
        assert abs(weight - expected_w) < 1e-12


def test_merged_weights_are_pairwise_sums_in_index_order(rng):
    """Artifacts print merged weights to 17 digits, so each must be np.sum
    over its terms in index order, bit for bit (a sequential sum such as
    np.add.reduceat rounds differently)."""
    n = 12
    m = bounded_model(n, rng, g_lo=0.3, g_hi=0.3)
    omegas = np.array([omega_of_index(m, nu) for nu in range(2**n)])
    weights = np.array([weight_of_index(m, nu) for nu in range(2**n)])
    dec = spectral_decomposition(m)
    assert dec.n_lines == n + 1
    for omega, weight in zip(dec.omega, dec.weight):
        assert weight == np.sum(weights[omegas == omega])


def test_mixed_collisions_merge_exactly():
    m = new_model(1.0, 0.0, [(ROOT_HALF, ROOT_HALF, 1.0),
                             (ROOT_HALF, ROOT_HALF, 0.5),
                             (ROOT_HALF, ROOT_HALF, 0.5)])
    dec = spectral_decomposition(m)
    got = [(omega, multiplicity) for omega, _, multiplicity in lines(dec)]
    assert got == [(-2.0, 1), (-1.0, 2), (0.0, 2), (1.0, 2), (2.0, 1)]


def test_extreme_magnitude_ratio_stays_exact():
    """A coupling 2^50 times smaller than its neighbor must not be absorbed."""
    m = new_model(1.0, 0.0, [(ROOT_HALF, ROOT_HALF, 1.0),
                             (ROOT_HALF, ROOT_HALF, 2.0**-50)])
    dec = spectral_decomposition(m)
    assert dec.n_lines == 4
    assert dec.omega[1] - dec.omega[0] == 2.0**-49


def test_omega_tolerance_merges_near_lines():
    eps = 1e-13
    m = new_model(1.0, 0.0, [(ROOT_HALF, ROOT_HALF, 1.0),
                             (ROOT_HALF, ROOT_HALF, eps)])
    assert spectral_decomposition(m).n_lines == 4
    merged = spectral_decomposition(m, omega_tolerance=1e-9)
    assert merged.n_lines == 2
    assert all(multiplicity == 2 for multiplicity in merged.multiplicity.tolist())
    assert abs(math.fsum(merged.weight.tolist()) - 1.0) <= 1e-12
    # representative is the weight-averaged position inside each pair
    assert abs(merged.omega[1] - 1.0) < eps


@pytest.mark.parametrize("tolerance", [math.nan, -1e-9, -math.inf])
def test_merge_tolerances_must_be_nonnegative_numbers(rng, tolerance):
    """A NaN radius would merge every line into one; it is refused."""
    m = bounded_model(4, rng)
    with pytest.raises(InvalidParameterError):
        spectral_decomposition(m, omega_tolerance=tolerance)
    with pytest.raises(InvalidParameterError):
        hamiltonian_spectrum(m, merge_tolerance=tolerance)


def test_decomposition_cap(rng):
    m = bounded_model(7, rng)
    with pytest.raises(CapExceededError, match="MB"):
        spectral_decomposition(m, max_spins=6)


def test_spectral_line_and_decomposition_validation():
    with pytest.raises(InvalidParameterError, match="finite"):
        SpectralDecomposition([-1.0, math.inf], [0.5, 0.5], [1, 1], 1)
    with pytest.raises(InvalidParameterError, match="nonnegative"):
        SpectralDecomposition([-1.0, 0.0], [1.5, -0.5], [1, 1], 1)
    with pytest.raises(InvalidParameterError, match="multiplicity"):
        SpectralDecomposition([-1.0, 0.0], [0.5, 0.5], [2, 0], 1)
    arrays = ([-1.0, 1.0], [0.5, 0.5], [1, 1])
    SpectralDecomposition(*arrays, 1)
    with pytest.raises(InvalidParameterError):
        SpectralDecomposition(*(a[::-1] for a in arrays), 1)
    with pytest.raises(InvalidParameterError):
        SpectralDecomposition(*arrays, 2)  # multiplicities must sum to 2^n
    with pytest.raises(InvalidParameterError):
        SpectralDecomposition([-1.0, 1.0], [0.5, 0.6], [1, 1], 1)  # bad mass
    with pytest.raises(InvalidParameterError, match="equal length"):
        SpectralDecomposition([-1.0, 1.0], [1.0], [1, 1], 1)
    with pytest.raises(InvalidParameterError, match="1-d"):
        SpectralDecomposition([[-1.0, 1.0]], [[0.5, 0.5]], [[1, 1]], 1)
    with pytest.raises(InvalidParameterError, match="n_spins must be >= 1"):
        SpectralDecomposition([0.0], [1.0], [1], 0)
    with pytest.raises(InvalidParameterError, match="at least one line"):
        SpectralDecomposition([], [], [], 1)


def test_decomposition_arrays_are_read_only(rng):
    dec = spectral_decomposition(bounded_model(6, rng))
    for array in (dec.omega, dec.weight, dec.multiplicity):
        assert not array.flags.writeable
    assert dec.weight_sum == math.fsum(dec.weight.tolist())
    with pytest.raises(AttributeError):
        dec.n_spins = 7
    # arrays of the stored dtypes are kept, not copied
    arrays = (np.array([-1.0, 1.0]), np.array([0.5, 0.5]), np.array([1, 1], dtype=np.int64))
    dec = SpectralDecomposition(*arrays, 1)
    assert all(kept is given for kept, given in
               zip((dec.omega, dec.weight, dec.multiplicity), arrays))


def test_decomposition_rejects_nan_weights():
    with pytest.raises(InvalidParameterError, match="finite"):
        SpectralDecomposition([0.0, 1.0], [math.nan, 1.0], [1, 1], 1)


def test_decomposition_rejects_weights_summing_beyond_the_float_range():
    with pytest.raises(InvalidParameterError, match="expected 1"):
        SpectralDecomposition([0.0, 1.0], [1.7e308, 1.7e308], [1, 1], 1)


NEXT_AFTER_ONE = 1.0 + 2.0**-52


@pytest.mark.parametrize("values, expected", [
    ([], 0.0),
    ([0.3], 0.3),
    ([0.0, 0.0], 0.0),
    ([-0.0], 0.0),
    ([5e-324, 5e-324, 0.0], 1e-323),
    ([1.0, 2.0**-53], 1.0),  # a tie rounds to even
    ([1.0, 2.0**-53, 2.0**-200], NEXT_AFTER_ONE),  # just above the tie
    ([NEXT_AFTER_ONE, 2.0**-53], 1.0 + 2.0**-51),  # a tie rounds up to even
    ([2.0**1000, 1.0, 5e-324], 2.0**1000),
    ([0.1] * 10, math.fsum([0.1] * 10)),
])
def test_exact_sum_is_correctly_rounded(values, expected):
    total = spectrum._exact_sum(np.array(values, dtype=np.float64))
    assert total == expected == math.fsum(values)


def test_exact_sum_matches_fsum_on_wide_exponent_spreads():
    rng = np.random.default_rng(5)
    for _ in range(300):
        size = int(rng.integers(1, 1000))
        values = np.ldexp(rng.uniform(0.5, 1.0, size), rng.integers(-1074, 1001, size))
        values[rng.random(size) < 0.1] = 0.0
        values[rng.random(size) < 0.05] = 5e-324
        assert spectrum._exact_sum(values) == math.fsum(values.tolist())


def test_exact_sum_of_many_equal_values():
    # 2^24 copies of 0.1 sum to exactly 0.1 * 2^24; a zero-stride view
    # supplies them without 128 MB of memory
    values = np.broadcast_to(0.1, 1 << 24)
    assert spectrum._exact_sum(values) == math.ldexp(0.1, 24)


@pytest.mark.parametrize("chunk, block", [(None, None), (64, 128), (7, 20)])
def test_exact_sum_across_chunks_and_blocks(chunk, block, monkeypatch):
    """Every chunk and every block holds values of the same exponents."""
    if chunk is not None:
        monkeypatch.setattr(spectrum, "_EXACT_SUM_CHUNK", chunk)
        monkeypatch.setattr(spectrum, "_EXACT_SUM_BLOCK", block)
    rng = np.random.default_rng(6)
    values = rng.uniform(1.0, 2.0, 3 * spectrum._EXACT_SUM_CHUNK + 5)
    values[::3] = np.ldexp(values[::3], -1060)  # subnormals in every chunk
    assert spectrum._exact_sum(values) == math.fsum(values.tolist())


@pytest.mark.parametrize("n", [16, 20])
def test_exact_sum_matches_fsum_on_spectral_weights(n):
    weight = spectral_decomposition(generate_random(n, 1)).weight
    assert spectrum._exact_sum(weight) == math.fsum(weight.tolist())


# ---------------------------------------------------------------------------
# int64 signed sums against the arbitrary-precision reference
# ---------------------------------------------------------------------------

def _decomposition_bytes(m, **kwargs):
    dec = spectral_decomposition(m, **kwargs)
    return dec.omega.tobytes(), dec.weight.tobytes(), dec.multiplicity.tobytes()


def _levels_bytes(m):
    return tuple(array.tobytes() for array in hamiltonian_spectrum(m))


def _force_python_ints(monkeypatch):
    monkeypatch.setattr(spectrum, "_fits_int64", lambda scaled, denominator: False)


@pytest.mark.parametrize("small, int64_path", [
    (2.0**-50, True), (2.0**-61, True), (2.0**-62, False), (2.0**-70, False),
])
def test_int64_and_python_int_paths_agree_across_63_bits(small, int64_path, monkeypatch):
    """Sum |scaled g| reaches 2^62 between 2^-61 and 2^-62 here; both
    paths must give bit-identical arrays on either side."""
    m = new_model(1.0, 0.0, [(0.6, 0.8, 1.0), (0.8, 0.6, small),
                             (ROOT_HALF, ROOT_HALF, 0.375), (0.6, 0.8, small)])
    scaled, common = spectrum._scaled_couplings(m)
    assert spectrum._fits_int64(scaled, common) is int64_path
    default = _decomposition_bytes(m)
    levels = _levels_bytes(m)
    _force_python_ints(monkeypatch)
    assert _decomposition_bytes(m) == default
    assert _levels_bytes(m) == levels


def test_subnormal_couplings_take_the_python_int_path():
    """A denominator above 2^1022 would make int64 quotients subnormal
    (rounded twice), so those couplings must use the exact path."""
    m = new_model(1.0, 0.0, [(0.6, 0.8, 1e-310), (0.8, 0.6, 3e-310)])
    scaled, common = spectrum._scaled_couplings(m)
    assert not spectrum._fits_int64(scaled, common)
    dec = spectral_decomposition(m)
    assert dec.omega.tolist() == sorted(omega_of_index(m, nu) for nu in range(4))
    assert _levels_bytes(m) == _one_sort_levels(m)


@pytest.mark.parametrize("force_python_ints", [False, True])
def test_both_sum_paths_match_per_index_terms(rng, force_python_ints, monkeypatch):
    if force_python_ints:
        _force_python_ints(monkeypatch)
    for n in (1, 4, 10):
        m = bounded_model(n, rng, phases=True)
        terms = sorted((omega_of_index(m, nu), weight_of_index(m, nu)) for nu in range(2**n))
        dec = spectral_decomposition(m)
        assert dec.omega.tolist() == [o for o, _ in terms]
        assert dec.weight.tolist() == [w for _, w in terms]
        assert dec.multiplicity.tolist() == [1] * 2**n


def test_both_sum_paths_give_equal_coupling_collisions(monkeypatch):
    m = new_model(1.0, 0.0, [(0.6, 0.8, 0.3)] * 10)
    default = _decomposition_bytes(m)
    levels = _levels_bytes(m)
    _force_python_ints(monkeypatch)
    assert _decomposition_bytes(m) == default
    assert _levels_bytes(m) == levels


# ---------------------------------------------------------------------------
# Sorted enumeration against one stable argsort of the index order
# ---------------------------------------------------------------------------

def _sorted_path_model(kind):
    rng = np.random.default_rng(7)
    n = 14 if kind in ("random", "partial") else 12
    a2 = rng.uniform(0.05, 0.95, size=n)
    g = {
        "random": rng.uniform(0.0, 1.0, size=n),
        "equal": np.full(n, 0.3),
        "mixed": rng.choice([0.25, 0.5, -0.75, 0.75, 1.0], size=n),
        "negative": -rng.uniform(0.0, 1.0, size=n),
        # repeated and exactly related values among distinct ones: sums
        # of one term and of 2, 3, 5, 7 and 9 terms mix
        "partial": rng.permutation(np.concatenate((
            rng.uniform(0.0, 1.0, size=n - 6), [0.375] * 3, [0.5, -0.5], [0.125]))),
    }[kind]
    return new_model(ROOT_HALF, ROOT_HALF, [
        (math.sqrt(a), math.sqrt(1.0 - a), float(c)) for a, c in zip(a2, g)
    ])


def _argsorted_terms(m):
    """All 2^N (omega, weight) terms, in index order and then stably argsorted."""
    omegas = np.array([omega_of_index(m, nu) for nu in range(2**m.n_spins)])
    weights = np.array([weight_of_index(m, nu) for nu in range(2**m.n_spins)])
    order = np.argsort(omegas, kind="stable")
    return omegas[order], weights[order]


def _argsort_reference(m):
    """Decomposition bytes at merge radius zero, built from the argsorted
    terms: each run of equal frequencies summed with np.sum."""
    omegas, weights = _argsorted_terms(m)
    starts = (np.flatnonzero(np.diff(omegas) != 0) + 1).tolist()
    groups = list(zip([0, *starts], [*starts, omegas.size]))
    omega = np.array([omegas[lo] for lo, _ in groups])
    weight = np.array([np.sum(weights[lo:hi]) for lo, hi in groups])
    multiplicity = np.array([hi - lo for lo, hi in groups], dtype=np.int64)
    return omega.tobytes(), weight.tobytes(), multiplicity.tobytes()


@pytest.mark.parametrize("kind", ["random", "equal", "mixed", "negative", "partial"])
def test_sorted_enumeration_matches_one_stable_argsort(kind):
    m = _sorted_path_model(kind)
    assert _decomposition_bytes(m) == _argsort_reference(m)


@pytest.mark.parametrize("kind", ["random", "negative", "equal", "mixed", "partial"])
def test_sorted_enumeration_matches_one_stable_argsort_when_merging_near_lines(kind):
    m = _sorted_path_model(kind)
    # the lattices of equal and mixed couplings (steps 0.6 and 0.5) merge
    # into one group, random ones into groups of nearby lines
    tolerance = {"equal": 2.5, "mixed": 0.6}.get(kind, 2e-3)
    radius = tolerance * max(map(abs, m.g.tolist()))
    omegas, weights = _argsorted_terms(m)
    reps, mass, sizes = spectrum._merge_sorted(omegas, None, weights, radius)
    assert np.any(sizes > 1)
    assert _decomposition_bytes(m, omega_tolerance=tolerance) == (
        reps.tobytes(), mass.tobytes(), sizes.tobytes())


@pytest.mark.parametrize("kind", ["equal", "mixed", "partial"])
@pytest.mark.parametrize("min_terms", [1, 1 << 62])
def test_block_copies_and_one_gather_move_the_same_weights(kind, min_terms, monkeypatch):
    """A doubling moves the weights block by block where blocks are long,
    and by one gather where they are short; forcing either way gives the
    argsort bytes at these sizes."""
    monkeypatch.setattr(spectrum, "_BLOCK_COPY_MIN_TERMS", min_terms)
    m = _sorted_path_model(kind)
    assert _decomposition_bytes(m) == _argsort_reference(m)


def _one_sort_levels(m):
    """Level bytes from one stable sort of all 2^(N+1) energies."""
    half = np.array([omega_of_index(m, nu) / 2 for nu in range(2**m.n_spins)])
    energies = np.sort(np.concatenate([half, -half]), kind="stable")
    # first member of each run of equal energies: +0.0 precedes -0.0
    starts = np.flatnonzero(np.diff(energies, prepend=-np.inf) != 0)
    counts = np.diff(starts, append=energies.size)
    return energies[starts].tobytes(), counts.tobytes()


@pytest.mark.parametrize("kind", ["random", "equal", "mixed", "negative", "partial"])
def test_sorted_levels_match_one_sort(kind):
    m = _sorted_path_model(kind)
    assert _levels_bytes(m) == _one_sort_levels(m)


def test_float_ties_above_2_53_are_summed_in_index_order(monkeypatch):
    """Above 2^53 distinct integer sums can round to one float. Such a
    group must be summed in index order, as a stable argsort of the
    index-order floats leaves it; integer order gives other bits here."""
    couplings = [2.0**55, 1.0, 0.5, 2.0]
    a2 = [0.623, 0.293, 0.087, 0.065]
    m = new_model(1.0, 0.0, [
        (math.sqrt(a), math.sqrt(1.0 - a), g) for a, g in zip(a2, couplings)
    ])
    n = m.n_spins
    exact = [
        sum(-Fraction(g) if (nu >> (n - 1 - i)) & 1 else Fraction(g)
            for i, g in enumerate(couplings))
        for nu in range(2**n)
    ]
    omegas = [omega_of_index(m, nu) for nu in range(2**n)]
    weights = [weight_of_index(m, nu) for nu in range(2**n)]
    by_integer = sorted(range(2**n), key=lambda nu: (exact[nu], nu))
    tie = -(2.0**55)
    group = [nu for nu in range(2**n) if omegas[nu] == tie]
    assert len(group) >= 3 and len({exact[nu] for nu in group}) >= 3
    index_sum = np.sum(np.array([weights[nu] for nu in group]))
    integer_sum = np.sum(np.array([weights[nu] for nu in by_integer if nu in group]))
    assert index_sum != integer_sum
    reference = _argsort_reference(m)
    assert _decomposition_bytes(m) == reference
    _force_python_ints(monkeypatch)
    assert _decomposition_bytes(m) == reference


# ---------------------------------------------------------------------------
# Enumeration caps and the memory estimate
# ---------------------------------------------------------------------------

def test_cap_message_states_terms_and_a_nonzero_estimate(rng):
    with pytest.raises(CapExceededError) as info:
        spectral_decomposition(bounded_model(8, rng), max_spins=7)
    message = str(info.value)
    assert "2^8 values" in message
    assert " 0 MB" not in message
    with pytest.raises(CapExceededError, match=r"2\^9 values"):
        hamiltonian_spectrum(bounded_model(8, rng), max_spins=7)


def test_enumeration_refused_when_memory_is_short(rng, monkeypatch):
    m = bounded_model(10, rng)
    monkeypatch.setattr(spectrum, "_available_memory", lambda: 6 * 10**4)
    with pytest.raises(CapExceededError, match="free"):
        spectral_decomposition(m)
    with pytest.raises(CapExceededError, match="free"):
        hamiltonian_spectrum(m)
    with pytest.raises(CapExceededError, match="free"):
        brute_force_expectation(m, random_full_observable(rng, 10), 1.0)
    # above the levels' estimate (2^11 values at 48 B) and the int64
    # spectrum's (2^10 terms at 64 B), below the estimate of the spectrum
    # whose sums need Python ints (2^10 terms at 100 B)
    monkeypatch.setattr(spectrum, "_available_memory", lambda: 10**5)
    assert int(np.sum(hamiltonian_spectrum(m)[1])) == 2**11
    assert spectral_decomposition(m).n_lines == 2**10
    with monkeypatch.context() as patch:
        _force_python_ints(patch)
        with pytest.raises(CapExceededError, match="free"):
            spectral_decomposition(m)
    monkeypatch.setattr(spectrum, "_available_memory", lambda: None)
    _force_python_ints(monkeypatch)
    assert spectral_decomposition(m).n_lines == 2**10


MEMINFO = "MemTotal:  8000000 kB\nMemFree:   1000 kB\nMemAvailable:   3000 kB\n"


@pytest.mark.parametrize(
    "files, expected",
    [
        # MemAvailable counts reclaimable cache that MemFree leaves out
        ({"/proc/meminfo": MEMINFO}, 3000 * 1024),
        # a cgroup v2 limit below MemAvailable bounds it by limit - usage
        ({"/proc/meminfo": MEMINFO, "/proc/self/cgroup": "0::/job\n",
          "/sys/fs/cgroup/job/memory.max": "2000000\n",
          "/sys/fs/cgroup/job/memory.current": "500000\n"}, 1500000),
        # the same under cgroup v1, next to other controllers
        ({"/proc/meminfo": MEMINFO,
          "/proc/self/cgroup": "5:cpu,cpuacct:/job\n4:memory:/job\n0::/\n",
          "/sys/fs/cgroup/memory/job/memory.limit_in_bytes": "2000000\n",
          "/sys/fs/cgroup/memory/job/memory.usage_in_bytes": "2500000\n"}, 0),
        # no limit: v2 "max", v1 ~2^63
        ({"/proc/meminfo": MEMINFO, "/proc/self/cgroup": "0::/\n",
          "/sys/fs/cgroup/memory.max": "max\n",
          "/sys/fs/cgroup/memory.current": "500000\n"}, 3000 * 1024),
        ({"/proc/meminfo": MEMINFO, "/proc/self/cgroup": "4:memory:/job\n",
          "/sys/fs/cgroup/memory/job/memory.limit_in_bytes": "9223372036854771712\n",
          "/sys/fs/cgroup/memory/job/memory.usage_in_bytes": "500000\n"}, 3000 * 1024),
        # nothing readable: free physical pages from sysconf
        ({}, 7 * 4096),
        # no MemAvailable, but a cgroup limit below the free pages
        ({"/proc/self/cgroup": "0::/job\n",
          "/sys/fs/cgroup/job/memory.max": "10000\n",
          "/sys/fs/cgroup/job/memory.current": "4000\n"}, 6000),
    ],
)
def test_available_memory_reads_meminfo_and_cgroup(monkeypatch, files, expected):
    monkeypatch.setattr(spectrum, "_read_text", files.get)
    pages = {"SC_AVPHYS_PAGES": 7, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(spectrum.os, "sysconf", pages.__getitem__)
    assert spectrum._read_available_memory() == expected


@pytest.mark.parametrize(
    "files",
    [
        # no /proc/self/cgroup at all
        {},
        # cgroup v1 writes no limit as about 2^63
        {"/proc/self/cgroup": "4:memory:/job\n",
         "/sys/fs/cgroup/memory/job/memory.limit_in_bytes": "9223372036854771712\n",
         "/sys/fs/cgroup/memory/job/memory.usage_in_bytes": "500000\n"},
        # controllers without memory, whose files are never read
        {"/proc/self/cgroup": "5:cpu,cpuacct:/job\n",
         "/sys/fs/cgroup/memory/job/memory.limit_in_bytes": "1000\n",
         "/sys/fs/cgroup/memory/job/memory.usage_in_bytes": "500\n"},
        # a malformed line, and a v2 limit that cannot be read
        {"/proc/self/cgroup": "garbage\n0::/job\n",
         "/sys/fs/cgroup/job/memory.current": "500\n"},
    ],
    ids=["no-cgroup", "v1-no-limit", "no-memory-controller", "malformed"],
)
def test_cgroup_without_a_limit_leaves_memavailable(monkeypatch, files):
    monkeypatch.setattr(spectrum, "_read_text", {"/proc/meminfo": MEMINFO, **files}.get)
    assert spectrum._cgroup_headroom() is None
    assert spectrum._read_available_memory() == 3000 * 1024


def test_available_memory_unknown_without_meminfo_sysconf_or_cgroup(monkeypatch):
    def no_sysconf(name):
        raise ValueError(name)

    monkeypatch.setattr(spectrum, "_read_text", {}.get)
    monkeypatch.setattr(spectrum.os, "sysconf", no_sysconf)
    assert spectrum._read_available_memory() is None


def test_available_memory_reuses_a_reading_within_its_window(monkeypatch):
    readings = iter([111, 222])
    clock = [1000.0]
    monkeypatch.setattr(spectrum, "_read_available_memory", lambda: next(readings))
    monkeypatch.setattr(spectrum.time, "monotonic", lambda: clock[0])
    spectrum._memory_reading.cache_clear()
    assert spectrum._available_memory() == 111
    clock[0] += 0.1 * spectrum._MEMORY_READING_S
    assert spectrum._available_memory() == 111
    clock[0] += spectrum._MEMORY_READING_S
    assert spectrum._available_memory() == 222
    spectrum._memory_reading.cache_clear()


# ---------------------------------------------------------------------------
# Hamiltonian spectrum
# ---------------------------------------------------------------------------

def test_hamiltonian_single_spin_frozen():
    m = new_model(1.0, 0.0, [(ROOT_HALF, ROOT_HALF, 2.0)])
    energies, degeneracies = hamiltonian_spectrum(m)
    assert list(zip(energies.tolist(), degeneracies.tolist())) == [(-1.0, 2), (1.0, 2)]


def test_hamiltonian_equal_couplings_binomial_degeneracies():
    g = 0.3
    for n in (2, 5, 12):
        m = new_model(1.0, 0.0, [(ROOT_HALF, ROOT_HALF, g)] * n)
        energies, degeneracies = hamiltonian_spectrum(m)
        assert len(energies) == len(degeneracies) == n + 1
        for l, (energy, degeneracy) in enumerate(zip(energies.tolist(), degeneracies.tolist())):
            # ascending energies: l counts down-spins against the sum
            assert abs(energy - (2 * l - n) * g / 2.0) < 1e-15
            assert degeneracy == degeneracy_count(n, l)


def test_hamiltonian_negation_symmetry(rng):
    m = bounded_model(8, rng)
    energies, degens = (array.tolist() for array in hamiltonian_spectrum(m))
    assert energies == [-e for e in reversed(energies)]
    assert degens == degens[::-1]
    assert sum(degens) == 2**9


def test_hamiltonian_merge_tolerance():
    # the down branch negates the up branch, so the +-1e-13 satellites
    # already coincide pairwise at radius zero
    m = new_model(1.0, 0.0, [(ROOT_HALF, ROOT_HALF, 1.0),
                             (ROOT_HALF, ROOT_HALF, 1e-13)])
    _, exact = hamiltonian_spectrum(m)
    assert exact.tolist() == [2, 2, 2, 2]
    energies, merged = hamiltonian_spectrum(m, merge_tolerance=1e-9)
    assert merged.tolist() == [4, 4]
    assert abs(energies[0] + 0.5) < 1e-12 and abs(energies[1] - 0.5) < 1e-12


def test_energy_level_validation(monkeypatch):
    """A level of degeneracy 0 is refused, even when the total is right."""
    m = new_model(1.0, 0.0, [(ROOT_HALF, ROOT_HALF, 2.0)])
    monkeypatch.setattr(spectrum, "_merge_sorted", lambda values, counts, weights, radius: (
        np.array([-1.0, 0.0, 1.0]), None, np.array([2, 0, 2])))
    with pytest.raises(InvalidParameterError):
        hamiltonian_spectrum(m)


@pytest.mark.parametrize("n", [1, 4, 17, 30])
def test_degeneracy_count_totals(n):
    assert sum(degeneracy_count(n, l) for l in range(n + 1)) == 2 ** (n + 1)


def test_degeneracy_count_validation():
    assert degeneracy_count(4, 2) == 12
    with pytest.raises(InvalidParameterError):
        degeneracy_count(0, 0)
    with pytest.raises(InvalidParameterError):
        degeneracy_count(3, 4)
    with pytest.raises(InvalidParameterError):
        degeneracy_count(3, -1)


# ---------------------------------------------------------------------------
# Brute-force oracle internals
# ---------------------------------------------------------------------------

def test_brute_force_identity_is_one(rng):
    m = bounded_model(4, rng, phases=True)
    obs = FullObservable.identity_environment(RelevantObservable.identity(), 4)
    assert abs(brute_force_expectation(m, obs, 7.7) - 1.0) < 1e-12


def test_brute_force_at_time_zero_matches_direct_average(rng):
    """At t = 0 the expectation is computable spin by spin with no
    evolution at all."""
    m = bounded_model(5, rng, phases=True)
    obs = random_full_observable(rng, 5)
    s = obs.system_part
    expected = (abs(m.a) ** 2 * s.s_uu + abs(m.b) ** 2 * s.s_dd
                + 2.0 * (m.a * m.b.conjugate() * s.s_du).real)
    for (alpha, beta, _), part in zip(triples(m), obs.env_parts):
        expected *= (abs(alpha) ** 2 * part.e_uu
                     + abs(beta) ** 2 * part.e_dd
                     + 2.0 * (alpha * beta.conjugate() * part.e_du).real)
    assert abs(brute_force_expectation(m, obs, 0.0) - expected) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_brute_force_matches_dense_kronecker_reference(n, rng):
    """psi(0) and O as explicit np.kron chains (system first), H as the
    explicit diagonal 1/2 sigma_z (x) sum_i g_i sigma_z^(i). Every factor is
    a different complex Hermitian matrix, so applying a factor at the
    wrong site, or its transpose, changes the value."""
    bath = bounded_model(n, rng, phases=True)
    a = math.sqrt(0.3) * complex(math.cos(0.4), math.sin(0.4))
    b = math.sqrt(0.7) * complex(math.cos(-1.1), math.sin(-1.1))
    m = SpinBathModel(a, b, bath.alpha, bath.beta, bath.g)
    obs = random_full_observable(rng, n)

    def dense(uu, dd, du):
        return np.array([[uu, np.conj(du)], [du, dd]], dtype=np.complex128)

    s = obs.system_part
    psi0 = np.array([a, b], dtype=np.complex128)
    big_o = dense(s.s_uu, s.s_dd, s.s_du)
    sigma_z = np.diag([1.0, -1.0])
    bath_h = np.zeros((1 << n, 1 << n))
    for i, ((alpha, beta, g), part) in enumerate(zip(triples(bath), obs.env_parts)):
        psi0 = np.kron(psi0, np.array([alpha, beta], dtype=np.complex128))
        big_o = np.kron(big_o, dense(part.e_uu, part.e_dd, part.e_du))
        ops = [np.eye(2)] * n
        ops[i] = g * sigma_z
        term = ops[0]
        for op in ops[1:]:
            term = np.kron(term, op)
        bath_h += term
    h_diag = np.diag(0.5 * np.kron(sigma_z, bath_h))
    for t in (0.0, 0.37, 5.0, 41.3):
        psi_t = np.exp(-1j * h_diag * t) * psi0
        expected = np.vdot(psi_t, big_o @ psi_t)
        assert abs(expected.imag) < 1e-13
        assert abs(brute_force_expectation(m, obs, t) - expected.real) < 1e-13


def test_brute_force_cap(rng):
    m = bounded_model(5, rng)
    with pytest.raises(CapExceededError):
        brute_force_expectation(
            m, random_full_observable(rng, 5), 1.0, max_spins=4)
    assert ORACLE_CAP < ENUMERATION_CAP


def test_brute_force_arity_mismatch(rng):
    from spinbath import DimensionMismatchError

    m = bounded_model(3, rng)
    with pytest.raises(DimensionMismatchError):
        brute_force_expectation(m, random_full_observable(rng, 2), 1.0)
