"""Hypothesis checks, recurrence estimation, and the verdict pipeline."""

import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from spinbath import (
    DegenerateSetError,
    InvalidParameterError,
    SpectralDecomposition,
    Verdict,
    decoherence_verdict,
    estimate_recurrence_time,
    generate_random,
    new_model,
    spectral_decomposition,
)
from spinbath.lemma import (
    EFFECTIVELY_INFINITE,
    GATES,
    NOT_EVALUATED,
    REL_TOLERANCE,
    PartitionScheme,
    VerdictConfig,
    WeightedPointSet,
    _common_divisor,
    check_l1,
    check_quasi_continuous,
    default_g_groups,
    lemma_sum,
    make_partition,
    verdict_from_decomposition,
)
from spinbath.evolution import r_of_t
from spinbath.model import Equal

from conftest import ROOT_HALF, bounded_model

GOLDEN = Path(__file__).parent / "golden"


def uniform_set(n, lo=0.0, hi=1.0, weight=None):
    pts = np.linspace(lo, hi, n)
    w = np.full(n, 1.0 / n if weight is None else weight)
    return WeightedPointSet(pts, w)


def judged(rows):
    """Whether every gate row passed, and the rows by gate name."""
    return all(g.passed for g in rows), {g.name: g for g in rows}


# ---------------------------------------------------------------------------
# WeightedPointSet
# ---------------------------------------------------------------------------

def test_point_set_sorts_and_carries_weights():
    s = WeightedPointSet([3.0, 1.0, 2.0], [0.3, 0.1, 0.2])
    assert list(s.points) == [1.0, 2.0, 3.0]
    assert list(s.weights) == [0.1, 0.2, 0.3]
    assert s.n_points == 3


def test_point_set_validation():
    with pytest.raises(InvalidParameterError):
        WeightedPointSet([], [])
    with pytest.raises(InvalidParameterError):
        WeightedPointSet([1.0], [-0.1])
    with pytest.raises(InvalidParameterError):
        WeightedPointSet([math.nan], [0.1])
    with pytest.raises(InvalidParameterError):
        WeightedPointSet([1.0, 2.0], [0.1])


def test_point_set_spanning_beyond_the_float_range_is_refused():
    """Points from -1e308 to 1e308 span 2e308: refused before any gate
    overflows, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError, match="span beyond the float range"):
            check_quasi_continuous(WeightedPointSet([-1e308, 0.0, 1e308], [0.25, 0.5, 0.25]))


def test_gap_spread_beyond_the_float_range_is_refused():
    """Points within 3e200 of each other have a finite span, but squaring
    their gaps' deviations overflows: refused with no warning, not judged
    on an infinite gap CV."""
    points = [-1.4e200, -1.2e200, -8e199, -6e199, 6e199, 8e199, 1.2e200, 1.4e200]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError, match="gap spread .* beyond the float range"):
            check_quasi_continuous(WeightedPointSet(points, [0.125] * 8))


def test_decomposition_is_the_point_set(rng):
    dec = spectral_decomposition(bounded_model(5, rng))
    assert isinstance(dec, WeightedPointSet)
    assert dec.n_points == dec.n_lines
    assert dec.points is dec.omega and dec.weights is dec.weight


def test_point_sets_compare_by_identity():
    s = uniform_set(4)
    assert s == s and s != uniform_set(4)


def test_point_set_copies_writable_input():
    points = np.array([1.0, 2.0, 3.0])
    weights = np.array([0.2, 0.3, 0.5])
    s = WeightedPointSet(points, weights)
    points[0] = 5.0
    weights[0] = 0.9
    assert s.points.tolist() == [1.0, 2.0, 3.0]
    assert s.weights.tolist() == [0.2, 0.3, 0.5]
    assert points.flags.writeable and weights.flags.writeable


# ---------------------------------------------------------------------------
# Quasi-continuity
# ---------------------------------------------------------------------------

def test_uniform_grid_is_quasi_continuous():
    ok, gates = judged(check_quasi_continuous(uniform_set(100)))
    assert ok
    assert gates["gap_cv"].value < 1e-12  # linspace is uniform to the last ulp only
    assert abs(gates["ks"].value - 0.01) < 1e-12
    assert gates["count"].passed and gates["gap_cv"].passed and gates["ks"].passed


def test_two_point_ks_by_hand():
    """For {0, 1}: D = max over steps of the CDF mismatch = 1/2."""
    _, gates = judged(check_quasi_continuous(WeightedPointSet([0.0, 1.0], [0.5, 0.5])))
    assert abs(gates["ks"].value - 0.5) < 1e-15


@pytest.mark.parametrize("points", [
    np.random.default_rng(3).normal(size=1001),
    np.repeat([0.0, 0.25, 0.3, 1.0], [5, 1, 7, 3]),  # tied points
    np.array([-1.0, 2.0]),
])
def test_ks_stat_matches_separate_upper_and_lower_steps(points):
    """One shared grid gives the bits of the two-arange formula."""
    _, gates = judged(check_quasi_continuous(WeightedPointSet(points, np.full(points.size, 0.5))))
    pts = np.sort(points)
    n = pts.size
    u = (pts - pts[0]) / (pts[-1] - pts[0])
    upper = np.arange(1, n + 1) / n
    lower = np.arange(0, n) / n
    expected = float(max(np.max(upper - u), np.max(u - lower)))
    assert np.float64(gates["ks"].value).tobytes() == np.float64(expected).tobytes()


def test_size_gate():
    ok, gates = judged(check_quasi_continuous(uniform_set(63)))
    assert not ok and not gates["count"].passed and gates["gap_cv"].passed and gates["ks"].passed
    assert (gates["count"].value, gates["count"].threshold) == (63, 64)
    ok, _ = judged(check_quasi_continuous(uniform_set(64)))
    assert ok


def test_clustered_points_fail_spread_gates():
    pts = np.concatenate([np.linspace(0.0, 0.01, 50),
                          np.linspace(0.99, 1.0, 50)])
    ok, gates = judged(check_quasi_continuous(
        WeightedPointSet(pts, np.full(100, 0.01))))
    assert not ok
    assert not gates["gap_cv"].passed
    assert not gates["ks"].passed


def test_quasi_continuity_edge_cases():
    with pytest.raises(InvalidParameterError):
        check_quasi_continuous(WeightedPointSet([1.0], [1.0]))
    with pytest.raises(DegenerateSetError):
        check_quasi_continuous(WeightedPointSet([2.0, 2.0, 2.0], [0.1] * 3))


def test_custom_thresholds_apply():
    s = uniform_set(40)
    ok, gates = judged(check_quasi_continuous(s, VerdictConfig(n_min=10, cv_max=0.5, ks_max=0.1)))
    assert ok
    assert [g.threshold for g in gates.values()] == [10, 0.5, 0.1]
    ok, _ = judged(check_quasi_continuous(s, VerdictConfig(n_min=41, cv_max=0.5, ks_max=0.1)))
    assert not ok


def test_subset_sum_set_fails_uniformity_golden():
    """Signed-sum frequencies of a random model are far from uniform: the
    gap spread blows the cv gate and the edge pile-up trips the ks gate.
    Exact diagnostics are pinned in the golden file."""
    golden = json.loads((GOLDEN / "qc_subset_sums_n14.json").read_text())
    m = generate_random(golden["n"], golden["seed"])
    dec = spectral_decomposition(m)
    ok, gates = judged(check_quasi_continuous(dec))
    assert ok == golden["quasi_continuous"]
    assert gates["count"].value == golden["n_points"]
    assert abs(gates["gap_cv"].value - golden["gap_cv"]) < 1e-12
    assert abs(gates["ks"].value - golden["ks_stat"]) < 1e-12
    assert gates["gap_cv"].value > 1.0 and gates["ks"].value > 0.2


# ---------------------------------------------------------------------------
# Partition and L1
# ---------------------------------------------------------------------------

def group_sizes(partition):
    return np.diff(partition.starts, append=partition.n_points).tolist()


def test_partition_even_split():
    p = make_partition(uniform_set(100), 10)
    assert p.g_groups == 10
    assert group_sizes(p) == [10] * 10


def test_partition_uneven_split():
    p = make_partition(uniform_set(101), 10)
    assert group_sizes(p) == [11] + [10] * 9


def test_partition_extremes():
    n = 64
    assert make_partition(uniform_set(n), n).starts.tolist() == list(range(n))
    single = make_partition(uniform_set(n), 1)
    assert single.starts.tolist() == [0] and group_sizes(single) == [n]


def test_partition_rejects_bad_group_count():
    s = uniform_set(10)
    for g in (0, -1, 11):
        with pytest.raises(InvalidParameterError):
            make_partition(s, g)


def test_l1_passes_for_flat_small_weights():
    s = uniform_set(256, weight=1e-4)
    rows, _ = check_l1(s, make_partition(s, 16))
    ok, gates = judged(rows)
    assert ok
    assert gates["max_weight"].value == 1e-4
    assert gates["group_deviation"].value == 0.0


def test_l1_global_gate():
    w = np.full(256, 1e-4)
    w[100] = 5e-3
    s = WeightedPointSet(np.linspace(0, 1, 256), w)
    ok, gates = judged(check_l1(s, make_partition(s, 16))[0])
    assert not ok and not gates["max_weight"].passed
    assert gates["max_weight"].value == 5e-3


def test_l1_group_gate_and_worst_group():
    w = np.full(60, 5e-4)
    w[45] = 5e-4 + 2e-3  # inside group 7 of a 10-group split, still < eps_global? no: 2.5e-3 > 1e-3
    s = WeightedPointSet(np.linspace(0, 1, 60), w)
    rows, worst = check_l1(s, make_partition(s, 10),
                           VerdictConfig(eps_global=1e-2, eps_group=1e-3))
    ok, gates = judged(rows)
    assert not ok
    assert gates["max_weight"].passed and not gates["group_deviation"].passed
    assert worst == 7
    assert abs(gates["group_deviation"].value - 2e-3) < 1e-18


def test_l1_worst_group_is_the_first_on_a_tie():
    w = np.full(40, 5e-4)
    w[5] = w[25] = 9e-4  # groups 0 and 2 of a 4-group split deviate equally
    s = WeightedPointSet(np.linspace(0, 1, 40), w)
    rows, worst = check_l1(s, make_partition(s, 4))
    assert worst == 0
    assert judged(rows)[1]["group_deviation"].value == 9e-4 - 5e-4


def test_each_gate_passes_at_its_threshold_and_fails_one_step_past_it():
    """count is a floor; gap_cv, ks, max_weight and group_deviation are caps."""
    s = uniform_set(64, weight=1e-4)
    partition = make_partition(s, 8)

    def rows(config):
        return check_quasi_continuous(s, config) + check_l1(s, partition, config)[0]

    values = {g.name: g.value for g in rows(VerdictConfig())}
    at = {key: values[name] for name, (key, _) in GATES.items()}
    assert all(g.passed for g in rows(VerdictConfig(**at)))
    for name, (key, _) in GATES.items():
        past = at[key] + 1 if key == "n_min" else float(np.nextafter(at[key], -np.inf))
        assert [g.name for g in rows(VerdictConfig(**{**at, key: past})) if not g.passed] == [name]


def test_verdict_config_holds_the_gate_thresholds_only():
    assert [f.name for f in dataclasses.fields(VerdictConfig)] == [key for key, _ in GATES.values()]


def test_l1_rejects_foreign_partition():
    s = uniform_set(50)
    with pytest.raises(InvalidParameterError):
        check_l1(s, make_partition(uniform_set(49), 7))
    # a partition that leaves a gap or repeats a group cannot be built
    for starts in ([0, 26, 25], [5, 25]):
        with pytest.raises(InvalidParameterError, match="rise strictly from 0"):
            PartitionScheme(starts, 50)


def test_partition_starts_are_refused_unless_they_split_the_points():
    for starts, n in (([], 5), ([0, 0], 5), ([0, 5], 5), ([[0]], 5)):
        with pytest.raises(InvalidParameterError):
            PartitionScheme(starts, n)
    p = PartitionScheme([0, 2, 4], 5)
    assert p.g_groups == 3 and group_sizes(p) == [2, 2, 1]
    assert not p.starts.flags.writeable


def test_large_spin_bath_weights_satisfy_l1(rng):
    """Amplitudes held near balance keep every product weight tiny, the
    regime the weight hypothesis describes."""
    m = bounded_model(18, rng, a2_lo=0.4, a2_hi=0.6)
    s = spectral_decomposition(m)
    ok, gates = judged(check_l1(s, make_partition(s, default_g_groups(s.n_points)))[0])
    assert ok
    assert gates["max_weight"].value < 1e-3


# ---------------------------------------------------------------------------
# lemma_sum
# ---------------------------------------------------------------------------

def test_lemma_sum_equals_r(rng):
    m = bounded_model(8, rng, phases=True)
    s = spectral_decomposition(m)
    for t in (0.0, 1.3, 7.7):
        assert abs(lemma_sum(s, t) - r_of_t(m, t)) < 1e-10


def test_lemma_sum_normalization_modes():
    s = WeightedPointSet([0.0, 1.0], [1.0, 1.0])
    raw = lemma_sum(s, 0.0)
    assert abs(raw - 2.0) < 1e-15


# ---------------------------------------------------------------------------
# Recurrence time
# ---------------------------------------------------------------------------

def test_recurrence_integer_points():
    s = WeightedPointSet([0.0, 3.0, 7.0], [0.3, 0.3, 0.4])
    tp = estimate_recurrence_time(s)
    assert abs(tp - 2.0 * math.pi) < 1e-12


def test_recurrence_rational_gaps():
    s = WeightedPointSet([0.0, 0.3, 0.7, 1.2], np.full(4, 0.25))
    tp = estimate_recurrence_time(s)
    assert abs(tp - 2.0 * math.pi / 0.1) < 1e-6 * tp


def test_recurrence_rejects_incommensurate_sets():
    for third in (math.sqrt(2.0), math.e, (1 + math.sqrt(5)) / 2):
        s = WeightedPointSet([0.0, 1.0, third], [0.3, 0.3, 0.4])
        assert estimate_recurrence_time(s) is EFFECTIVELY_INFINITE


def test_recurrence_overflowing_to_infinity_is_effectively_infinite():
    s = WeightedPointSet([0.0, 1e-310, 2e-310], [0.25, 0.5, 0.25])
    assert estimate_recurrence_time(s) is EFFECTIVELY_INFINITE


@pytest.mark.parametrize("points", [[0.0, 1.0, 1.0 + 2.0**-16], [0.0, 2.0**-16, 1.0 + 2.0**-16]])
def test_recurrence_does_not_depend_on_the_order_of_the_gaps(points):
    """The gaps 1 and 2^-16 share the divisor 2^-16 in either order: a gap
    far below the running Delta rationalizes as 1/65536, not as 0/1."""
    s = WeightedPointSet(points, [0.25, 0.5, 0.25])
    assert estimate_recurrence_time(s) == 2.0 * math.pi * 2.0**16


def test_two_spin_bath_with_nearby_couplings_recurs():
    """Balanced spins at g = 1 and 1 + 2^-16 put their lines 2^-15 apart
    in multiples, so |r| returns to 1 after pi 2^16. At 1 + 2^-20 the
    divisor needs a denominator of 2^20, past DENOMINATOR_CAP = 10^6."""
    spins = [(ROOT_HALF, ROOT_HALF, 1.0), (ROOT_HALF, ROOT_HALF, 1.0 + 2.0**-16)]
    m = new_model(ROOT_HALF, ROOT_HALF, spins)
    report = decoherence_verdict(m)
    assert report.recurrence_time == math.pi * 2.0**16
    assert abs(abs(r_of_t(m, report.recurrence_time)) - 1.0) < 1e-9
    spins[1] = (ROOT_HALF, ROOT_HALF, 1.0 + 2.0**-20)
    far = decoherence_verdict(new_model(ROOT_HALF, ROOT_HALF, spins))
    assert far.recurrence_time is EFFECTIVELY_INFINITE


@pytest.mark.parametrize("points", [
    # 1 + 1e-5 has the convergent 1/1 and a next quotient of 10^5, but
    # 1/1 misses it by more than the tolerance
    [0.0, 1.0, 2.0 + 1e-5],
    # the gap ratio 5e-324 / 1e300 is 0: no numerator of 1 or more fits
    [-1e300, 0.0, 5e-324],
    # every gap passes against the running Delta, but the final Delta,
    # 0.75 / 47 rounded, misses the second gap by just over the tolerance
    [-0.75, 0.0, 0.75000000075, 0.7659574475585106],
    # the gap ratio 1e308 / 1e-300 is beyond the float range
    [0.0, 1e-300, 1e308],
])
def test_recurrence_refusals(points):
    s = WeightedPointSet(points, np.full(len(points), 1.0 / len(points)))
    assert estimate_recurrence_time(s) is EFFECTIVELY_INFINITE


def test_recurrence_multiple_beyond_the_float_range_is_effectively_infinite():
    """Gaps 1.5e308 / 999983^j for j = 0..52, ascending to 0: each one is
    1/999983 of the running Delta, so the fold passes, but the first gap is
    1e312 times the final Delta, a multiple beyond the float range."""
    gaps = 1.5e308 * 999983.0 ** -np.arange(53)
    points = np.append(-np.cumsum(gaps[::-1])[::-1], 0.0)
    s = WeightedPointSet(points, np.full(points.size, 1.0 / points.size))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert estimate_recurrence_time(s) is EFFECTIVELY_INFINITE


def test_lemma_sum_rejects_non_finite_time():
    for t in (math.inf, -math.inf, math.nan):
        with pytest.raises(InvalidParameterError):
            lemma_sum(uniform_set(8), t)


def test_recurrence_single_distinct_point():
    s = WeightedPointSet([4.0], [1.0])
    assert estimate_recurrence_time(s) is EFFECTIVELY_INFINITE
    repeated = WeightedPointSet([4.0, 4.0, 4.0], [0.5, 0.25, 0.25])
    assert estimate_recurrence_time(repeated) is EFFECTIVELY_INFINITE


@pytest.mark.parametrize(
    "points",
    [
        [-3.0, -0.0, 0.0, 0.0, 4.0, 4.0, 7.0],
        [0.0, -0.0, 0.0],
        [-0.0, 0.0, 1.0, 1.0, math.sqrt(2.0)],
        [0.0, 0.3, 0.3, 0.7, 1.2, 1.2],
    ],
)
def test_recurrence_dedupes_repeats_and_signed_zeros_like_unique(points):
    """Repeated points, a -0.0/0.0 pair among them, count once, exactly as
    they would after np.unique."""
    with_repeats = WeightedPointSet(points, np.full(len(points), 1.0 / len(points)))
    distinct = np.unique(points)
    reference = WeightedPointSet(distinct, np.full(distinct.size, 1.0 / distinct.size))
    # A period compares by value, the sentinel by identity.
    assert estimate_recurrence_time(with_repeats) == estimate_recurrence_time(reference)


def test_recurrence_equal_coupling_spectrum():
    g = 0.7
    m = generate_random(10, 5, Equal(g))
    s = spectral_decomposition(m)
    tp = estimate_recurrence_time(s)
    assert abs(tp - math.pi / g) <= 1e-12 * tp


def test_recurrence_scale_covariance():
    base = np.array([0.0, 3.0, 7.0])
    for c in (0.01, 2.0, 1e4):
        s = WeightedPointSet(base * c, np.full(3, 1 / 3))
        tp = estimate_recurrence_time(s)
        assert abs(tp - 2.0 * math.pi / c) < 1e-9 * tp


def test_random_spectrum_has_no_recurrence(rng):
    m = bounded_model(10, rng)
    s = spectral_decomposition(m)
    assert estimate_recurrence_time(s) is EFFECTIVELY_INFINITE


def recurrence_by_loop(points):
    """estimate_recurrence_time with every gap verified one at a time in
    Python floats: the reference for its array check."""
    deltas = [float(d) for d in np.diff(points) if d != 0.0]
    if not deltas:
        return EFFECTIVELY_INFINITE
    delta = deltas[0]
    for d in deltas[1:]:
        delta = _common_divisor(d, delta)
        if delta is None:
            return EFFECTIVELY_INFINITE
    for d in deltas:
        ratio = d / delta
        if not math.isfinite(ratio):
            return EFFECTIVELY_INFINITE
        multiple = round(ratio)
        if multiple < 1 or abs(d - multiple * delta) > REL_TOLERANCE * d:
            return EFFECTIVELY_INFINITE
    period = 2.0 * math.pi / delta
    return period if math.isfinite(period) else EFFECTIVELY_INFINITE


@pytest.mark.parametrize("seed", range(4))
def test_recurrence_matches_the_per_gap_loop(seed):
    """Lattice spectra, and integer points with rounding-size noise, give
    the loop's period (or its refusal) bit for bit."""
    rng = np.random.default_rng(seed)
    sets = []
    for _ in range(25):
        ks = rng.integers(1, 9, int(rng.integers(2, 9)))
        spins = [(ROOT_HALF, ROOT_HALF, float(rng.uniform(0.01, 10)) * int(k)) for k in ks]
        sets.append(spectral_decomposition(new_model(ROOT_HALF, ROOT_HALF, spins)))
        n = int(rng.integers(3, 30))
        points = np.sort(rng.integers(-50, 50, n).astype(float)) * float(rng.uniform(0.1, 10))
        points += rng.normal(0.0, 10.0 ** rng.uniform(-11, -7), n)
        sets.append(WeightedPointSet(points, np.full(n, 1.0 / n)))
    results = [estimate_recurrence_time(s) for s in sets]
    assert results == [recurrence_by_loop(s.points) for s in sets]
    assert any(isinstance(r, float) for r in results) and EFFECTIVELY_INFINITE in results


# ---------------------------------------------------------------------------
# Verdict pipeline
# ---------------------------------------------------------------------------

def test_default_g_groups_is_root_n():
    assert default_g_groups(1) == 1
    assert default_g_groups(2) == 2
    assert default_g_groups(100) == 10
    assert default_g_groups(101) == 11
    assert default_g_groups(65536) == 256


def test_small_bath_yields_no_verdict(rng):
    report = decoherence_verdict(bounded_model(3, rng))
    assert report.verdict is Verdict.NO_VERDICT
    assert report.n_points == 8
    assert not report.quasi_continuous
    assert report.recurrence_time is EFFECTIVELY_INFINITE
    assert report.lemma_sum_magnitude_at_half_tp is NOT_EVALUATED


def test_equal_couplings_flag_degenerate_lines():
    m = generate_random(8, 2, Equal(0.5))
    report = decoherence_verdict(m)
    assert report.has_degenerate_lines
    assert report.n_points == 9
    assert report.verdict is Verdict.NO_VERDICT  # 9 lines < n_min
    assert isinstance(report.recurrence_time, float)
    assert abs(report.recurrence_time - math.pi / 0.5) < 1e-9
    assert isinstance(report.lemma_sum_magnitude_at_half_tp, float)


def test_random_spectrum_no_degenerate_lines(rng):
    report = decoherence_verdict(bounded_model(8, rng))
    assert not report.has_degenerate_lines


def test_loosened_thresholds_give_decoheres_with_real_decay():
    """With gates widened to the measured scale of signed-sum spectra the
    verdict fires, and the simulated |r|^2 honors it (cross-checked in
    the harness tests)."""
    m = generate_random(16, 105)
    config = VerdictConfig(n_min=64, cv_max=30.0, ks_max=0.30, eps_global=5e-3, eps_group=5e-3)
    report = decoherence_verdict(m, config)
    assert report.verdict is Verdict.DECOHERES
    assert report.n_points == 65536
    assert report.quasi_continuous and report.in_l1
    assert report.l1_max_weight < 5e-3
    assert report.recurrence_time is EFFECTIVELY_INFINITE


def test_verdict_refuses_zero_groups():
    """A partition takes from 1 to n groups; zero groups, or more groups
    than points, is refused."""
    s = uniform_set(8)
    for g_groups in (0, s.n_points + 1):
        with pytest.raises(InvalidParameterError, match="g_groups"):
            make_partition(s, g_groups)


def test_verdict_from_decomposition_rejects_single_line():
    single = SpectralDecomposition([0.0], [1.0], [2], 1)
    with pytest.raises(DegenerateSetError):
        verdict_from_decomposition(single)


def test_report_to_dict_maps_sentinels(rng):
    report = decoherence_verdict(bounded_model(3, rng))
    d = report.to_dict()
    assert d["recurrence_time"] == "effectively_infinite"
    assert d["lemma_sum_magnitude_at_half_tp"] == "not_evaluated"
    assert d["verdict"] == "no_verdict"
    assert d["n_points"] == 8

    equal = decoherence_verdict(generate_random(8, 2, Equal(0.5)))
    d = equal.to_dict()
    assert isinstance(d["recurrence_time"], float)
    assert isinstance(d["lemma_sum_magnitude_at_half_tp"], float)
    assert d["has_degenerate_lines"] is True


@pytest.mark.parametrize("model, config", [
    (generate_random(16, 105),
     VerdictConfig(cv_max=30.0, ks_max=0.30, eps_global=5e-3, eps_group=5e-3)),
    (generate_random(12, 1), VerdictConfig()),
    (generate_random(8, 2, Equal(0.5)), VerdictConfig(n_min=9, eps_global=0.5, eps_group=0.5)),
], ids=["decoheres", "random", "equal"])
def test_report_reads_its_fields_off_the_gate_rows(model, config):
    report = decoherence_verdict(model, config)
    ok, gates = judged(report.gates)
    assert list(gates) == list(GATES)
    assert [g.threshold for g in report.gates] == [getattr(config, key) for key, _ in GATES.values()]
    assert report.n_points == gates["count"].value
    assert (report.qc_gap_cv, report.qc_ks_stat) == (gates["gap_cv"].value, gates["ks"].value)
    assert report.l1_max_weight == gates["max_weight"].value
    assert report.l1_max_group_deviation == gates["group_deviation"].value
    assert report.quasi_continuous == all(gates[name].passed for name in ("count", "gap_cv", "ks"))
    assert report.in_l1 == all(gates[name].passed for name in ("max_weight", "group_deviation"))
    assert (report.verdict is Verdict.DECOHERES) == ok
    assert "gates" not in report.to_dict()


def test_aligned_bath_fails_weight_check(rng):
    """A bath pointing along z concentrates all mass on one frequency."""
    spins = [(1.0, 0.0, float(g)) for g in rng.uniform(0.2, 1.0, size=8)]
    m = new_model(ROOT_HALF, ROOT_HALF, spins)
    report = decoherence_verdict(m)
    assert report.l1_max_weight == 1.0
    assert not report.in_l1
    assert report.verdict is Verdict.NO_VERDICT
