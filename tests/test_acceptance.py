"""Acceptance suite: one test per acceptance criterion, one line per verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines. Every expected value comes from an independent oracle:
the state-vector evolution, closed-form combinatorics, or hand algebra.

Criterion 7's first clause (random baths at N >= 16 decohere at the
default thresholds) states a property the exact signed-sum spectra do not
have; the test reports the measured diagnostics and fails honestly rather
than loosening the gates it is supposed to exercise. The other two
clauses hold and are tested separately.
"""

import math
import time

import numpy as np

from spinbath import (
    SpinBathModel,
    Verdict,
    brute_force_expectation,
    decoherence_verdict,
    degeneracy_count,
    estimate_recurrence_time,
    expectation_full,
    generate_random,
    hamiltonian_spectrum,
    new_model,
    r_bounds,
    r_of_t,
    r_squared,
    sample_series,
    spectral_decomposition,
)
from spinbath.cli import main
from spinbath.lemma import EFFECTIVELY_INFINITE, WeightedPointSet, lemma_sum

from conftest import ROOT_HALF, bounded_model, random_full_observable, triples
from test_harness import sha256


def report(k, ok, desc):
    print(f"[criterion {k:>2}] {'PASS' if ok else 'FAIL'}  {desc}")


def balanced_equal_model(n, g):
    return new_model(ROOT_HALF, ROOT_HALF, [(ROOT_HALF, ROOT_HALF, g)] * n)


def test_criterion_01_oracle_equivalence():
    """Closed-form full-observable expectations match the state-vector
    oracle to 1e-10 over 100 random cases."""
    rng = np.random.default_rng(1001)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 11))
        m = bounded_model(n, rng, phases=True)
        obs = random_full_observable(rng, n)
        t = float(rng.uniform(0.0, 50.0))
        err = abs(expectation_full(m, obs, t) - brute_force_expectation(m, obs, t))
        worst = max(worst, err)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-10 and elapsed < 60.0
    report(1, ok, f"oracle equivalence: max |closed - brute| = {worst:.3e} "
                  f"over 100 cases in {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < 60.0


def test_criterion_02_spectral_identity():
    """r(t) from the product form equals the enumerated trigonometric sum
    to 1e-10 for 20 models, 100 times each."""
    rng = np.random.default_rng(1002)
    t0 = time.monotonic()
    worst = 0.0
    sizes = [2 + (k % 15) for k in range(20)]  # covers 2..16
    for n in sizes:
        m = bounded_model(n, rng, phases=True)
        points = spectral_decomposition(m)
        for t in rng.uniform(0.0, 40.0, size=100):
            err = abs(r_of_t(m, float(t)) - lemma_sum(points, float(t)))
            worst = max(worst, err)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-10 and elapsed < 30.0
    report(2, ok, f"spectral identity: max deviation = {worst:.3e} "
                  f"over 20 models x 100 t in {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < 30.0


def test_criterion_03_weight_normalization():
    """Spectral weights always sum to 1: enumerated up to N = 16 and via
    the telescoping product of per-spin sums up to N = 10^4."""
    rng = np.random.default_rng(1003)
    worst_enum = 0.0
    for n in (2, 9, 16):
        m = bounded_model(n, rng, phases=True)
        dec = spectral_decomposition(m)
        total = math.fsum(dec.weight.tolist())
        worst_enum = max(worst_enum, abs(total - 1.0))
    worst_tele = 0.0
    for n in (10, 1000, 10**4):
        m = bounded_model(n, rng)
        per_spin = [abs(alpha) ** 2 + abs(beta) ** 2 for alpha, beta, _ in triples(m)]
        worst_tele = max(worst_tele, abs(float(np.prod(per_spin)) - 1.0))
    ok = worst_enum <= 1e-12 and worst_tele <= 1e-12
    report(3, ok, f"weight normalization: enumerated dev = {worst_enum:.3e}, "
                  f"telescoped dev (N<=1e4) = {worst_tele:.3e}")
    assert worst_enum <= 1e-12
    assert worst_tele <= 1e-12


def test_criterion_04_bounds():
    """|r(t)|^2 stays inside its envelope over 10^4 samples; for equal
    couplings the lower bound is attained at half the recurrence time."""
    rng = np.random.default_rng(1004)
    for _ in range(20):
        n = int(rng.integers(2, 13))
        m = bounded_model(n, rng, phases=True)
        lower, upper = r_bounds(m)
        horizon = float(rng.uniform(20.0, 200.0))
        ts = np.linspace(0.0, horizon, 10**4)
        values = np.array([r_squared(m, float(t)) for t in ts[:: 10**3]])
        # full grid via the vectorized path, spot checks via the scalar one
        r_sq = np.abs(sample_series(m, 0.0, horizon, 10**4).r_values) ** 2
        assert np.all(r_sq >= lower - 1e-12)
        assert np.all(r_sq <= upper + 1e-12)
        assert np.allclose(values, r_sq[:: 10**3], atol=1e-12)

    worst_rel, worst_eq = 0.0, 0.0
    for _ in range(20):
        n = int(rng.integers(2, 11))
        g = float(rng.uniform(0.2, 2.0))
        # amplitudes kept off balance so the lower bound is strictly positive
        m = bounded_model(n, rng, a2_lo=0.55, a2_hi=0.95, g_lo=g, g_hi=g)
        lower, _ = r_bounds(m)
        tp = estimate_recurrence_time(spectral_decomposition(m))
        r_sq = np.abs(sample_series(m, 0.0, tp, 10**4).r_values) ** 2
        worst_rel = max(worst_rel, float(np.min(r_sq)) / lower - 1.0)
        worst_eq = max(worst_eq, abs(r_squared(m, tp / 2.0) - lower))
    ok = worst_rel <= 0.05 and worst_eq <= 1e-12
    report(4, ok, f"bounds: envelope held on 20 models x 1e4 samples; "
                  f"equal-coupling min within {worst_rel:.2%} of the lower "
                  f"bound, exact at t_P/2 within {worst_eq:.3e}")
    assert worst_rel <= 0.05
    assert worst_eq <= 1e-12


def test_criterion_05_equal_coupling_closed_form():
    """Balanced equal-coupling baths: r(t) = cos^N(g t) and the period
    average of |r|^2 is the central binomial value."""
    rng = np.random.default_rng(1005)
    worst_pt, worst_avg = 0.0, 0.0
    for n in (1, 10, 100):
        g = float(rng.uniform(0.3, 1.5))
        m = balanced_equal_model(n, g)
        for t in rng.uniform(0.0, 30.0, size=100):
            worst_pt = max(worst_pt,
                           abs(r_of_t(m, float(t)) - math.cos(g * t) ** n))
        # |r|^2 = cos^{2N}, a trig polynomial of degree 2N: the uniform
        # 4096-point mean over one period integrates it exactly
        ts = np.linspace(0.0, math.pi / g, 4096, endpoint=False)
        avg = float(np.mean(np.cos(g * ts) ** (2 * n)))
        expected = math.comb(2 * n, n) / 4.0**n
        worst_avg = max(worst_avg, abs(avg - expected))
        m_avg = float(np.mean([r_squared(m, float(t)) for t in ts[::8]]))
        assert abs(m_avg - float(np.mean(np.cos(g * ts[::8]) ** (2 * n)))) < 1e-12
    ok = worst_pt <= 1e-12 and worst_avg <= 1e-6
    report(5, ok, f"equal-coupling closed form: pointwise dev = {worst_pt:.3e}, "
                  f"period-average dev from C(2N,N)/4^N = {worst_avg:.3e}")
    assert worst_pt <= 1e-12
    assert worst_avg <= 1e-6


def test_criterion_06_degeneracy_bookkeeping():
    """Level degeneracies 2 C(N, l) sum to the full dimension and appear
    at the right energies for equal couplings."""
    for n in range(1, 31):
        assert sum(degeneracy_count(n, l) for l in range(n + 1)) == 2 ** (n + 1)
    rng = np.random.default_rng(1006)
    for n in range(1, 13):
        g = float(rng.uniform(0.2, 1.0))
        energies, degeneracies = hamiltonian_spectrum(balanced_equal_model(n, g))
        assert len(energies) == n + 1
        for l, (energy, degeneracy) in enumerate(zip(energies.tolist(), degeneracies.tolist())):
            assert degeneracy == degeneracy_count(n, l)
            assert abs(energy - (2 * l - n) * g / 2.0) < 1e-12
    report(6, True, "degeneracy bookkeeping: totals 2^(N+1) for N <= 30, "
                    "equal-g levels 2 C(N,l) at (N-2l)g/2 for N <= 12")


def test_criterion_07_random_n16_decoheres_at_defaults():
    """Random-coupling baths at N = 16 (amplitudes in [0.1, 0.9]) and the
    default thresholds.

    The exact signed-sum spectrum of random couplings is not uniformly
    spread: gaps cluster heavily (cv >> 1) and mass piles toward the edges
    (ks near or above 0.2), so the uniformity gate rejects every instance.
    The measured diagnostics are printed before the assertion."""
    verdicts, cvs, kss, weights = [], [], [], []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        m = bounded_model(16, rng, a2_lo=0.1, a2_hi=0.9)
        rep = decoherence_verdict(m)
        verdicts.append(rep.verdict)
        cvs.append(rep.qc_gap_cv)
        kss.append(rep.qc_ks_stat)
        weights.append(rep.l1_max_weight)
    fired = sum(v is Verdict.DECOHERES for v in verdicts)
    detail = (
        f"random N=16 at defaults: {fired}/20 instances decohere; "
        f"gap_cv in [{min(cvs):.2f}, {max(cvs):.2f}] vs cv_max=1.0, "
        f"ks in [{min(kss):.3f}, {max(kss):.3f}] vs ks_max=0.2, "
        f"max_weight in [{min(weights):.2e}, {max(weights):.2e}] vs 1e-3"
    )
    ok = fired == 20
    report(7, ok, detail)
    assert ok, detail


def test_criterion_07_small_baths_yield_no_verdict():
    count = 0
    for n in range(1, 6):
        for seed in range(4):
            rep = decoherence_verdict(generate_random(n, seed))
            assert rep.verdict is Verdict.NO_VERDICT
            count += 1
    report(7, True, f"small baths: {count}/20 instances with N <= 5 "
                    "yield no_verdict (spectrum too small)")


def test_criterion_07_aligned_baths_yield_no_verdict():
    for seed in range(100, 120):
        rng = np.random.default_rng(seed)
        g = rng.uniform(0.2, 1.0, size=8)
        m = SpinBathModel(complex(ROOT_HALF), complex(ROOT_HALF), np.ones(8), np.zeros(8), g)
        rep = decoherence_verdict(m)
        assert rep.verdict is Verdict.NO_VERDICT
        assert rep.l1_max_weight == 1.0
    report(7, True, "aligned baths: 20/20 instances concentrate all weight "
                    "on one line and yield no_verdict")


def test_criterion_08_recurrence():
    """Equal couplings recur at pi/g with the envelope minimum at t_P/2;
    incommensurate triples refuse to rationalize."""
    rng = np.random.default_rng(1008)
    worst_tp, worst_mag = 0.0, 0.0
    for _ in range(10):
        n = int(rng.integers(2, 11))
        g = float(rng.uniform(0.2, 2.0))
        m = bounded_model(n, rng, g_lo=g, g_hi=g)
        pts = spectral_decomposition(m)
        tp = estimate_recurrence_time(pts)
        worst_tp = max(worst_tp, abs(tp - math.pi / g) / (math.pi / g))
        target = float(np.prod([abs(2.0 * abs(alpha) ** 2 - 1.0)
                                for alpha, _, _ in triples(m)]))
        worst_mag = max(worst_mag, abs(abs(r_of_t(m, tp / 2.0)) - target))
    incomm = WeightedPointSet([0.0, 1.0, math.sqrt(2.0)], [0.3, 0.3, 0.4])
    refused = estimate_recurrence_time(incomm) is EFFECTIVELY_INFINITE
    ok = worst_tp <= 1e-12 and worst_mag <= 1e-12 and refused
    report(8, ok, f"recurrence: t_P = pi/g within {worst_tp:.3e} relative, "
                  f"|r(t_P/2)| matches the amplitude product within "
                  f"{worst_mag:.3e}, incommensurate set refused: {refused}")
    assert worst_tp <= 1e-12
    assert worst_mag <= 1e-12
    assert refused


def test_criterion_09_determinism(tmp_path):
    """Identical config and seed produce byte-identical output files."""
    sim_a, sim_b = tmp_path / "sa.csv", tmp_path / "sb.csv"
    sim_argv = ["simulate", "--n", "8", "--seed", "2024", "--t-end", "40",
                "--steps", "500", "--phases", "uniform"]
    assert main(sim_argv + ["--output", str(sim_a)]) == 0
    assert main(sim_argv + ["--output", str(sim_b)]) == 0
    sim_same = sha256(sim_a) == sha256(sim_b)

    pre_a, pre_b = tmp_path / "pa.json", tmp_path / "pb.json"
    pre_argv = ["predict", "--n", "14", "--seed", "2024"]
    assert main(pre_argv + ["--output", str(pre_a)]) == 0
    assert main(pre_argv + ["--output", str(pre_b)]) == 0
    pre_same = sha256(pre_a) == sha256(pre_b)

    ok = sim_same and pre_same
    report(9, ok, f"determinism: simulate hashes equal = {sim_same}, "
                  f"predict hashes equal = {pre_same}")
    assert sim_same and pre_same


def test_criterion_10_cli_contract(tmp_path, capsys):
    """oracle-check exits 0 on its corpus; a corrupted model file exits 2
    with the offending field path."""
    code_ok = main(["oracle-check", "--n-max", "10", "--cases", "100",
                    "--seed", "1"])
    bad = tmp_path / "model.json"
    bad.write_text('{"a": [1.0, 0.0], "b": [0.0, 0.0], '
                   '"spins": [{"alpha": [2.0, 0.0], "beta": [0.0, 0.0], '
                   '"g": 1.0}]}')
    code_bad = main(["predict", "--model-file", str(bad)])
    err = capsys.readouterr().err
    has_path = "model.inline.spins[0]" in err
    ok = code_ok == 0 and code_bad == 2 and has_path
    report(10, ok, f"cli contract: oracle-check exit {code_ok}, corrupted "
                   f"model exit {code_bad}, field path in stderr: {has_path}")
    assert code_ok == 0
    assert code_bad == 2
    assert has_path
