"""Model construction, validation, random generation, serialization."""

import math

import numpy as np
import pytest

from spinbath import (
    ConfigError,
    EmptyEnvironmentError,
    EnvironmentSpin,
    Equal,
    InvalidParameterError,
    NormalizationError,
    PhaseLaw,
    SpinBathModel,
    UniformPositive,
    generate_random,
    model_from_dict,
    model_to_dict,
    new_model,
)
from spinbath.model import random_spin_arrays

ROOT_HALF = math.sqrt(0.5)


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------

def test_environment_spin_accepts_normalized_pair():
    spin = EnvironmentSpin(0.6, 0.8, 1.5)
    assert spin.alpha == 0.6 + 0j
    assert spin.beta == 0.8 + 0j
    assert spin.g == 1.5


def test_environment_spin_rejects_unnormalized_pair():
    with pytest.raises(NormalizationError) as info:
        EnvironmentSpin(0.6, 0.81, 1.0)
    assert info.value.residual > 1e-12
    assert "deviates from 1" in str(info.value)


def test_normalization_tolerance_is_not_overtight():
    # residual ~1e-16 from an exactly computed complement must pass
    a2 = 0.3141592653589793
    EnvironmentSpin(math.sqrt(a2), math.sqrt(1.0 - a2), 0.5)


@pytest.mark.parametrize("g", [0.0, math.inf, -math.inf, math.nan])
def test_environment_spin_rejects_bad_coupling(g):
    with pytest.raises(InvalidParameterError):
        EnvironmentSpin(ROOT_HALF, ROOT_HALF, g)


def test_model_rejects_empty_bath():
    with pytest.raises(EmptyEnvironmentError):
        SpinBathModel(1.0, 0.0, ())
    with pytest.raises(EmptyEnvironmentError):
        new_model(1.0, 0.0, [])


def test_model_rejects_unnormalized_system():
    with pytest.raises(NormalizationError):
        SpinBathModel(1.0, 0.1, (EnvironmentSpin(1.0, 0.0, 1.0),))


def test_new_model_names_offending_spin():
    spins = [(ROOT_HALF, ROOT_HALF, 1.0), (0.9, 0.9, 1.0)]
    with pytest.raises(NormalizationError, match="spin 2"):
        new_model(ROOT_HALF, ROOT_HALF, spins)


def test_new_model_names_spin_with_zero_coupling():
    with pytest.raises(InvalidParameterError, match="spin 1"):
        new_model(1.0, 0.0, [(1.0, 0.0, 0.0)])


def test_n_spins_counts_bath_only():
    m = new_model(ROOT_HALF, ROOT_HALF, [(1.0, 0.0, 0.3), (0.0, 1.0, 0.4)])
    assert m.n_spins == 2


def test_model_is_immutable():
    m = new_model(1.0, 0.0, [(1.0, 0.0, 1.0)])
    with pytest.raises(AttributeError):
        m.a = 0.5


def test_complex_amplitudes_accepted():
    # |0.6i|^2 + |0.8e^{i pi/4}|^2 = 1
    phase = complex(math.cos(math.pi / 4), math.sin(math.pi / 4))
    spin = EnvironmentSpin(0.6j, 0.8 * phase, -2.0)
    assert abs(abs(spin.alpha) ** 2 + abs(spin.beta) ** 2 - 1.0) < 1e-15


# ---------------------------------------------------------------------------
# Random generation protocol
# ---------------------------------------------------------------------------

def test_generate_random_matches_documented_draw_order():
    """Re-derive the model from a raw generator, draw by draw."""
    n, seed = 7, 1234
    model = generate_random(n, seed, UniformPositive(2.5), PhaseLaw.UNIFORM)
    rng = np.random.default_rng(seed)
    for spin in model.spins:
        u = rng.random()
        pa = 2.0 * math.pi * rng.random()
        pb = 2.0 * math.pi * rng.random()
        g = 2.5 * (1.0 - rng.random())
        assert spin.alpha == math.sqrt(u) * complex(math.cos(pa), math.sin(pa))
        assert spin.beta == math.sqrt(1.0 - u) * complex(math.cos(pb), math.sin(pb))
        assert spin.g == g


def test_generate_random_zero_phases_skip_phase_draws():
    n, seed = 5, 99
    model = generate_random(n, seed)
    rng = np.random.default_rng(seed)
    for spin in model.spins:
        u = rng.random()
        g = 1.0 - rng.random()
        assert spin.alpha == complex(math.sqrt(u))
        assert spin.beta == complex(math.sqrt(1.0 - u))
        assert spin.g == g
        assert spin.alpha.imag == 0.0 and spin.beta.imag == 0.0


def test_generate_random_system_is_balanced():
    m = generate_random(3, 0)
    assert m.a == complex(ROOT_HALF)
    assert m.b == complex(ROOT_HALF)


def test_generate_random_couplings_positive_and_bounded():
    m = generate_random(200, 7, UniformPositive(0.25))
    gs = [s.g for s in m.spins]
    assert all(0.0 < g <= 0.25 for g in gs)


def test_generate_random_equal_coupling():
    m = generate_random(6, 3, Equal(-0.7))
    assert all(s.g == -0.7 for s in m.spins)


def test_generate_random_is_reproducible():
    m1 = generate_random(10, 42, UniformPositive(1.0), PhaseLaw.UNIFORM)
    m2 = generate_random(10, 42, UniformPositive(1.0), PhaseLaw.UNIFORM)
    assert m1 == m2


def test_generate_random_rejects_bad_parameters():
    with pytest.raises(InvalidParameterError):
        generate_random(0, 1)
    with pytest.raises(InvalidParameterError):
        generate_random(3, 1, UniformPositive(0.0))
    with pytest.raises(InvalidParameterError):
        generate_random(3, 1, Equal(0.0))


def transcribed_draw(n, seed, coupling_law, phase_law):
    """generate_random's documented protocol, one scalar draw at a time."""
    rng = np.random.default_rng(seed)
    spins = []
    for _ in range(n):
        u = rng.random()
        amp_a, amp_b = math.sqrt(u), math.sqrt(1.0 - u)
        if phase_law is PhaseLaw.UNIFORM:
            pa = 2.0 * math.pi * rng.random()
            pb = 2.0 * math.pi * rng.random()
            alpha = complex(amp_a * math.cos(pa), amp_a * math.sin(pa))
            beta = complex(amp_b * math.cos(pb), amp_b * math.sin(pb))
        else:
            alpha, beta = complex(amp_a, 0.0), complex(amp_b, 0.0)
        if isinstance(coupling_law, UniformPositive):
            g = coupling_law.g_max * (1.0 - rng.random())
        else:
            g = coupling_law.g
        spins.append((alpha, beta, g))
    return spins


def bits(values):
    """Every real part as float.hex, so that -0.0 and 0.0 differ."""
    out = []
    for alpha, beta, g in values:
        out.append((alpha.real.hex(), alpha.imag.hex(), beta.real.hex(),
                    beta.imag.hex(), float(g).hex()))
    return out


PROTOCOL_SEEDS = (0, 1, 7, 2**63 - 1)


@pytest.mark.parametrize("phase_law", list(PhaseLaw), ids=lambda p: p.value)
@pytest.mark.parametrize("coupling_law", [UniformPositive(2.5), Equal(-0.7)],
                         ids=["uniform_positive", "equal"])
@pytest.mark.parametrize("n", [1, 2, 16, 257])
def test_array_draw_equals_scalar_transcription(n, coupling_law, phase_law):
    """random_spin_arrays and generate_random give, bit for bit, the baths
    of the per-spin scalar loop, and a stack of seeds gives the rows that
    one seed at a time gives."""
    stacked = random_spin_arrays(n, PROTOCOL_SEEDS, coupling_law, phase_law)
    for row, seed in enumerate(PROTOCOL_SEEDS):
        want = bits(transcribed_draw(n, seed, coupling_law, phase_law))
        model = generate_random(n, seed, coupling_law, phase_law)
        assert bits((s.alpha, s.beta, s.g) for s in model.spins) == want
        assert model.a == model.b == complex(ROOT_HALF)
        single = random_spin_arrays(n, [seed], coupling_law, phase_law)
        assert bits(zip(*(a[0].tolist() for a in single))) == want
        assert bits(zip(*(a[row].tolist() for a in stacked))) == want


def test_array_draw_shapes():
    alpha, beta, g = random_spin_arrays(3, [1, 2], UniformPositive(1.0), PhaseLaw.UNIFORM)
    assert alpha.shape == beta.shape == g.shape == (2, 3)
    assert alpha.dtype == beta.dtype == np.complex128 and g.dtype == np.float64
    empty = random_spin_arrays(3, [])
    assert all(a.shape == (0, 3) for a in empty)


def test_array_draw_raises_the_spin_error_of_the_first_bad_spin():
    """A coupling that rounds to zero is refused with EnvironmentSpin's own
    message, by the stacked draw as by generate_random."""
    law = UniformPositive(5e-324)  # g_max * (1 - v) rounds to 0 for v > 1/2
    with pytest.raises(InvalidParameterError) as stacked:
        random_spin_arrays(8, [1, 2, 3], law)
    with pytest.raises(InvalidParameterError) as single:
        generate_random(8, 1, law)
    want = "environment spin: coupling g must be finite and nonzero, got 0.0"
    assert str(stacked.value) == str(single.value) == want


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_model_round_trips_through_dict():
    m = generate_random(8, 5, UniformPositive(0.9), PhaseLaw.UNIFORM)
    assert model_from_dict(model_to_dict(m)) == m


def test_model_to_dict_shape():
    m = new_model(ROOT_HALF, ROOT_HALF, [(0.6, 0.8, 1.25)])
    d = model_to_dict(m)
    assert d == {
        "a": [ROOT_HALF, 0.0],
        "b": [ROOT_HALF, 0.0],
        "spins": [{"alpha": [0.6, 0.0], "beta": [0.8, 0.0], "g": 1.25}],
    }


@pytest.mark.parametrize(
    "mutate, path",
    [
        (lambda d: d.pop("a"), "model.a"),
        (lambda d: d.pop("spins"), "model.spins"),
        (lambda d: d.update(extra=1), "model.extra"),
        (lambda d: d.update(a=[1.0]), "model.a"),
        (lambda d: d.update(a=[1.0, "x"]), "model.a[1]"),
        (lambda d: d["spins"].__setitem__(0, []), "model.spins[0]"),
        (lambda d: d["spins"][0].pop("g"), "model.spins[0].g"),
        (lambda d: d["spins"][0].update(g=True), "model.spins[0].g"),
        (lambda d: d["spins"][0].update(junk=0), "model.spins[0]"),
    ],
)
def test_model_from_dict_reports_field_paths(mutate, path):
    d = model_to_dict(new_model(ROOT_HALF, ROOT_HALF, [(0.6, 0.8, 1.0)]))
    mutate(d)
    with pytest.raises(ConfigError) as info:
        model_from_dict(d)
    assert info.value.field_path.startswith(path)


def test_model_from_dict_rejects_semantic_errors_with_paths():
    d = {"a": [1.0, 0.0], "b": [0.0, 0.0],
         "spins": [{"alpha": [0.9, 0.0], "beta": [0.9, 0.0], "g": 1.0}]}
    with pytest.raises(ConfigError) as info:
        model_from_dict(d)
    assert "spins[0]" in info.value.field_path

    d["spins"][0]["beta"] = [0.0, 0.0]
    d["spins"][0]["alpha"] = [1.0, 0.0]
    d["spins"][0]["g"] = 0.0
    with pytest.raises(ConfigError) as info:
        model_from_dict(d)
    assert "spins[0]" in info.value.field_path


def test_model_from_dict_rejects_empty_spin_list():
    with pytest.raises(ConfigError) as info:
        model_from_dict({"a": [1.0, 0.0], "b": [0.0, 0.0], "spins": []})
    assert info.value.field_path == "model.spins"


def test_config_error_message_carries_path():
    err = ConfigError("config.grid.steps", "must be >= 2")
    assert str(err) == "config.grid.steps: must be >= 2"
