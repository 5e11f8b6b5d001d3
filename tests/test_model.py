"""Model construction, validation, random generation, serialization."""

import math

import numpy as np
import pytest

from spinbath import (
    ConfigError,
    EmptyEnvironmentError,
    Equal,
    InvalidParameterError,
    LocalObservable,
    NormalizationError,
    PhaseLaw,
    RelevantObservable,
    SpinBathModel,
    UniformPositive,
    generate_random,
    model_from_dict,
    model_to_dict,
    new_model,
)
from spinbath.model import random_spin_arrays, spin_moduli

from conftest import triples

ROOT_HALF = math.sqrt(0.5)


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------

def test_environment_spin_accepts_normalized_pair():
    m = new_model(1.0, 0.0, [(0.6, 0.8, 1.5)])
    assert triples(m) == [(0.6 + 0j, 0.8 + 0j, 1.5)]
    assert (m.alpha.dtype, m.beta.dtype, m.g.dtype) == (np.complex128, np.complex128, np.float64)


def test_environment_spin_rejects_unnormalized_pair():
    with pytest.raises(NormalizationError) as info:
        new_model(1.0, 0.0, [(0.6, 0.81, 1.0)])
    assert info.value.residual > 1e-12
    assert info.value.which == "spin 1"
    assert "deviates from 1" in str(info.value)
    with pytest.raises(NormalizationError) as direct:
        SpinBathModel(1.0, 0.0, [0.6], [0.81], [1.0])
    assert str(direct.value) == str(info.value)


def test_normalization_tolerance_is_not_overtight():
    # residual ~1e-16 from an exactly computed complement must pass
    a2 = 0.3141592653589793
    new_model(1.0, 0.0, [(math.sqrt(a2), math.sqrt(1.0 - a2), 0.5)])


@pytest.mark.parametrize("g", [0.0, math.inf, -math.inf, math.nan])
def test_environment_spin_rejects_bad_coupling(g):
    want = f"spin 1: coupling g must be finite and nonzero, got {g!r}"
    with pytest.raises(InvalidParameterError) as info:
        new_model(1.0, 0.0, [(ROOT_HALF, ROOT_HALF, g)])
    assert str(info.value) == want
    with pytest.raises(InvalidParameterError) as info:
        SpinBathModel(1.0, 0.0, [ROOT_HALF], [ROOT_HALF], [g])
    assert str(info.value) == want


def test_model_rejects_empty_bath():
    with pytest.raises(EmptyEnvironmentError):
        SpinBathModel(1.0, 0.0, (), (), ())
    with pytest.raises(EmptyEnvironmentError):
        new_model(1.0, 0.0, [])


def test_model_rejects_unnormalized_system():
    with pytest.raises(NormalizationError) as info:
        SpinBathModel(1.0, 0.1, [1.0], [0.0], [1.0])
    assert info.value.which == "system"


@pytest.mark.parametrize("bad", [math.nan, complex(0.0, math.inf), complex(-math.inf, 0.0)])
def test_non_finite_amplitudes_are_refused(bad):
    with pytest.raises(InvalidParameterError) as info:
        new_model(1.0, 0.0, [(1.0, 0.0, 1.0), (bad, ROOT_HALF, 1.0)])
    assert str(info.value) == "spin 2: amplitudes must be finite"
    with pytest.raises(InvalidParameterError) as info:
        SpinBathModel(ROOT_HALF, bad, [1.0], [0.0], [1.0])
    assert str(info.value) == "system: amplitudes must be finite"


def test_the_bath_is_read_only():
    alpha = np.array([1.0, 0.0], dtype=np.complex128)
    m = SpinBathModel(1.0, 0.0, alpha, [0.0, 1.0], [0.5, -0.5])
    for column in (m.alpha, m.beta, m.g):
        assert not column.flags.writeable
        with pytest.raises(ValueError):
            column[0] = 1.0
    alpha[0] = 0.0  # the model holds its own copy
    assert m.alpha.tolist() == [1.0, 0.0]


@pytest.mark.parametrize("alpha, beta, g, message", [
    ([[1.0]], [0.0], [1.0], "alpha must be 1-d, got shape (1, 1)"),
    ([1.0], [0.0], [[1.0]], "g must be 1-d, got shape (1, 1)"),
    (1.0, 0.0, 1.0, "alpha must be 1-d, got shape ()"),
    ([1.0, 0.0], [0.0], [1.0], "alpha, beta and g must be of one length, got (2, 1, 1)"),
    ([1.0], [0.0], [1.0, 2.0], "alpha, beta and g must be of one length, got (1, 1, 2)"),
])
def test_model_refuses_misshapen_baths(alpha, beta, g, message):
    with pytest.raises(InvalidParameterError) as info:
        SpinBathModel(1.0, 0.0, alpha, beta, g)
    assert str(info.value) == message


def test_new_model_refuses_a_triple_of_another_length():
    with pytest.raises(ValueError):
        new_model(1.0, 0.0, [(1.0, 0.0, 1.0), (1.0, 0.0, 1.0, 5.0)])
    with pytest.raises(ValueError):
        new_model(1.0, 0.0, [(1.0, 0.0)])


def test_models_compare_by_value():
    m = new_model(ROOT_HALF, ROOT_HALF, [(1.0, 0.0, 0.3), (0.0, 1.0, 0.4)])
    assert m == new_model(ROOT_HALF, ROOT_HALF, [(1.0, 0.0, 0.3), (0.0, 1.0, 0.4)])
    assert m != new_model(ROOT_HALF, ROOT_HALF, [(1.0, 0.0, 0.3), (0.0, 1.0, -0.4)])
    assert m != new_model(ROOT_HALF, ROOT_HALF, [(1.0, 0.0, 0.3)])
    assert m != new_model(ROOT_HALF, -ROOT_HALF, [(1.0, 0.0, 0.3), (0.0, 1.0, 0.4)])
    assert m != "model"


@pytest.mark.parametrize("cls, what, names", [
    (RelevantObservable, "observable", ("s_uu", "s_dd", "s_du")),
    (LocalObservable, "local observable", ("e_uu", "e_dd", "e_du")),
])
@pytest.mark.parametrize("entry, value", [
    (0, math.nan), (1, math.inf), (2, complex(math.nan, 0.0)), (2, complex(0.0, -math.inf)),
])
def test_observables_refuse_non_finite_entries(cls, what, names, entry, value):
    """Both observable types run one check, each naming its own field."""
    entries = [0.5, -0.5, 0.25j]
    entries[entry] = value
    with pytest.raises(InvalidParameterError) as info:
        cls(*entries)
    assert str(info.value) == f"{what} {names[entry]} must be finite"


def test_observables_coerce_their_entries():
    relevant, local = RelevantObservable(1, -2, 3), LocalObservable(1, -2, 3)
    assert (relevant.s_uu, relevant.s_dd, relevant.s_du) == (local.e_uu, local.e_dd, local.e_du)
    for value, kind in zip((relevant.s_uu, relevant.s_dd, relevant.s_du), (float, float, complex)):
        assert type(value) is kind


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
    [(alpha, beta, _)] = triples(new_model(1.0, 0.0, [(0.6j, 0.8 * phase, -2.0)]))
    assert abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) < 1e-15


# ---------------------------------------------------------------------------
# Random generation protocol
# ---------------------------------------------------------------------------

def test_generate_random_matches_documented_draw_order():
    """Re-derive the model from a raw generator, draw by draw."""
    n, seed = 7, 1234
    model = generate_random(n, seed, UniformPositive(2.5), PhaseLaw.UNIFORM)
    rng = np.random.default_rng(seed)
    for alpha, beta, g_i in triples(model):
        u = rng.random()
        pa = 2.0 * math.pi * rng.random()
        pb = 2.0 * math.pi * rng.random()
        g = 2.5 * (1.0 - rng.random())
        assert alpha == math.sqrt(u) * complex(math.cos(pa), math.sin(pa))
        assert beta == math.sqrt(1.0 - u) * complex(math.cos(pb), math.sin(pb))
        assert g_i == g


def test_generate_random_zero_phases_skip_phase_draws():
    n, seed = 5, 99
    model = generate_random(n, seed)
    rng = np.random.default_rng(seed)
    for alpha, beta, g_i in triples(model):
        u = rng.random()
        g = 1.0 - rng.random()
        assert alpha == complex(math.sqrt(u))
        assert beta == complex(math.sqrt(1.0 - u))
        assert g_i == g
        assert alpha.imag == 0.0 and beta.imag == 0.0


def test_generate_random_system_is_balanced():
    m = generate_random(3, 0)
    assert m.a == complex(ROOT_HALF)
    assert m.b == complex(ROOT_HALF)


def test_generate_random_couplings_positive_and_bounded():
    m = generate_random(200, 7, UniformPositive(0.25))
    assert all(0.0 < g <= 0.25 for g in m.g.tolist())


def test_generate_random_equal_coupling():
    m = generate_random(6, 3, Equal(-0.7))
    assert all(g == -0.7 for g in m.g.tolist())


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
    with pytest.raises(InvalidParameterError, match="unknown coupling law 'harmonic'"):
        random_spin_arrays(3, [1], "harmonic")


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
        assert bits(triples(model)) == want
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


def test_spin_moduli_are_correctly_rounded_squares():
    """|alpha|^2 and |beta|^2 are x * x + y * y with each operation
    correctly rounded, as the normalization check computes them. Python's
    x ** 2 calls the C library's pow, which need not round correctly."""
    m = generate_random(2000, 1, phase_law=PhaseLaw.UNIFORM)
    a2, b2, g = spin_moduli(m)
    assert g.tolist() == m.g.tolist()
    for moduli, amplitudes in ((a2, m.alpha), (b2, m.beta)):
        want = [z.real * z.real + z.imag * z.imag for z in amplitudes.tolist()]
        assert moduli.tolist() == want


def test_array_draw_raises_the_spin_error_of_the_first_bad_spin():
    """A coupling that rounds to zero is refused with the bath's own message,
    naming the spin, by the stacked draw as by generate_random."""
    law = UniformPositive(5e-324)  # g_max * (1 - v) rounds to 0 for v > 1/2
    with pytest.raises(InvalidParameterError) as stacked:
        random_spin_arrays(8, [1, 2, 3], law)
    with pytest.raises(InvalidParameterError) as single:
        generate_random(8, 1, law)
    want = "spin 1: coupling g must be finite and nonzero, got 0.0"
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
