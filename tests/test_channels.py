import json
import math
import re
from dataclasses import replace
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import spamsim as sp
from spamsim.channels import _build_model, decay_probability, pulse_success_probability
from spamsim.detection import count_pmf


def pulse(rate=0.04, t_pi=25e-6):
    return sp.TransferPulse(sp.A_2_0, sp.B_1_M1, error_rate=rate, t_pi=t_pi)


def test_pulse_validation():
    with pytest.raises(ValueError):
        sp.TransferPulse(sp.A_2_0, sp.B_1_M1, error_rate=-0.1, t_pi=25e-6)
    with pytest.raises(ValueError):
        sp.TransferPulse(sp.A_2_0, sp.B_1_M1, error_rate=1.5, t_pi=25e-6)
    with pytest.raises(ValueError):
        sp.TransferPulse(sp.A_2_0, sp.B_1_M1, error_rate=0.1, t_pi=0.0)
    with pytest.raises(ValueError):
        # same-manifold pair is not addressable
        sp.TransferPulse(sp.A_2_0, sp.A_1_0, error_rate=0.1, t_pi=25e-6)
    with pytest.raises(ValueError, match="^pulse must bridge the manifolds: a -> b$"):
        sp.TransferPulse("a", "b", 0.01, 1e-6)


def test_pulse_success_probability_endpoints():
    p = pulse(rate=0.04)
    assert pulse_success_probability(p.t_pi, p) == pytest.approx(0.96)
    assert pulse_success_probability(0.0, p) == 0.0


def test_pulse_success_partial_duration():
    # A detuned/short pulse transfers sin^2(pi*t / 2*t_pi) of the ideal amount.
    p = pulse(rate=0.04)
    for ratio in (0.3, 0.5, 0.8):
        expected = 0.96 * math.sin(math.pi * ratio / 2.0) ** 2
        assert pulse_success_probability(ratio * p.t_pi, p) == pytest.approx(expected)


@given(st.floats(0.0, 4.0), st.floats(0.0, 1.0))
def test_pulse_success_probability_is_probability(ratio, rate):
    p = pulse(rate=rate)
    value = pulse_success_probability(ratio * p.t_pi, p)
    assert 0.0 <= value <= 1.0


def test_decay_probability():
    decay = sp.DecayChannel(lifetime=27.2)
    assert decay_probability(0.0, decay) == 0.0
    assert decay_probability(27.2, decay) == pytest.approx(1.0 - math.exp(-1.0))
    # Short-time expansion: p ~ t / tau.
    assert decay_probability(4.586e-4, decay) == pytest.approx(4.586e-4 / 27.2, rel=1e-4)


def test_decay_disabled_means_never():
    decay = sp.DecayChannel(lifetime=math.inf)
    assert decay.disabled
    assert decay_probability(100.0, decay) == 0.0
    with pytest.raises(ValueError):
        sp.DecayChannel(lifetime=0.0)


@pytest.mark.parametrize("duration", [-1e-6, math.nan])
def test_negative_or_nan_durations_are_rejected(duration):
    with pytest.raises(ValueError, match="duration must be finite and non-negative"):
        decay_probability(duration, sp.DecayChannel(lifetime=27.2))
    with pytest.raises(ValueError, match="duration must be finite and non-negative"):
        pulse_success_probability(duration, pulse(rate=0.04))


def test_infinite_pulse_duration_is_rejected_by_name(model):
    # sin(inf) has no value; the error names the duration instead of dying
    # in math.sin with "math domain error".
    with pytest.raises(ValueError, match="duration must be finite and non-negative, got inf"):
        pulse_success_probability(math.inf, pulse(rate=0.04))
    # An override is judged when its config is built, and the error names its transfer.
    with pytest.raises(ValueError, match="transfer duration for B:F=2,mF=-1 -> A:F=2,mF=0 "
                                         "must be finite and non-negative, got inf"):
        sp.ExperimentConfig(model=model, shots=100,
                            transfer_durations=(((sp.B_2_M1, sp.A_2_0), math.inf),))


def test_default_model_parameters(model):
    assert model.pump.target == sp.A_2_0
    assert model.pump.error_rate == pytest.approx(0.008)
    assert model.pump.duration == pytest.approx(20e-6)
    assert model.decay.lifetime == pytest.approx(27.2)
    assert model.cooling_duration == pytest.approx(1e-3)
    assert model.loss_probability_per_shot == 0.0
    assert model.detection.threshold == 161
    assert model.detection.total_duration == pytest.approx(458.6e-6)
    rates = sorted(p.error_rate for p in model.pulses)
    assert rates == pytest.approx([0.0098, 0.0111, 0.0138, 0.031, 0.0473])
    assert all(p.t_pi == pytest.approx(25e-6) for p in model.pulses)


def test_pulse_lookup_is_orientation_free(model):
    fwd = model.pulse_for(sp.B_2_M1, sp.A_2_0)
    rev = model.pulse_for(sp.A_2_0, sp.B_2_M1)
    assert fwd.error_rate == rev.error_rate == pytest.approx(0.0138)
    # The reversed orientation swaps the endpoints only.
    assert (fwd.from_state, fwd.to_state) == (sp.B_2_M1, sp.A_2_0)
    assert (rev.from_state, rev.to_state) == (sp.A_2_0, sp.B_2_M1)
    assert rev.t_pi == fwd.t_pi
    with pytest.raises(ValueError):
        model.pulse_for(sp.A_1_0, sp.B_2_P1)
    with pytest.raises(ValueError):
        model.pulse_for(sp.A_2_0, sp.A_1_0)
    with pytest.raises(ValueError, match="^no transition a -> b$"):
        model.pulse_for("a", "b")


@pytest.mark.parametrize("reverse", [False, True], ids=["same", "reversed"])
def test_config_rejects_a_second_pulse_for_one_transition(model, reverse):
    document = sp.model_to_config(model)
    first = document["pulses"][0]
    again = dict(first, error_rate=0.02)
    if reverse:
        again["from"], again["to"] = first["to"], first["from"]
    document["pulses"].append(again)
    with pytest.raises(sp.ConfigError,
                       match="duplicate pulse for transition A:F=2,mF=0 <-> B:F=2,mF=-1"):
        sp.model_from_config(document)


# Each block of the wrong type used to build, and the run then failed
# without a name (or the build failed inside the pulse loop).
@pytest.mark.parametrize("block, value, kind", [
    ("pump", None, "a PumpChannel"),
    ("decay", 27.2, "a DecayChannel"),  # a bare lifetime
    ("detection", {}, "a DetectionModel"),
    ("pulses", None, "a tuple of TransferPulse"),
    ("pulses", (None,), "a tuple of TransferPulse"),
], ids=["pump-none", "decay-lifetime", "detection-dict", "pulses-none", "pulses-of-none"])
def test_error_model_refuses_a_block_of_the_wrong_type_by_name(model, block, value, kind):
    with pytest.raises(ValueError, match=f"^{block} must be {kind}, got {re.escape(repr(value))}$"):
        replace(model, **{block: value})


def test_perfect_channels_keep_detection(model):
    ideal = model.with_perfect_channels()
    assert ideal.pump.error_rate == 0.0
    assert all(p.error_rate == 0.0 for p in ideal.pulses)
    assert ideal.decay.disabled
    assert ideal.loss_probability_per_shot == 0.0
    # Detection statistics are deliberately untouched.
    assert ideal.detection == model.detection
    # The original is not mutated.
    assert model.pump.error_rate == pytest.approx(0.008)


def test_config_round_trip(model):
    doc = sp.model_to_config(model)
    again = sp.model_from_config(doc)
    assert again == model
    assert sp.model_to_config(again) == doc


def test_pulse_order_is_accepted_as_single_only(model, tmp_path):
    # Older saved documents carry "order": "single" on every pulse; they load
    # to the same model as documents without it.  No other order is modelled.
    doc = sp.model_to_config(model)
    assert all("order" not in entry for entry in doc["pulses"])
    assert sp.model_from_config(doc) == model
    single = json.loads(json.dumps(doc))
    for entry in single["pulses"]:
        entry["order"] = "single"
    assert sp.model_from_config(single) == model
    path = tmp_path / "single.json"
    path.write_text(json.dumps(single))
    assert sp.load_error_model(str(path)) == model

    double = json.loads(json.dumps(single))
    double["pulses"][1]["order"] = "double"
    with pytest.raises(sp.ConfigError, match="'single' was expected"):
        sp.model_from_config(double)
    path.write_text(json.dumps(double))
    with pytest.raises(sp.ConfigError, match="'single' was expected"):
        sp.load_error_model(str(path))


def test_save_load_round_trip(model, tmp_path):
    path = tmp_path / "model.json"
    sp.save_error_model(model, str(path))
    assert sp.load_error_model(str(path)) == model


def test_save_model_without_decay_is_strict_json(model, tmp_path):
    # A disabled decay channel is written as null, not as the non-JSON Infinity.
    perfect = model.with_perfect_channels()
    path = tmp_path / "perfect.json"
    sp.save_error_model(perfect, str(path))

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    document = json.loads(path.read_text(), parse_constant=reject)
    assert document["decay"]["lifetime"] is None
    assert sp.load_error_model(str(path)) == perfect


def test_config_rejects_bad_documents(model):
    doc = sp.model_to_config(model)
    broken = dict(doc)
    del broken["pump"]
    with pytest.raises(sp.ConfigError):
        sp.model_from_config(broken)

    bad_state = sp.model_to_config(model)
    bad_state["pump"] = dict(bad_state["pump"], target="A:F=9,mF=0")
    with pytest.raises(sp.ConfigError):
        sp.model_from_config(bad_state)

    bad_rate = sp.model_to_config(model)
    bad_rate["pulses"][0] = dict(bad_rate["pulses"][0], error_rate=1.7)
    with pytest.raises(sp.ConfigError):
        sp.model_from_config(bad_rate)

    # json reads NaN and Infinity; the model checks reject them, so such a
    # config fails as it loads, with or without the schema, not mid-run.
    for path, value in [
        ("detection.mean_bright", math.nan), ("detection.mean_bright", math.inf),
        ("detection.mean_dark", math.nan), ("detection.mean_dark", math.inf),
        ("detection.read_noise_sigma", math.nan), ("detection.read_noise_sigma", math.inf),
        ("detection.total_duration", math.nan), ("detection.total_duration", math.inf),
        ("pump.duration", math.nan), ("pump.duration", math.inf),
        ("durations.cooling", math.nan), ("durations.cooling", math.inf),
        ("pulses.0.t_pi", math.nan), ("pulses.0.t_pi", math.inf),
    ]:
        document = _document_with(model, path, value)
        with pytest.raises(sp.ConfigError):
            sp.model_from_config(document)
        with pytest.raises(sp.ConfigError):
            _build_model(document)


def _document_with(model, path, value):
    """``model``'s config document with ``value`` at the dotted ``path``, as
    Python's ``json`` reads it back (``NaN`` and ``Infinity`` included)."""
    document = sp.model_to_config(model)
    *parents, last = [int(key) if key.isdigit() else key for key in path.split(".")]
    entry = document
    for key in parents:
        entry = entry[key]
    entry[last] = value
    return json.loads(json.dumps(document))


def test_model_requires_pump_target_in_ground():
    with pytest.raises(ValueError):
        sp.PumpChannel(target=sp.B_2_M1, error_rate=0.01, duration=20e-6)


# Each rule for a real argument: the values it refuses and the boundary values
# it accepts.  An acceptance is a probability that must also be > 0, and a
# lifetime is > 0 with inf meaning no decay.  The count rule, for the detection
# threshold, takes an int >= 0 only.
_RULES = {
    "probability": ([math.nan, math.inf, -1.0, 1.5, True], [0.0, 1.0]),
    "finite": ([math.nan, math.inf, -math.inf, True], [-1.0, 0.0]),
    "non-negative": ([math.nan, math.inf, -math.inf, -1.0, True], [0.0]),
    "positive": ([math.nan, math.inf, -math.inf, 0.0, -1.0, True], []),
    "acceptance": ([math.nan, math.inf, 0.0, -1.0, 2.0, True], [1.0]),
    "lifetime": ([math.nan, -math.inf, 0.0, -1.0, True], [math.inf]),
    "count": ([-1, 161.0, True], [0]),
}
_DRIVEN = (sp.B_2_M1, sp.A_2_0)  # a transfer that every M run drives


def _override(model, duration):
    return sp.run_experiment(sp.ExperimentConfig(model=model, shots=100,
                                                 transfer_durations=((_DRIVEN, duration),)))


# One row per public real-valued argument: its entry point, the call that
# takes it, its rule, and the name its refusal carries.
_REAL_ARGUMENTS = [
    ("TransferPulse.error_rate", lambda m, v: replace(m.pulses[0], error_rate=v),
     "probability", "error_rate"),
    ("TransferPulse.t_pi", lambda m, v: replace(m.pulses[0], t_pi=v), "positive", "t_pi"),
    ("PumpChannel.error_rate", lambda m, v: replace(m.pump, error_rate=v),
     "probability", "error_rate"),
    ("PumpChannel.duration", lambda m, v: replace(m.pump, duration=v),
     "non-negative", "duration"),
    ("DecayChannel.lifetime", lambda m, v: sp.DecayChannel(v), "lifetime", "lifetime"),
    ("ErrorModel.cooling_duration", lambda m, v: replace(m, cooling_duration=v),
     "non-negative", "cooling_duration"),
    ("ErrorModel.loss_probability_per_shot",
     lambda m, v: replace(m, loss_probability_per_shot=v),
     "probability", "loss_probability_per_shot"),
    ("DetectionModel.mean_bright", lambda m, v: replace(m.detection, mean_bright=v),
     "non-negative", "mean_bright"),
    ("DetectionModel.mean_dark", lambda m, v: replace(m.detection, mean_dark=v),
     "non-negative", "mean_dark"),
    ("DetectionModel.read_noise_sigma", lambda m, v: replace(m.detection, read_noise_sigma=v),
     "non-negative", "read_noise_sigma"),
    ("DetectionModel.total_duration", lambda m, v: replace(m.detection, total_duration=v),
     "positive", "total_duration"),
    ("decay_probability.duration", lambda m, v: decay_probability(v, m.decay),
     "non-negative", "duration"),
    ("pulse_success_probability.duration",
     lambda m, v: pulse_success_probability(v, m.pulses[0]), "non-negative", "duration"),
    ("count_pmf.mean", lambda m, v: count_pmf(v, m.detection), "non-negative", "mean"),
    ("wilson_interval.z", lambda m, v: sp.wilson_interval(1, 10, v), "positive", "z"),
    ("detection_error_budget.bright_error",
     lambda m, v: sp.detection_error_budget(v, 0.0, 0.0), "probability", "bright_error"),
    ("detection_error_budget.dark_optical_error",
     lambda m, v: sp.detection_error_budget(0.0, v, 0.0), "probability", "dark_optical_error"),
    ("detection_error_budget.decay_error",
     lambda m, v: sp.detection_error_budget(0.0, 0.0, v), "probability", "decay_error"),
    ("bias_closed_form.gamma", lambda m, v: sp.bias_closed_form(v, 0.5), "positive", "gamma"),
    ("bias_closed_form.p_zero", lambda m, v: sp.bias_closed_form(1.0, v),
     "probability", "p_zero"),
    ("correct_bias.p_bright_accepted", lambda m, v: sp.correct_bias(v, 0.5, 0.25),
     "probability", "p_bright_accepted"),
    ("correct_bias.p_bright_accepted_given_zero", lambda m, v: sp.correct_bias(0.5, v, 0.25),
     "probability", "p_bright_accepted_given_zero"),
    ("correct_bias.p_bright_accepted_given_one", lambda m, v: sp.correct_bias(0.5, 0.5, v),
     "probability", "p_bright_accepted_given_one"),
    ("correct_bias_simplified.p_bright_accepted",
     lambda m, v: sp.correct_bias_simplified(v, 0.5, 0.5, 0.5),
     "probability", "p_bright_accepted"),
    ("correct_bias_simplified.p_dark_accepted",
     lambda m, v: sp.correct_bias_simplified(0.5, v, 0.5, 0.5),
     "probability", "p_dark_accepted"),
    ("correct_bias_simplified.p_accept_given_zero",
     lambda m, v: sp.correct_bias_simplified(0.5, 0.5, v, 0.5),
     "acceptance", "p_accept_given_zero"),
    ("correct_bias_simplified.p_accept_given_one",
     lambda m, v: sp.correct_bias_simplified(0.5, 0.5, 0.5, v),
     "acceptance", "p_accept_given_one"),
    ("bias_scan.ratios",
     lambda m, v: sp.bias_scan(sp.bias_family("metastable-zero"), [v], 1_000),
     "positive", "duration ratio"),
    ("BiasFamily.acceptance", lambda m, v: sp.bias_family("optical-one").acceptance(v),
     "positive", "duration ratio"),
    ("BiasFamily.gamma", lambda m, v: sp.bias_family("metastable-zero").gamma(v),
     "positive", "duration ratio"),
    ("BiasFamily.predicted_bias", lambda m, v: sp.bias_family("ground-zero").predicted_bias(v),
     "positive", "duration ratio"),
    ("equal_density_crossing.mu_low", lambda m, v: sp.equal_density_crossing(v, 1.0, 5.0, 1.0),
     "finite", "mu_low"),
    ("equal_density_crossing.sigma_low",
     lambda m, v: sp.equal_density_crossing(0.0, v, 5.0, 1.0), "non-negative", "sigma_low"),
    ("equal_density_crossing.mu_high", lambda m, v: sp.equal_density_crossing(5.0, 1.0, v, 1.0),
     "finite", "mu_high"),
    ("equal_density_crossing.sigma_high",
     lambda m, v: sp.equal_density_crossing(0.0, 0.0, 5.0, v), "non-negative", "sigma_high"),
    # Each delay is the duration of a decay_probability call.
    ("sample_decay_events.delays",
     lambda m, v: sp.sample_decay_events([v], 10, 27.2, np.random.default_rng(0)),
     "non-negative", "duration"),
    # With no delay, only the lifetime check can refuse a bad lifetime.
    ("sample_decay_events.lifetime",
     lambda m, v: sp.sample_decay_events([], 10, v, np.random.default_rng(0)),
     "lifetime", "lifetime"),
    ("ExperimentConfig.transfer_durations", _override,
     "non-negative", f"transfer duration for {_DRIVEN[0]} -> {_DRIVEN[1]}"),
]


@pytest.mark.parametrize("call, rule, name", [pytest.param(*row[1:], id=row[0])
                                              for row in _REAL_ARGUMENTS])
def test_each_real_argument_is_held_to_its_rule(model, call, rule, name):
    refused, accepted = _RULES[rule]
    # Values that are not real numbers, refused before any comparison.  They
    # stay out of _RULES, whose values also go through JSON, where the schema
    # judges types.
    for value in (*refused, "1e-6", None, Decimal("0.5")):
        message = f"{re.escape(name)} must be .*, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            call(model, value)
    for value in accepted:
        call(model, value)


# One row per numeric config field: its dotted path in the document, its rule,
# and the name its refusal carries.  The schema checks each value's JSON type
# only, so the model's check is the one judge of every number.  A field of a
# block is named after its block, as blocks share field names.
_CONFIG_FIELDS = [
    ("pump.error_rate", "probability", "pump: error_rate"),
    ("pump.duration", "non-negative", "pump: duration"),
    ("pulses.0.error_rate", "probability", "pulses[0]: error_rate"),
    ("pulses.0.t_pi", "positive", "pulses[0]: t_pi"),
    ("decay.lifetime", "lifetime", "decay: lifetime"),
    ("detection.mean_bright", "non-negative", "detection: mean_bright"),
    ("detection.mean_dark", "non-negative", "detection: mean_dark"),
    ("detection.read_noise_sigma", "non-negative", "detection: read_noise_sigma"),
    ("detection.total_duration", "positive", "detection: total_duration"),
    ("detection.threshold", "count", "detection: threshold"),
    ("durations.cooling", "non-negative", "cooling_duration"),
    ("loss_probability_per_shot", "probability", "loss_probability_per_shot"),
]


@pytest.mark.parametrize("path, rule, name", [pytest.param(*row, id=row[0])
                                              for row in _CONFIG_FIELDS])
def test_each_config_value_is_judged_by_its_model_check(model, tmp_path, path, rule, name):
    refused, accepted = _RULES[rule]
    saved = tmp_path / "model.json"
    for value in refused:
        document = _document_with(model, path, value)
        # A JSON true is not a number: the schema refuses it by its type.
        message = ("True is not of type " if value is True
                   else f"{re.escape(name)} must be .*, got {re.escape(repr(value))}$")
        with pytest.raises(sp.ConfigError, match=f"^invalid configuration: {message}"):
            sp.model_from_config(document)
        saved.write_text(json.dumps(document))
        with pytest.raises(sp.ConfigError, match=f"^invalid configuration: {message}"):
            sp.load_error_model(str(saved))
    for value in accepted:
        document = _document_with(model, path, value)
        saved.write_text(json.dumps(document))
        assert sp.load_error_model(str(saved)) == sp.model_from_config(document)


def _at_lower_bounds(model):
    """Every value at the lower boundary of its rule; inf is the no-decay lifetime."""
    return replace(
        model,
        pump=replace(model.pump, error_rate=0.0, duration=0.0),
        pulses=tuple(replace(p, error_rate=0.0) for p in model.pulses),
        decay=sp.DecayChannel(math.inf),
        detection=replace(model.detection, mean_bright=0.0, mean_dark=0.0,
                          read_noise_sigma=0.0, threshold=0),
        cooling_duration=0.0,
        loss_probability_per_shot=0.0,
    )


def _at_certain_failure(model):
    """Every probability at 1."""
    return replace(
        model,
        pump=replace(model.pump, error_rate=1.0),
        pulses=tuple(replace(p, error_rate=1.0) for p in model.pulses),
        loss_probability_per_shot=1.0,
    )


@pytest.mark.parametrize("bound", [_at_lower_bounds, _at_certain_failure],
                         ids=["lower", "probabilities-one"])
def test_models_at_every_rule_boundary_survive_save_and_load(model, tmp_path, bound):
    boundary = bound(model)
    path = tmp_path / "boundary.json"
    sp.save_error_model(boundary, str(path))
    assert sp.load_error_model(str(path)) == boundary
    # And runs: the lower one with zero pump and cooling durations.
    sp.run_experiment(sp.ExperimentConfig(model=boundary, shots=100, seed=1))


def test_a_model_with_a_bool_rate_is_never_saved(model, tmp_path):
    # A bool would be saved as a JSON boolean, which load_error_model refuses.
    with pytest.raises(ValueError, match="loss_probability_per_shot must be a probability"):
        replace(model, loss_probability_per_shot=True)
    # The float it stands for saves and loads back as the same model.
    lossy = replace(model, loss_probability_per_shot=1.0)
    path = tmp_path / "lossy.json"
    sp.save_error_model(lossy, str(path))
    saved = json.loads(path.read_text())["loss_probability_per_shot"]
    assert type(saved) is float and saved == 1.0
    assert sp.load_error_model(str(path)) == lossy
