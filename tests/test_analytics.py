"""Closed-form layer: intervals, rejection predictions, bias, lifetime fits.

Frozen expectations and where they come from:

* Wilson interval at (5, 10, z=1.96): the standard quadratic solution
  (p + z^2/2n +- z sqrt(p(1-p)/n + z^2/4n^2)) / (1 + z^2/n) evaluated by hand,
  also recomputed symbol-by-symbol in the test.
* First-order rejection fractions: summing per-step failure probabilities
  along the ideal path with the configured channel rates (pump 0.8%, pulses
  1.38/4.73/3.10/1.11/0.98%).  Worked out independently per sequence, e.g. the
  metastable |1> path rejects on pump, the shelving pulse twice (once while
  preparing, once dark at R4 after a lone earlier failure)... the six sums
  below were tabulated by hand from the sequence listings before the
  implementation existed.
* Exact rejection fractions: a forward propagation of probability over
  every (state label, R0..R5 pattern) pair through the compiled ops, so every
  combination of step outcomes (success/failure) compounds as a shot-level
  simulator realizes it.  Frozen from an independent enumeration (a tree walk
  over those combinations); the values sit below the first-order sums by at
  most the pairwise product bound sum_{i<j} p_i p_j, on the default model and
  on drawn ones.

scipy is a test dependency only: ``curve_fit`` is the oracle that the
Gauss-Newton lifetime fit is held to.
"""

import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import curve_fit

import spamsim as sp
from spamsim.sequence import Prepare

WILSON_5_10_196 = (0.23658959361548731, 0.7634104063845126)

FIRST_ORDER = {
    ("O", "zero"): 0.0356,
    ("O", "one"): 0.1499,
    ("M", "zero"): 0.0356,
    ("M", "one"): 0.1026,
    ("G", "zero"): 0.0976,
    ("G", "one"): 0.0525,
}

EXACT = {
    ("O", "zero"): 0.03519028,
    ("O", "one"): 0.14019720,
    ("M", "zero"): 0.03519028,
    ("M", "one"): 0.09962381,
    ("G", "zero"): 0.09408130,
    ("G", "one"): 0.05141797,
}


def wilson_by_hand(successes, trials, z):
    p = successes / trials
    center = p + z * z / (2 * trials)
    spread = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    denom = 1 + z * z / trials
    return ((center - spread) / denom, (center + spread) / denom)


def test_wilson_frozen_value():
    est = sp.wilson_interval(5, 10, z=1.96)
    assert est.interval == pytest.approx(WILSON_5_10_196, abs=1e-12)
    assert est.interval == pytest.approx(wilson_by_hand(5, 10, 1.96), abs=1e-12)
    assert est.point == 0.5
    assert est.half_width == pytest.approx(
        (WILSON_5_10_196[1] - WILSON_5_10_196[0]) / 2.0, abs=1e-12
    )


def test_wilson_edge_cases():
    zero = sp.wilson_interval(0, 40)
    full = sp.wilson_interval(40, 40)
    assert zero.interval[0] == 0.0 and zero.interval[1] > 0.0
    assert full.interval[1] == 1.0 and full.interval[0] < 1.0
    # Exact edges where floating point leaves the two terms a hair apart.
    for z in (1.0, 1.96):
        for trials in (40, 2000, 10**7):
            assert sp.wilson_interval(0, trials, z).interval[0] == 0.0
            assert sp.wilson_interval(trials, trials, z).interval[1] == 1.0
    with pytest.raises(ValueError):
        sp.wilson_interval(1, 0)
    with pytest.raises(ValueError):
        sp.wilson_interval(5, 4)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_wilson_interval_rejects_bad_z(bad):
    with pytest.raises(ValueError, match="finite and > 0"):
        sp.wilson_interval(5, 10, z=bad)


@given(
    successes=st.integers(0, 500),
    trials=st.integers(1, 500),
    z=st.floats(0.1, 4.0),
)
def test_wilson_properties(successes, trials, z):
    if successes > trials:
        successes = trials
    est = sp.wilson_interval(successes, trials, z=z)
    low, high = est.interval
    assert 0.0 <= low <= high <= 1.0
    assert low - 1e-12 <= est.point <= high + 1e-12
    assert est.interval == pytest.approx(wilson_by_hand(successes, trials, z), abs=1e-12)


def test_wilson_narrows_with_more_trials():
    wide = sp.wilson_interval(5, 50)
    narrow = sp.wilson_interval(500, 5000)
    assert narrow.half_width < wide.half_width


def test_detection_error_budget_frozen():
    budget = sp.detection_error_budget(3.2e-6, 0.0, 1.4e-5)
    # (bright + dark + decay*(1-bright)) / 2 evaluated by hand.
    assert budget.bright_state_error == pytest.approx(3.2e-6)
    assert budget.dark_state_error == pytest.approx(1.4e-5 * (1.0 - 3.2e-6), rel=1e-12)
    assert budget.average == pytest.approx(8.5999776e-6, rel=1e-9)


def test_detection_error_budget_composition():
    budget = sp.detection_error_budget(1e-3, 2e-4, 5e-3)
    assert budget.dark_state_error == pytest.approx(2e-4 + 5e-3 * (1 - 1e-3))
    assert budget.average == pytest.approx(
        0.5 * (budget.bright_state_error + budget.dark_state_error)
    )


@pytest.mark.parametrize("encoding,state", sorted(FIRST_ORDER))
def test_first_order_rejection_frozen(model, encoding, state):
    seq = sp.build_sequence(encoding, Prepare(state))
    assert sp.predict_rejection(seq, model) == pytest.approx(FIRST_ORDER[encoding, state], abs=1e-12)


@pytest.mark.parametrize("encoding,state", sorted(EXACT))
def test_exact_rejection_frozen(model, encoding, state):
    seq = sp.build_sequence(encoding, Prepare(state))
    assert sp.predict_rejection_exact(seq, model) == pytest.approx(EXACT[encoding, state], abs=5e-8)


def assert_exact_below_first_order(seq, model, strict=False):
    # The union bound makes the first-order sum an upper limit; the deficit is
    # quadratic in the channel rates.  Benign failures count toward the
    # envelope because they reroute the path and change later flag exposure.
    first = sp.predict_rejection(seq, model, strict=strict)
    exact = sp.predict_rejection_exact(seq, model, strict=strict)
    rates = [c.probability for c in sp.rejection_contributions(seq, model, strict=strict)]
    assert exact <= first
    assert first - exact <= sum(rates) ** 2 + 1e-12


@pytest.mark.parametrize("encoding,state", sorted(EXACT))
def test_exact_sits_below_first_order_by_second_order_terms(model, encoding, state):
    seq = sp.build_sequence(encoding, Prepare(state))
    assert_exact_below_first_order(seq, model)


@settings(max_examples=200, deadline=None)
@given(
    encoding=st.sampled_from("OMG"),
    prepare=st.sampled_from([Prepare.ZERO, Prepare.ONE]),
    strict=st.booleans(),
    pump_error=st.floats(0.0, 0.1),
    pulse_errors=st.lists(st.floats(0.0, 0.1), min_size=5, max_size=5),
    loss=st.one_of(st.just(0.0), st.floats(0.0, 0.01)),
)
def test_exact_sits_below_first_order_on_drawn_models(
    model, encoding, prepare, strict, pump_error, pulse_errors, loss
):
    assert len(pulse_errors) == len(model.pulses)
    drawn = dataclasses.replace(
        model,
        pump=dataclasses.replace(model.pump, error_rate=pump_error),
        pulses=tuple(dataclasses.replace(pulse, error_rate=error)
                     for pulse, error in zip(model.pulses, pulse_errors)),
        loss_probability_per_shot=loss,
    )
    assert_exact_below_first_order(sp.build_sequence(encoding, prepare), drawn, strict)


@pytest.mark.parametrize("prepare,strict,pump_error,pulse_errors", [
    # The lone flagged failure is split again by a channel off the ideal path.
    (Prepare.ONE, False, 0.0, [0.068359375, 0.0, 0.06539556505733332, 0.0, 0.0]),
    # A subnormal pump rate vanishes from the first-order sum but not from the exact one.
    (Prepare.ONE, True, 5e-324, [0.1, 3.904579740202887e-14, 0.09530816921366024, 0.0, 0.0]),
])
def test_exact_sits_below_first_order_at_rounding_edges(
    model, prepare, strict, pump_error, pulse_errors
):
    drawn = dataclasses.replace(
        model,
        pump=dataclasses.replace(model.pump, error_rate=pump_error),
        pulses=tuple(dataclasses.replace(pulse, error_rate=error)
                     for pulse, error in zip(model.pulses, pulse_errors)),
        loss_probability_per_shot=0.0,
    )
    assert_exact_below_first_order(sp.build_sequence("G", prepare), drawn, strict)


@pytest.mark.parametrize("encoding", ["O", "M", "G"])
def test_rejection_prediction_rejects_superposition(model, encoding):
    # A Born split is not a lone failure, so the first-order walk refuses it;
    # the exact propagator takes it as one more channel.
    seq = sp.build_sequence(encoding, Prepare.SUPERPOSITION)
    with pytest.raises(ValueError, match="basis-state"):
        sp.rejection_contributions(seq, model, include_decay=True)


def test_rejection_contributions_structure(model):
    seq = sp.build_sequence("M", Prepare.ONE)
    rows = sp.rejection_contributions(seq, model)
    assert all(isinstance(r, sp.RejectionContribution) for r in rows)
    assert all(r.description for r in rows)
    flagged = [r for r in rows if r.raises_flag]
    assert sum(r.probability for r in flagged) == pytest.approx(0.1026, abs=1e-12)
    assert all(r.flag_reason is not sp.FlagReason.NONE for r in flagged)
    assert all(r.flag_reason is sp.FlagReason.NONE for r in rows if not r.raises_flag)
    # Benign failures (self-healing paths) are reported but not flagged: the
    # parking transfer of the optical |1> preparation heals at readout.
    optical = sp.rejection_contributions(sp.build_sequence("O", Prepare.ONE), model)
    benign = [r for r in optical if not r.raises_flag]
    assert len(benign) == 1
    assert benign[0].probability == pytest.approx(0.0473)


def test_rejection_contributions_include_loss(model):
    lossy = dataclasses.replace(model, loss_probability_per_shot=1e-4)
    rows = sp.rejection_contributions(sp.build_sequence("M", Prepare.ZERO), lossy)
    loss_rows = [r for r in rows if r.step_index == -1]
    assert len(loss_rows) == 1
    assert loss_rows[0].probability == pytest.approx(1e-4)
    assert loss_rows[0].raises_flag and loss_rows[0].flag_reason is sp.FlagReason.R0_DARK


def _contributions_digest(model, encoding):
    """sha256 over every event of zero and one x strict x include_decay."""
    digest = hashlib.sha256()
    for prepare in (Prepare.ZERO, Prepare.ONE):
        for strict in (False, True):
            for include_decay in (False, True):
                rows = sp.rejection_contributions(sp.build_sequence(encoding, prepare), model,
                                                  strict=strict, include_decay=include_decay)
                digest.update(f"{prepare.value}/{strict}/{include_decay}/{len(rows)}\n".encode())
                for r in rows:
                    digest.update(f"{r.step_index}|{r.description}|{float.hex(r.probability)}|"
                                  f"{r.raises_flag}|{r.flag_reason.value}\n".encode())
    return digest.hexdigest()


def _lossy(model):
    return dataclasses.replace(model, loss_probability_per_shot=1e-4)


# sha256 digests of the whole event list of rejection_contributions: step
# index, description, probability (bit for bit), flag and reason of every
# event.  They pin the analytic event list the way _PINNED_STREAMS in
# test_engine.py pins the random streams; a deliberate change to the events
# must update these pins and say so in CHANGES.md.
_PINNED_CONTRIBUTIONS = {
    "default-O": (
        lambda model: model, "O",
        "491b83debcfc1b66c40e2e66058b5faaa23549662756a1e8a15a9fe829071274",
    ),
    "default-M": (
        lambda model: model, "M",
        "62c5505c03de0a16f50761ce8ed84bec7eadd6e7f1e85d49697bd1f98ff43a93",
    ),
    "default-G": (
        lambda model: model, "G",
        "5977122e4af3ab700eda29529643b97f0cc0edc739863905d5744e8800f80ffe",
    ),
    "loss-O": (
        _lossy, "O",
        "d0a6d681ca84c435dd2292746ca685f94d8d1cdde75e78c8ddcc51ede17a68a8",
    ),
    "loss-M": (
        _lossy, "M",
        "a637ae00a59f451b3b3c16483422992e15df6b95241617ac18985c599e6e0328",
    ),
    "loss-G": (
        _lossy, "G",
        "a1aef4a92d2847f9b6861cdbfde06cae491b319611b4b3996b2427c61eeb649d",
    ),
}


@pytest.mark.parametrize("name", sorted(_PINNED_CONTRIBUTIONS))
def test_rejection_contributions_are_pinned(model, name):
    make_model, encoding, pinned = _PINNED_CONTRIBUTIONS[name]
    assert _contributions_digest(make_model(model), encoding) == pinned


def test_rejection_contributions_decay_mode(model):
    seq = sp.build_sequence("M", Prepare.ONE)
    without = sp.predict_rejection(seq, model)
    rows = sp.rejection_contributions(seq, model, include_decay=True)
    with_decay = sum(r.probability for r in rows if r.raises_flag)
    extra = with_decay - without
    # Decay adds roughly (dark dwell time)/tau, a few 1e-5 for this sequence.
    assert 1e-5 < extra < 2e-4


@pytest.mark.parametrize("call, message", [
    (lambda: sp.detection_error_budget(-0.1, 0.0, 0.0), "bright_error must be a probability"),
    (lambda: sp.detection_error_budget(0.0, 0.0, 1.5), "decay_error must be a probability"),
    (lambda: sp.bias_closed_form(0.0, 0.5), "gamma must be finite and > 0, got 0.0"),
    (lambda: sp.bias_closed_form(math.nan, 0.5), "gamma must be finite and > 0, got nan"),
    (lambda: sp.bias_closed_form(math.inf, 0.5), "gamma must be finite and > 0, got inf"),
    (lambda: sp.bias_closed_form(1.0, 1.5), "p_zero must be a probability, got 1.5"),
    (lambda: sp.correct_bias(0.5, 0.2, 0.2), "the two conditional probabilities must differ"),
    (lambda: sp.correct_bias(math.nan, 0.5, 0.25),
     "p_bright_accepted must be a probability, got nan"),
    (lambda: sp.correct_bias_simplified(0.1, 0.1, 0.0, 0.5),
     "p_accept_given_zero must be finite and > 0, got 0.0"),
    (lambda: sp.correct_bias_simplified(0.5, 0.5, 2.0, 0.5),
     "p_accept_given_zero must be a probability, got 2.0"),
    (lambda: sp.correct_bias_simplified(0.5, 0.5, math.inf, 0.5),
     "p_accept_given_zero must be finite and > 0, got inf"),
    (lambda: sp.bias_family("metastable-zero").gamma(1e-170),
     "acceptance vanishes at t/t_pi = 1e-170"),
    (lambda: sp.sample_decay_events([1.0], 0, 27.2, np.random.default_rng(0)),
     "shots_per_delay must be an integer >= 1, got 0"),
    (lambda: sp.sample_decay_events([1.0], 10.5, 27.2, np.random.default_rng(0)),
     r"shots_per_delay must be an integer >= 1, got 10\.5"),
    (lambda: sp.sample_decay_events([1.0], True, 27.2, np.random.default_rng(0)),
     "shots_per_delay must be an integer >= 1, got True"),
    (lambda: sp.sample_decay_events([1.0], 10, 0.0, np.random.default_rng(0)),
     "lifetime must be positive, got 0.0"),
    (lambda: sp.sample_decay_events([], 10, math.nan, np.random.default_rng(0)),
     "lifetime must be positive, got nan"),
    (lambda: sp.wilson_interval(1, 10.5), r"trials must be an integer >= 1, got 10\.5"),
    (lambda: sp.wilson_interval(1.5, 10), r"successes must be an integer >= 0, got 1\.5"),
], ids=["budget-bright", "budget-decay", "bias-gamma", "bias-gamma-nan", "bias-gamma-inf",
        "bias-p-zero", "correct-bias", "correct-bias-nan", "correct-bias-simplified",
        "correct-bias-simplified-above-one", "correct-bias-simplified-inf", "family-gamma",
        "decay-shots", "decay-shots-float", "decay-shots-bool", "decay-lifetime",
        "decay-lifetime-nan", "wilson-trials-float", "wilson-successes-float"])
def test_analytics_arguments_are_checked(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_bias_closed_form_basics():
    assert sp.bias_closed_form(1.0, 0.5) == 0.0
    assert sp.bias_closed_form(1.0, 0.73) == 0.0
    # gamma = 1/2 at p0 = 1/2: (0.25 - 0.5)/(0.25 + 0.5) = -1/3.
    assert sp.bias_closed_form(0.5, 0.5) == pytest.approx(-1.0 / 3.0)
    # Accepting |0> more often than |1> inflates the zero fraction.
    assert sp.bias_closed_form(2.0, 0.5) > 0.0


@given(
    gamma=st.floats(0.02, 50.0),
    p_zero=st.floats(0.01, 0.99),
)
def test_bias_closed_form_symmetry(gamma, p_zero):
    direct = sp.bias_closed_form(gamma, p_zero)
    mirrored = sp.bias_closed_form(1.0 / gamma, 1.0 - p_zero)
    assert direct == pytest.approx(-mirrored, abs=1e-10)
    assert -2.0 <= direct <= 2.0


def test_bias_families_acceptance_forms():
    s = math.sin(math.pi * 0.7 / 2.0) ** 2
    assert sp.bias_family("optical-zero").gamma(0.7) == pytest.approx(s)
    assert sp.bias_family("optical-one").gamma(0.7) == pytest.approx(1.0 / s**2)
    assert sp.bias_family("metastable-zero").gamma(0.7) == pytest.approx(s)
    assert sp.bias_family("ground-zero").gamma(0.7) == pytest.approx(s**2)
    for family in sp.BIAS_FAMILIES:
        assert family.gamma(1.0) == pytest.approx(1.0)
        assert family.predicted_bias(1.0) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        sp.bias_family("sideways")


def test_bias_family_signs():
    # Dipping the |0> acceptance depletes zeros; dipping |1> enriches them.
    assert sp.bias_family("optical-zero").predicted_bias(0.7) < 0.0
    assert sp.bias_family("metastable-zero").predicted_bias(0.7) < 0.0
    assert sp.bias_family("ground-zero").predicted_bias(0.7) < 0.0
    assert sp.bias_family("optical-one").predicted_bias(0.7) > 0.0


@pytest.mark.parametrize("family", sp.BIAS_FAMILIES, ids=lambda family: family.name)
def test_bias_closed_form_is_the_propagated_bias(model, family):
    # With perfect channels and noiseless reads the exact propagator gives
    # each scan point's accepted-bright and accepted-dark mass, and so the
    # bias that bias_scan samples; the closed form must be that value.
    perfect = model.with_perfect_channels()
    sequence = sp.build_sequence(family.encoding, Prepare.SUPERPOSITION)
    t_pi = perfect.pulse_for(*family.scanned[0]).t_pi
    _, stage, inferred = sp.engine._FLAG_TABLES[False]
    accepted = stage == sp.engine._ACCEPTED
    for ratio in (0.6, 0.7, 0.8, 0.9, 1.0):
        durations = {pair: ratio * t_pi for pair in family.scanned}
        compiled = sp.engine._compile(sequence, perfect, durations)
        pattern = sp.analytics._propagate(compiled).sum(axis=0)
        bright, dark = (pattern[accepted & (inferred == value)].sum() for value in (0, 1))
        exact = float((bright - dark) / (bright + dark))
        assert abs(exact - family.predicted_bias(ratio)) <= 1e-15, ratio


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -0.5])
def test_bias_scan_rejects_bad_ratios_before_running(monkeypatch, bad):
    def no_runs(*args, **kwargs):
        raise AssertionError("a point ran before the grid was checked")

    monkeypatch.setattr(sp.analytics, "run_experiment", no_runs)
    family = sp.bias_family("metastable-zero")
    # The bad ratio sits last, so the check must cover the whole grid first.
    with pytest.raises(ValueError, match="duration ratio must be finite and > 0") as excinfo:
        sp.analytics.bias_scan(family, iter([0.8, 1.0, bad]), 1_000)
    assert repr(bad) in str(excinfo.value)


@pytest.mark.parametrize("argument, value, minimum", [
    ("seed", -1, 0), ("seed", 1.5, 0), ("workers", 2.0, 1),
])
def test_bias_scan_checks_its_counts_before_running(monkeypatch, argument, value, minimum):
    def no_runs(*args, **kwargs):
        raise AssertionError(f"a point ran before {argument} was checked")

    monkeypatch.setattr(sp.analytics, "run_experiment", no_runs)
    message = re.escape(f"{argument} must be an integer >= {minimum}, got {value!r}")
    with pytest.raises(ValueError, match=message):
        sp.analytics.bias_scan(sp.bias_family("metastable-zero"), [0.8, 1.0], 1_000,
                               **{argument: value})


def test_correct_bias_round_trip():
    # Mix the two basis calibrations with known weights and invert.
    p0, p1 = 0.62, 0.38
    joint_given_zero, joint_given_one = 0.88, 0.03
    joint = p0 * joint_given_zero + p1 * joint_given_one
    corr0, corr1, z_value = sp.correct_bias(joint, joint_given_zero, joint_given_one)
    assert corr0 == pytest.approx(p0)
    assert corr1 == pytest.approx(p1)
    assert z_value == pytest.approx(p0 - p1)


def test_correct_bias_simplified_round_trip():
    # When the readout never misreads, the joint probabilities factor into
    # population times acceptance and the acceptance-only inversion is exact.
    p0, p1 = 0.3, 0.7
    accept_zero, accept_one = 0.8, 0.6
    corr0, corr1, z_value = sp.correct_bias_simplified(
        p0 * accept_zero, p1 * accept_one, accept_zero, accept_one
    )
    assert corr0 == pytest.approx(p0)
    assert corr1 == pytest.approx(p1)
    assert z_value == pytest.approx(p0 - p1)


def test_sample_decay_events_deterministic():
    rng_a = np.random.default_rng(42)
    rng_b = np.random.default_rng(42)
    a = sp.sample_decay_events([5.0, 10.0], 1000, 27.2, rng_a)
    b = sp.sample_decay_events([5.0, 10.0], 1000, 27.2, rng_b)
    assert a == b
    for delay, decayed, trials in a:
        assert trials == 1000
        assert 0 <= decayed <= trials


def test_fit_lifetime_noiseless():
    tau = 27.2
    delays = [2.0, 5.0, 10.0, 20.0, 40.0]
    samples = [
        (t, round(1_000_000 * -math.expm1(-t / tau)), 1_000_000)
        for t in delays
    ]
    fit = sp.fit_lifetime(samples)
    assert fit.lifetime == pytest.approx(tau, rel=1e-3)
    assert fit.interval[0] < tau < fit.interval[1]
    assert list(fit.delays) == delays


def test_fit_lifetime_monte_carlo():
    rng = np.random.default_rng(3)
    samples = sp.sample_decay_events([5.0, 10.0, 20.0, 30.0], 2500, 27.2, rng)
    fit = sp.fit_lifetime(samples)
    assert abs(fit.lifetime - 27.2) < 4.0 * fit.std_error


def test_fit_lifetime_input_validation():
    with pytest.raises(ValueError):
        sp.fit_lifetime([(5.0, 100, 1000)])  # single delay cannot constrain tau
    with pytest.raises(ValueError):
        sp.fit_lifetime([(5.0, 0, 1000), (10.0, 0, 1000)])  # nothing decayed
    with pytest.raises(ValueError):
        sp.fit_lifetime([(5.0, 1000, 1000), (10.0, 1000, 1000)])  # everything decayed
    with pytest.raises(ValueError):
        sp.fit_lifetime([])
    # Delays 600 decades apart leave no finite lifetime and error.
    with pytest.raises(ValueError, match="lifetime is unidentifiable from these rows"):
        sp.fit_lifetime(UNIDENTIFIABLE_ROWS)


UNIDENTIFIABLE_ROWS = [(1e-300, 999, 1000), (1e300, 1, 1000)]


def curve_fit_lifetime(samples):
    # Independent oracle: scipy's curve_fit on the same objective from the
    # same start, with binomial sigmas (absolute) where every bin has one.
    delays = sorted({float(row[0]) for row in samples})
    counts, trials = (np.array([sum(row[column] for row in samples if row[0] == t)
                                for t in delays], dtype=float) for column in (1, 2))
    delays = np.array(delays)
    fractions = counts / trials
    sigma = np.sqrt(fractions * (1.0 - fractions) / trials)
    weighted = bool((sigma > 0).all())
    interior = (fractions > 0) & (fractions < 1)
    start = np.median(-delays[interior] / np.log1p(-fractions[interior]))
    popt, pcov = curve_fit(lambda t, tau: -np.expm1(-t / tau), delays, fractions, p0=[start],
                           sigma=sigma if weighted else None, absolute_sigma=weighted,
                           maxfev=10_000)
    return popt[0], math.sqrt(pcov[0][0])


def _decay_inputs():
    tau = 27.2
    yield "noiseless", [(t, round(1_000_000 * -math.expm1(-t / tau)), 1_000_000)
                        for t in (2.0, 5.0, 10.0, 20.0, 40.0)]
    yield "monte-carlo", sp.sample_decay_events([5.0, 10.0, 20.0, 30.0], 2500, tau,
                                                np.random.default_rng(3))
    yield "command", sp.sample_decay_events([5.0, 10.0, 20.0, 30.0], 2000, tau,
                                            np.random.default_rng(12))
    yield "smoke-run", [(5, 167, 1000), (10, 308, 1000), (20, 521, 1000), (30, 668, 1000)]
    # Unweighted, with a covariance scaled by the residuals: the first bin has
    # no binomial error.
    yield "unweighted", [(0.01, 0, 1000), (5, 167, 1000), (10, 308, 1000), (20, 521, 1000)]
    # Three shots a delay: the first full Gauss-Newton step overshoots from
    # 57 s to 4 s and raises the squared error, so the fit needs halved steps.
    yield "few-shots", [(22.6, 1, 3), (24.0, 1, 3), (36.1, 3, 3), (40.2, 3, 3)]
    for repetition in range(50):  # the lifetime coverage criterion's fits
        yield f"coverage-{repetition}", sp.sample_decay_events(
            (5.0, 10.0, 20.0, 30.0), 2500, tau, np.random.default_rng(1000 + repetition))


def test_fit_lifetime_matches_curve_fit():
    # curve_fit's error comes from a finite-difference Jacobian at its own
    # stopping point, hence the looser bound on it.
    for name, samples in _decay_inputs():
        fit = sp.fit_lifetime(samples)
        lifetime, std_error = curve_fit_lifetime(samples)
        assert fit.lifetime == pytest.approx(lifetime, rel=1e-5, abs=0), name
        assert fit.std_error == pytest.approx(std_error, rel=1e-4, abs=0), name


def test_fit_lifetime_per_shot_rows_match_binned_rows():
    binned = [(5.0, 3, 10), (10.0, 4, 8), (20.0, 9, 12)]
    per_shot = [(delay, int(shot < decayed)) for delay, decayed, trials in binned
                for shot in range(trials)]
    np.random.default_rng(8).shuffle(per_shot)
    fit = sp.fit_lifetime(per_shot)
    assert fit == sp.fit_lifetime(binned)
    assert fit.fractions == (0.3, 0.5, 0.75)


@pytest.mark.parametrize("bad", [
    pytest.param((math.nan, 10, 100), id="nan-delay"),
    pytest.param((math.inf, 10, 100), id="inf-delay"),
    pytest.param((-1.0, 10, 100), id="negative-delay"),
    pytest.param((1.0, 10, 0), id="zero-trials"),
    pytest.param((1.0, 10, math.inf), id="inf-trials"),
    pytest.param((1.0, math.nan, 100), id="nan-count"),
    pytest.param((1.0, -1, 100), id="negative-count"),
    pytest.param((1.0, 150, 100), id="count-above-trials"),
    pytest.param((1.0, math.nan), id="nan-per-shot"),
    pytest.param((1.0, 2), id="per-shot-not-0-or-1"),
])
def test_fit_lifetime_rejects_bad_rows_before_fitting(bad):
    # The rows before the bad one are well formed, but a fit of them alone is
    # refused as unidentifiable; so an error that names the bad row shows that
    # every row was checked before the fit.
    with pytest.raises(ValueError, match="decay row") as excinfo:
        sp.fit_lifetime(UNIDENTIFIABLE_ROWS + [bad])
    assert repr(bad) in str(excinfo.value)


def test_spam_summary_shape(model):
    cfg = sp.ExperimentConfig(model=model, encoding="M", shots=5_000, seed=19)
    res = sp.run_experiment(cfg, workers=2)
    summary = sp.spam_summary(res, z=1.96)
    assert summary["stages"] == ["raw", "R0", "R1", "R2", "R3R4", "R5"]
    assert summary["encoding"] == "M"
    assert summary["z"] == 1.96
    assert set(summary["states"]) == {"zero", "one"}
    for block in summary["states"].values():
        assert block["shots"] == 5_000
        assert len(block["kept"]) == 6
        assert len(block["error_rate"]) == 6
        # Cumulative flags only ever shrink the surviving set.
        assert all(a >= b for a, b in zip(block["kept"], block["kept"][1:]))
        assert block["accepted"] == block["kept"][-1]
        assert block["accepted_zero"] + block["accepted_one"] == block["accepted"]
    average = summary["average"]
    assert average is not None
    final = average["error_rate"][-1]
    zero_err = summary["states"]["zero"]["error_rate"][-1]
    one_err = summary["states"]["one"]["error_rate"][-1]
    assert final == pytest.approx(0.5 * (zero_err + one_err))
    lo, hi = average["error_interval"][-1]
    assert lo <= final <= hi


def test_spam_summary_single_state_has_no_average(model):
    cfg = sp.ExperimentConfig(model=model, encoding="M", shots=1_000, seed=20,
                              prepare=Prepare.ZERO)
    res = sp.run_experiment(cfg, workers=1)
    summary = sp.spam_summary(res)
    assert set(summary["states"]) == {"zero"}
    assert summary["average"] is None


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_spam_summary_rejects_bad_z(model, bad):
    cfg = sp.ExperimentConfig(model=model, encoding="M", shots=200, seed=22)
    res = sp.run_experiment(cfg, workers=1)
    with pytest.raises(ValueError, match="finite and > 0"):
        sp.spam_summary(res, z=bad)


@pytest.mark.parametrize("edit, message", [
    (lambda states: {}, "no batches to summarize"),
    (lambda states: {**states, "one": dataclasses.replace(states["one"], shots=0)},
     "batch 'one' has no shots"),
], ids=["no-batches", "no-shots"])
def test_spam_summary_needs_shots_to_summarize(model, edit, message):
    cfg = sp.ExperimentConfig(model=model, encoding="M", shots=200, seed=22)
    res = sp.run_experiment(cfg, workers=1)
    with pytest.raises(ValueError, match=message):
        sp.spam_summary(dataclasses.replace(res, states=edit(res.states)))


def test_spam_summary_survives_empty_acceptance(model):
    import dataclasses
    lossy = dataclasses.replace(model, loss_probability_per_shot=1.0)
    cfg = sp.ExperimentConfig(model=lossy, encoding="M", shots=200, seed=21)
    res = sp.run_experiment(cfg, workers=1)
    summary = sp.spam_summary(res)
    for block in summary["states"].values():
        assert block["kept"][-1] == 0
        assert block["error_rate"][-1] is None
        assert block["error_interval"][-1] is None
    assert summary["average"]["error_rate"][-1] is None
