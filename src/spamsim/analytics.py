"""Closed-form predictors and estimators for flagged SPAM experiments.

Wilson score intervals, rejection-fraction predictions, the per-detection
error budget, post-selection bias formulas and their inversions, metastable
lifetime fitting and the summary statistics of a batch run are deterministic
given their inputs.  :func:`bias_scan` (a Monte Carlo scan through the engine)
and :func:`sample_decay_events` draw from the seed or generator they are given.

The rejection predictions interpret the same compiled op list the engine
runs, with its channels in the form :class:`spamsim.engine._Compiled`
states: one forward propagation of exact probability over (state label x
R0..R5 pattern) gives the exact rejected fraction, and one walk of the ideal
path, which forks a point at each channel that can fail there, classifies
each first-order contribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .channels import (DecayChannel, ErrorModel, TransferPulse, decay_probability,
                       default_model, pulse_success_probability)
from .detection import (
    _check_count, _check_nonnegative, _check_positive, _check_probability, _gauss_newton,
)
from .engine import (
    _FLAG_TABLES,
    _REASON_CODES,
    _WG,
    ExperimentConfig,
    ExperimentResult,
    FlagReason,
    _Channel,
    _compile,
    _Compiled,
    run_experiment,
)
from .sequence import Prepare, Sequence
from .states import A_2_0, B_1_M1, B_2_M1, B_2_P1, StateLabel


# =========================================================================
# Binomial intervals
# =========================================================================

@dataclass(frozen=True)
class RateEstimate:
    """A binomial proportion with its Wilson score interval."""

    successes: int
    trials: int
    point: float
    interval: tuple[float, float]
    z: float

    @property
    def half_width(self) -> float:
        return 0.5 * (self.interval[1] - self.interval[0])


def wilson_interval(successes: int, trials: int, z: float = 1.0) -> RateEstimate:
    """Wilson score interval for ``successes`` out of ``trials`` at quantile ``z``.

    Center (p + z^2/2n) / (1 + z^2/n), half-width
    (z / (1 + z^2/n)) * sqrt(p(1-p)/n + z^2/4n^2), clamped to [0, 1], and
    exactly 0 at no successes and 1 at all, where rounding would miss them.
    ``trials`` must be an ``int`` >= 1 and ``successes`` an ``int`` in
    [0, trials]: not a bool, a float or a numpy integer.
    """
    _check_count("trials", trials, 1)
    _check_count("successes", successes, 0)
    if successes > trials:
        raise ValueError(f"successes must lie in [0, {trials}], got {successes}")
    _check_positive("z", z)
    p_hat = successes / trials
    scale = 1.0 + z * z / trials
    center = (p_hat + z * z / (2 * trials)) / scale
    half = (z / scale) * math.sqrt(p_hat * (1.0 - p_hat) / trials + z * z / (4 * trials * trials))
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return RateEstimate(successes, trials, p_hat, (lo, hi), z)


# =========================================================================
# Rejection-fraction prediction
# =========================================================================

@dataclass(frozen=True)
class RejectionContribution:
    """One failure event and whether its lone occurrence raises a flag."""

    step_index: int
    description: str
    probability: float
    raises_flag: bool
    flag_reason: FlagReason


def _propagate(compiled: _Compiled) -> np.ndarray:
    """Push probability over (state label x R0..R5 pattern) through the ops.

    Reads are noiseless: a label reads bright iff it fluoresces.  Every
    channel splits the mass of each label it sends apart between its success
    and failure maps by its failure probability, a Rotate's Born projection
    too (the matrix sums over its two outcomes).  The matrix holds
    :class:`~fractions.Fraction` objects and every rate enters as the
    rational value of its float, so no split or sum rounds.  Returns the
    final matrix.
    """
    from fractions import Fraction  # loads decimal, so not at import
    mass = np.zeros((len(compiled.labels), 64), dtype=object)
    mass[_WG, 0] = Fraction(1)
    for op in compiled.ops:
        for channel in op.channels:
            p = Fraction(channel.probability)
            fail = 1 - p if channel.tests_success else p
            before, mass = mass, np.zeros_like(mass)
            for label in np.flatnonzero(before.any(axis=1)):
                if label in channel.apart:
                    mass[channel.to[label]] += before[label] * (1 - fail)
                    mass[channel.failed_to[label]] += before[label] * fail
                else:
                    mass[channel.to[label]] += before[label]
        if op.detect is not None:
            # Axis 2 of this view is the op's R bit of the pattern index.
            view = mass.reshape(len(mass), -1, 2, 1 << op.detect)
            view[compiled.fluor, :, 1] += view[compiled.fluor, :, 0]
            view[compiled.fluor, :, 0] = 0
    return mass


def rejection_contributions(
    sequence: Sequence,
    model: ErrorModel,
    *,
    strict: bool = False,
    include_decay: bool = False,
) -> list[RejectionContribution]:
    """Classify every lone failure event by following it through the flags.

    On the ideal path every channel succeeds, so a shot sits at one (state
    label, R0..R5 pattern) point.  Each compiled channel that sends that
    label apart is one event: the per-shot ion loss, each pump and transfer
    failure, and with ``include_decay`` the decay of each step whose duration
    the ideal path spends in the metastable manifold.  The walk forks one
    point to the channel's failure map there, and every later channel sends
    each point through its success map, so each event ends on the pattern its
    lone failure reads.  A failed pump leaves ``WrongGround``, a failed
    transfer leaves the ion where it was, and a decay strands the ion in
    ``WrongGround`` at the start of its step, so a decay in a detection step
    reads bright for the whole window (the engine instead counts partial
    fluorescence).  Events whose lone failure leaves the shot unflagged
    appear with ``raises_flag=False`` (a transfer failure can self-correct
    when the same pulse is addressed again later).  A superposition is
    refused: its Born split is not a lone failure.
    """
    if not include_decay:
        model = replace(model, decay=DecayChannel(math.inf))
    compiled = _compile(sequence, model)
    fluor = compiled.fluor.tolist()
    events: list[_Channel] = []
    points = [(_WG, 0)]  # the ideal path, then one point per event in ``events``
    for op in compiled.ops:
        if op.rotate is not None:
            raise ValueError("rejection contributions need a basis-state preparation")
        for channel in op.channels:
            ideal, pattern = points[0]
            points = [(channel.to[label], bits) for label, bits in points]
            if ideal in channel.apart:
                events.append(channel)
                points.append((channel.failed_to[ideal], pattern))
        if op.detect is not None:
            points = [(label, bits | fluor[label] << op.detect) for label, bits in points]
    reasons = _FLAG_TABLES[strict][0]
    contributions = []
    for channel, (_, pattern) in zip(events, points[1:]):
        reason = _REASON_CODES[reasons[pattern]]
        contributions.append(RejectionContribution(
            channel.step, channel.event, channel.failure_probability,
            reason is not FlagReason.NONE, reason))
    return contributions


def predict_rejection(
    sequence: Sequence,
    model: ErrorModel,
    *,
    strict: bool = False,
    include_decay: bool = False,
) -> float:
    """First-order rejected fraction: the sum of all flagging lone-failure rates."""
    return first_order_rate(
        rejection_contributions(sequence, model, strict=strict, include_decay=include_decay)
    )


def first_order_rate(contributions: list[RejectionContribution]) -> float:
    """The ``math.fsum`` of the flagging rates in a contribution list."""
    return math.fsum(c.probability for c in contributions if c.raises_flag)


def predict_rejection_exact(
    sequence: Sequence,
    model: ErrorModel,
    *,
    strict: bool = False,
) -> float:
    """Exact rejected fraction under the channel model (no decay, no read noise).

    Propagates the probability of every (state label, R0..R5 pattern) pair
    through the compiled ops, compiled without decay, splitting it at every
    channel by its rate, and sums the final probability of the flagged
    patterns.  A superposition's Born projection is one more channel.
    The propagation runs in exact rational arithmetic and rounds once at the
    end, as :func:`predict_rejection` rounds its ``math.fsum`` once, so where
    the union bound ``exact <= first-order`` holds for the rates it also holds
    between the two returned floats.
    """
    compiled = _compile(sequence, replace(model, decay=DecayChannel(math.inf)))
    final = _propagate(compiled)
    return float(final[:, _FLAG_TABLES[strict][0] != 0].sum())


# =========================================================================
# Detection error budget
# =========================================================================

@dataclass(frozen=True)
class DetectionErrorBudget:
    bright_state_error: float
    dark_state_error: float
    average: float


def detection_error_budget(
    bright_error: float, dark_optical_error: float, decay_error: float
) -> DetectionErrorBudget:
    """Combine optical misclassification with in-window decay for one detection.

    The bright state is limited by its optical error alone; the dark state
    adds the decay probability times the chance the resulting fluorescence is
    actually read as bright.
    """
    _check_probability("bright_error", bright_error)
    _check_probability("dark_optical_error", dark_optical_error)
    _check_probability("decay_error", decay_error)
    dark_total = dark_optical_error + decay_error * (1.0 - bright_error)
    return DetectionErrorBudget(bright_error, dark_total, 0.5 * (bright_error + dark_total))


# =========================================================================
# Post-selection bias
# =========================================================================

def bias_closed_form(gamma: float, p_zero: float) -> float:
    """Observable bias <Z_meas> - <Z> for acceptance ratio gamma = P(a|0)/P(a|1) > 0."""
    _check_positive("gamma", gamma)
    _check_probability("p_zero", p_zero)
    p_one = 1.0 - p_zero
    return (gamma * p_zero - p_one) / (gamma * p_zero + p_one) - (p_zero - p_one)


def correct_bias(
    p_bright_accepted: float,
    p_bright_accepted_given_zero: float,
    p_bright_accepted_given_one: float,
) -> tuple[float, float, float]:
    """Invert the acceptance skew from joint bright-and-accepted probabilities.

    Given P(b,a) for the state under test and the calibrations P(b,a|0) and
    P(b,a|1) from preparing each basis state, returns (P(0), P(1), <Z>) with
    P(0) = (P(b,a) - P(b,a|1)) / (P(b,a|0) - P(b,a|1)) and P(1) = 1 - P(0).
    Every argument must be a probability.
    """
    _check_probability("p_bright_accepted", p_bright_accepted)
    _check_probability("p_bright_accepted_given_zero", p_bright_accepted_given_zero)
    _check_probability("p_bright_accepted_given_one", p_bright_accepted_given_one)
    denominator = p_bright_accepted_given_zero - p_bright_accepted_given_one
    if denominator == 0:
        raise ValueError("the two conditional probabilities must differ")
    p_zero = (p_bright_accepted - p_bright_accepted_given_one) / denominator
    z = (
        2.0 * p_bright_accepted
        - p_bright_accepted_given_one
        - p_bright_accepted_given_zero
    ) / denominator
    return p_zero, 1.0 - p_zero, z


def correct_bias_simplified(
    p_bright_accepted: float,
    p_dark_accepted: float,
    p_accept_given_zero: float,
    p_accept_given_one: float,
) -> tuple[float, float, float]:
    """Acceptance-only inversion, valid when in-window decay is negligible.

    P(0) = P(b,a)/P(a|0) and P(1) = P(d,a)/P(a|1); the joint probabilities
    factor as P(b|a)P(a) and P(d|a)P(a).  Every argument must be a
    probability, and the two acceptances > 0 too.
    """
    _check_probability("p_bright_accepted", p_bright_accepted)
    _check_probability("p_dark_accepted", p_dark_accepted)
    for name, acceptance in (("p_accept_given_zero", p_accept_given_zero),
                             ("p_accept_given_one", p_accept_given_one)):
        _check_positive(name, acceptance)
        _check_probability(name, acceptance)
    p_zero = p_bright_accepted / p_accept_given_zero
    p_one = p_dark_accepted / p_accept_given_one
    return p_zero, p_one, p_zero - p_one


@dataclass(frozen=True)
class BiasFamily:
    """One bias-scan curve: which pulses are detuned and which state suffers.

    Detuning the listed pulses to t = ratio * t_pi, a finite ratio > 0, makes
    the affected basis state's acceptance the product of their success
    probabilities as perfect pulses, sin^2(pi ratio / 2) each: sin^2 or sin^4.
    """

    name: str
    encoding: str
    scanned: tuple[tuple[StateLabel, StateLabel], ...]
    dipped_state: int

    def acceptance(self, ratio: float) -> float:
        _check_positive("duration ratio", ratio)
        return math.prod(pulse_success_probability(ratio, TransferPulse(a, b, 0.0, 1.0))
                         for a, b in self.scanned)

    def gamma(self, ratio: float) -> float:
        acceptance = self.acceptance(ratio)
        if acceptance == 0:
            raise ValueError(f"acceptance vanishes at t/t_pi = {ratio}")
        return acceptance if self.dipped_state == 0 else 1.0 / acceptance

    def predicted_bias(self, ratio: float) -> float:
        return bias_closed_form(self.gamma(ratio), 0.5)


BIAS_FAMILIES: tuple[BiasFamily, ...] = (
    BiasFamily("optical-zero", "O", ((B_2_M1, A_2_0),), 0),
    BiasFamily("optical-one", "O", ((A_2_0, B_1_M1), (B_1_M1, A_2_0)), 1),
    BiasFamily("metastable-zero", "M", ((B_2_M1, A_2_0),), 0),
    BiasFamily("ground-zero", "G", ((A_2_0, B_2_P1), (B_2_P1, A_2_0)), 0),
)


def bias_family(name: str) -> BiasFamily:
    for family in BIAS_FAMILIES:
        if family.name == name:
            return family
    known = ", ".join(f.name for f in BIAS_FAMILIES)
    raise ValueError(f"unknown bias family {name!r}; known: {known}")


@dataclass(frozen=True)
class BiasPoint:
    ratio: float
    duration: float
    gamma: float
    predicted: float
    measured: float
    std_error: float
    accepted: int
    shots: int


def bias_scan(
    family: BiasFamily,
    ratios: Iterable[float],
    shots: int,
    *,
    model: ErrorModel | None = None,
    seed: int = 0,
    workers: int = 1,
) -> list[BiasPoint]:
    """Measure the post-selection bias by simulation at each detuning ratio.

    Shots prepare an equal superposition, so the true <Z> is zero and the
    measured (N_bright - N_dark) / N_accepted is itself the bias.  The scan
    detunes only the family's pulses and zeroes every other error channel, so
    the closed form is the exact expectation of each point.
    """
    ratios = list(ratios)
    # The seed, the worker count and the whole grid are checked before any
    # point runs.
    _check_count("seed", seed, 0)
    _check_count("workers", workers, 1)
    for ratio in ratios:
        _check_positive("duration ratio", ratio)
    base = (model if model is not None else default_model()).with_perfect_channels()
    t_pi = base.pulse_for(*family.scanned[0]).t_pi
    points = []
    for index, ratio in enumerate(ratios):
        duration = ratio * t_pi
        point_seed = int(np.random.SeedSequence(entropy=[seed, index]).generate_state(1)[0])
        config = ExperimentConfig(
            model=base,
            encoding=family.encoding,
            shots=shots,
            seed=point_seed,
            prepare=Prepare.SUPERPOSITION,
            transfer_durations=tuple((pair, duration) for pair in family.scanned),
        )
        result = run_experiment(config, workers=workers, collect_histograms=False)
        tally = result.states[Prepare.SUPERPOSITION.value]
        accepted = tally.accepted
        if accepted == 0:
            raise ValueError(f"no shots accepted at t/t_pi = {ratio}")
        bright = tally.accepted_zero
        measured = (2.0 * bright - accepted) / accepted
        fraction = bright / accepted
        std_error = 2.0 * math.sqrt(fraction * (1.0 - fraction) / accepted)
        points.append(
            BiasPoint(
                ratio=ratio,
                duration=duration,
                gamma=family.gamma(ratio),
                predicted=family.predicted_bias(ratio),
                measured=measured,
                std_error=std_error,
                accepted=accepted,
                shots=shots,
            )
        )
    return points


# =========================================================================
# Lifetime fitting
# =========================================================================

@dataclass(frozen=True)
class LifetimeFit:
    lifetime: float
    std_error: float
    interval: tuple[float, float]
    delays: tuple[float, ...]
    fractions: tuple[float, ...]


def sample_decay_events(
    delays: Iterable[float],
    shots_per_delay: int,
    lifetime: float,
    rng: np.random.Generator,
) -> list[tuple[float, int, int]]:
    """Draw binned decayed-or-not counts at each delay for a known lifetime."""
    _check_count("shots_per_delay", shots_per_delay, 1)
    decay = DecayChannel(lifetime)
    rows = []
    for delay in delays:
        p = decay_probability(delay, decay)  # judges the delay before float() reads it
        rows.append((float(delay), int(rng.binomial(shots_per_delay, p)), shots_per_delay))
    return rows


def _decay_row(row: tuple) -> tuple[float, float, float]:
    """One observation as ``(delay, count, trials)``; a bad row raises ``ValueError``."""
    if len(row) not in (2, 3):
        raise ValueError(f"decay row {row!r}: need 2 or 3 fields, got {len(row)}")
    if len(row) == 2 and row[1] not in (0, 1):  # a per-shot row: one trial
        raise ValueError(f"decay row {row!r}: decayed must be 0 or 1")
    delay, count, trials = (float(value) for value in (*row, 1)[:3])
    try:
        _check_positive("delay", delay)
        _check_positive("trials", trials)
        _check_nonnegative("count", count)
        if count > trials:
            raise ValueError(f"count must not exceed trials, got {count!r}")
    except ValueError as exc:
        raise ValueError(f"decay row {row!r}: {exc}") from None
    return delay, count, trials


def fit_lifetime(samples: Iterable[tuple]) -> LifetimeFit:
    """Fit 1 - exp(-t/tau) to decay observations.

    Accepts per-shot rows ``(delay, decayed)`` with ``decayed`` 0 or 1, or
    binned rows ``(delay, decayed_count, trials)``.  Every row is checked
    before the fit: the delay and trials must be finite and > 0, and the
    count finite in [0, trials]; a bad row raises ``ValueError`` naming it.
    The fit is Gauss-Newton least squares, weighted by binomial errors where
    every bin has one; the interval is the two-sigma range from the fit
    covariance.  A fit with no finite lifetime and error raises ``ValueError``.
    """
    rows = np.array([_decay_row(row) for row in samples]).reshape(-1, 3)
    delays, bins = np.unique(rows[:, 0], return_inverse=True)
    if delays.size < 2:
        raise ValueError("need observations at two or more distinct delays")
    counts, trials = (np.bincount(bins, weights=rows[:, column]) for column in (1, 2))
    fractions = counts / trials
    if counts.sum() == 0 or (counts == trials).all():
        raise ValueError("lifetime is unidentifiable when no shot or every shot decayed")

    sigma = np.sqrt(fractions * (1.0 - fractions) / trials)
    weighted = bool((sigma > 0).all())  # else unit weights, covariance scaled by the residuals
    root_weights = 1.0 / sigma if weighted else np.ones_like(sigma)

    def decayed(params):  # weighted residuals of 1 - exp(-t / tau), and their Jacobian
        slope = -root_weights * np.exp(-delays / params[0]) * delays / params[0] ** 2
        return root_weights * (-np.expm1(-delays / params[0]) - fractions), slope[:, None]

    # Seed from the median of the interior bins' inversions; exact for clean data.
    interior = (fractions > 0) & (fractions < 1)
    guesses = -delays[interior] / np.log1p(-fractions[interior])
    initial = np.median(guesses) if guesses.size else delays.mean()
    fit = _gauss_newton(decayed, np.array([initial]), lambda params: params)
    with np.errstate(all="ignore"):
        residuals, jacobian = decayed(fit)
        scale = 1.0 if weighted else np.sum(residuals**2) / (delays.size - 1)
        lifetime, std_error = float(fit[0]), math.sqrt(scale / np.sum(jacobian**2))
    interval = (lifetime - 2.0 * std_error, lifetime + 2.0 * std_error)
    if not (lifetime > 0 and all(map(math.isfinite, (lifetime, std_error, *interval)))):
        raise ValueError("lifetime is unidentifiable from these rows: no finite fit and error")
    return LifetimeFit(lifetime, std_error, interval, tuple(delays.tolist()),
                       tuple(fractions.tolist()))


# =========================================================================
# Run summaries
# =========================================================================

STAGE_NAMES = ("raw", "R0", "R1", "R2", "R3R4", "R5")


def spam_summary(result: ExperimentResult, z: float = 1.0) -> dict:
    """Condense a run into cumulative per-flag retention and error statistics.

    Six stages apply the flag criteria cumulatively: raw (no criterion), then
    R0, R1, R2, the joint R3/R4 readout check, and R5.  Per prepared state the
    summary reports retention, the misinference rate among surviving shots
    with its Wilson interval at quantile ``z``, and flag-reason tallies; when
    both basis states ran, the two are averaged with half-widths combined in
    quadrature.
    """
    _check_positive("z", z)
    if not result.states:
        raise ValueError("no batches to summarize")
    config = result.config
    states_block: dict[str, dict] = {}
    estimates: dict[str, list[RateEstimate | None]] = {}
    for name, tally in result.states.items():
        if tally.shots == 0:
            raise ValueError(f"batch {name!r} has no shots")
        stages = estimates[name] = [wilson_interval(wrong, kept, z) if kept else None
                                    for kept, wrong in zip(tally.kept, tally.wrong)]
        states_block[name] = {
            "shots": tally.shots,
            "kept": list(tally.kept),
            "retention": [k / tally.shots for k in tally.kept],
            "rejected_fraction": tally.rejected_fraction,
            "wrong": list(tally.wrong),
            "error_rate": [None if e is None else e.point for e in stages],
            "error_interval": [None if e is None else list(e.interval) for e in stages],
            "flag_reasons": dict(tally.reasons),
            "accepted": tally.accepted,
            "accepted_zero": tally.accepted_zero,
            "accepted_one": tally.accepted_one,
            "attempts_mean": tally.attempts_total / tally.shots,
            "attempts_max": tally.attempts_max,
        }

    average_block = None
    if "zero" in estimates and "one" in estimates:
        rate_rows = []
        interval_rows = []
        for zero, one in zip(estimates["zero"], estimates["one"]):
            if zero is None or one is None:
                rate_rows.append(None)
                interval_rows.append(None)
                continue
            rate = 0.5 * (zero.point + one.point)
            half = 0.5 * math.hypot(zero.half_width, one.half_width)
            rate_rows.append(rate)
            interval_rows.append([max(0.0, rate - half), min(1.0, rate + half)])
        average_block = {"error_rate": rate_rows, "error_interval": interval_rows}

    return {
        "encoding": config.encoding,
        "mode": config.mode.value,
        "strict_flags": config.strict_flags,
        "seed": config.seed,
        "shots_per_state": config.shots,
        "z": z,
        "stages": list(STAGE_NAMES),
        "states": states_block,
        "average": average_block,
    }
