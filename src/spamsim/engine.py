"""Shot-by-shot execution of flagged SPAM sequences.

One interpreter runs every shot: a sequence is compiled into one op per step,
and the ops act on a chunk of shots at once.  :func:`run_experiment` splits
its batches into fixed-size chunks of :data:`CHUNK_SHOTS` shots; every chunk
draws from its own generator seeded by ``SeedSequence(master_seed,
spawn_key=(batch, chunk))``, so aggregate results are identical for any worker
count and chunks can be replayed in isolation.  With ``workers`` N the
calling thread runs chunks beside N - 1 helper threads that the run starts
and joins (:func:`_run_all`); one worker starts no thread.

:func:`_compile` binds a sequence to an :class:`ErrorModel` and the run's
transfer durations once, and nothing after it reads the model: the
interpreters get all they need from its output.

A ``Rotate`` step is one channel that Born-projects every qubit shot on the
spot, and that outcome is the shot's prepared value.  Built sequences apply no
second coherent operation after it, so projecting at once gives the same
outcome distribution as projecting at the first step that tells the two basis
states apart.

Each chunk keeps the set of labels its shots may be in, and one rule skips
draws: a channel draws only if its failure probability is above 0 and that
set holds a label its two maps send apart.  :func:`_skip` leaves the generator
exactly as the skipped draw would have, so every stream is unchanged.

A chunk runs the ops up to the R1 detection, then ``max_attempts - 1``
repeat-until-success retry rounds, then the remaining ops; post-selection is
the case with no retry round.  Each retry round gathers the shots whose R1
detection was bright into a compacted sub-chunk, re-runs the preparation ops
on it alone and scatters the results back, so a round draws random numbers
only for the shots that retry.  Every op acts on the whole (sub-)chunk it is
given.

Timing conventions: metastable population may decay across the duration of
every cooling, pumping, transfer and detection step.  Decay during a detection
window leaves partial fluorescence in that window's counts, in proportion to
the time spent on each side of the decay; decay anywhere else simply strands
the ion in ``WrongGround`` before the next step.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from typing import Sequence as SequenceType

import numpy as np

from .channels import ErrorModel, decay_probability, pulse_success_probability
from .detection import (
    CountHistogram, DetectionModel, _check_count, _check_nonnegative, classify, draw_counts,
    mean_counts,
)
from .sequence import (
    Cool,
    Deshelve,
    Detect,
    DetectLabel,
    Prepare,
    Pump,
    Rotate,
    Sequence,
    Transfer,
    _check_encoding,
    build_sequence,
)
from .states import LOST, WRONG_GROUND, Manifold, StateLabel

CHUNK_SHOTS = 16384


class Mode(enum.Enum):
    POST_SELECT = "post-select"
    REPEAT_UNTIL_SUCCESS = "rus"


class FlagReason(enum.Enum):
    NONE = "None"
    R0_DARK = "R0Dark"
    R1_BRIGHT = "R1Bright"
    R2_BRIGHT = "R2Bright"
    R3_R4_DARK = "R3R4Dark"
    R4_DARK = "R4Dark"  # only raised in strict mode
    R5_DARK = "R5Dark"


_REASON_CODES = tuple(FlagReason)

# The window whose read gives an unflagged shot's inferred value.
_READOUT = DetectLabel.R3

# Tally stage at which each reason first rejects a shot; accepted shots pass
# all five checks.  ``BatchTally.kept[k]`` counts shots whose stage is > k.
_FAIL_STAGE = {FlagReason.R0_DARK: 1, FlagReason.R1_BRIGHT: 2, FlagReason.R2_BRIGHT: 3,
               FlagReason.R3_R4_DARK: 4, FlagReason.R4_DARK: 4, FlagReason.R5_DARK: 5,
               FlagReason.NONE: 6}
_ACCEPTED = _FAIL_STAGE[FlagReason.NONE]


def evaluate_flags(
    outcomes: SequenceType[bool], strict: bool = False
) -> tuple[bool, FlagReason, int | None]:
    """Apply the flag rules to six detection outcomes (True = bright).

    Flag order: R0 dark, R1 bright, R2 bright, R3 and R4 both dark, R5 dark.
    In strict mode the pattern R3 bright with R4 dark is additionally flagged
    (the readout transfers form a closed loop, so a genuine zero fluoresces at
    both R3 and R4).  Unflagged shots infer Zero iff R3 was bright.
    Returns ``(flagged, reason, inferred)``.
    """
    if len(outcomes) != 6:
        raise ValueError(f"need exactly six outcomes R0..R5, got {len(outcomes)}")
    r0, r1, r2, r3, r4, r5 = (bool(o) for o in outcomes)
    if not r0:
        reason = FlagReason.R0_DARK
    elif r1:
        reason = FlagReason.R1_BRIGHT
    elif r2:
        reason = FlagReason.R2_BRIGHT
    elif not r3 and not r4:
        reason = FlagReason.R3_R4_DARK
    elif strict and r3 and not r4:
        reason = FlagReason.R4_DARK
    elif not r5:
        reason = FlagReason.R5_DARK
    else:
        return False, FlagReason.NONE, 0 if r3 else 1
    return True, reason, None


def _flag_table(strict: bool) -> np.ndarray:
    """Rows: reason code, fail stage, readout (0 iff R3 bright, flagged or not);
    columns: R0..R5 patterns (bit i = Ri)."""
    table = np.empty((3, 64), dtype=np.int8)
    for pattern in range(64):
        _, reason, _ = evaluate_flags([pattern >> i & 1 for i in range(6)], strict)
        table[:, pattern] = (_REASON_CODES.index(reason), _FAIL_STAGE[reason],
                             1 - (pattern >> _READOUT & 1))
    return table


_FLAG_TABLES = (_flag_table(False), _flag_table(True))  # indexed by strict


# =========================================================================
# Compiled sequences and the chunk runner
# =========================================================================

_WG = 0
_LOST = 1

# Prepared code of a shot before any Rotate; -1 means none.
_PREPARED_CODES = {Prepare.ZERO: 0, Prepare.ONE: 1, Prepare.SUPERPOSITION: -1}


@dataclass(eq=False)
class _Channel:
    """One population transfer, in the form :class:`_Compiled` states."""

    step: int  # op index; -1 for the per-shot loss before op 0
    event: str  # the failure, as rejection_contributions names it
    probability: float  # u < probability is success if tests_success, else failure
    to: list[int]  # the success map over label ids
    failed_to: list[int]  # the failure map over label ids
    tests_success: bool = False

    def __post_init__(self) -> None:
        # The maps are a few labels long: Python lists and sets beat numpy here.
        self.apart = frozenset(label for label, (to, failed_to)
                               in enumerate(zip(self.to, self.failed_to)) if to != failed_to)
        self.moved = frozenset(label for label, to in enumerate(self.to) if to != label)
        self.failure_probability = 1 - self.probability if self.tests_success else self.probability
        # The chunk runner's label tables; ``split`` marks the labels sent apart.
        self.success = np.array(self.to, dtype=np.int16)
        self.failure = np.array(self.failed_to, dtype=np.int16)
        self.split = self.success != self.failure


@dataclass(frozen=True)
class _Op:
    """One step: its channels in order, then a read or a Rotate's prepared values."""

    channels: tuple[_Channel, ...] = ()
    detect: int | None = None  # the R label a Detect step reads
    rotate: tuple[int, int] | None = None  # the (zero, one) label ids a Rotate splits


@dataclass
class _Compiled:
    """A sequence bound to a model: integer state labels plus one op per step.

    Every step compiles to channels (:class:`_Channel`), and a Detect or
    Rotate op names its window or its two labels.  A channel holds a
    probability and two maps over label ids, a success map ``to`` and a failure
    map ``failed_to``; a uniform draw per shot picks the branch, and a shot in
    label ``l`` goes to ``to[l]`` or to ``failed_to[l]``.  The channels are:

    * decay over a step's duration, first in its op (a detection window's
      too): the failure map sends B labels to ``WrongGround``;
    * pump: the success map sends fluorescing labels to the pump target, the
      failure map sends them to ``WrongGround``;
    * transfer: the success map sends ``from`` to ``to``, the failure map is
      the identity, and the draw tests ``u < p_success``;
    * deshelve: one map, the same on both branches, so it draws nothing;
    * Born projection (``Rotate``): the draw tests ``u < 1/2``, the exact
      weight, and the maps send the two ``rotate`` labels to zero and to one;
    * per-shot ion loss, first in op 0: the failure map sends
      ``WrongGround`` to ``Lost``.

    A decay or loss channel of probability 0 is left out.  Three readers
    interpret ``ops``; each has code of its own for ``detect``, and two for
    ``rotate``.  The chunk runner (:func:`_apply_op`) draws a branch for every
    shot of a chunk and records a Rotate's outcome as the prepared value;
    ``analytics._propagate`` splits each label's exact probability between
    the two maps; ``analytics.rejection_contributions`` follows the success
    maps (the ideal path), forks one point to the failure map of each channel
    that sends the ideal label apart, and refuses a Rotate.  ``detection``
    and ``lifetime`` carry the rest of the model that the interpreters use;
    nothing after :func:`_compile` reads the model itself.  ``fluor`` and
    ``mean_counts`` are per-label tables; ``mean_counts`` holds the Poisson
    mean of a whole window in each label, from
    :func:`~spamsim.detection.mean_counts`, so it is exactly ``mean_bright``
    for a fluorescing label and ``mean_dark`` for any other.
    """

    labels: list[StateLabel]
    fluor: np.ndarray
    ops: list[_Op]
    retry_at: int  # op index a repeat-until-success retry rewinds to
    prep_end: int  # op index of the R1 detection
    lifetime: float
    detection: DetectionModel
    mean_counts: np.ndarray  # float64 Poisson mean of a whole window, per label


def _compile(
    sequence: Sequence,
    model: ErrorModel,
    durations: dict[tuple[StateLabel, StateLabel], float] | None = None,
) -> _Compiled:
    """Bind ``sequence`` to ``model``.  A transfer drives for its oriented
    (from, to) pair's entry in ``durations`` if it has one, else for the
    pulse's pi-time: this is the one place an override binds."""
    durations = durations or {}
    ids = {WRONG_GROUND: _WG, LOST: _LOST}

    def intern(state: StateLabel) -> int:
        return ids.setdefault(state, len(ids))

    target_id = intern(model.pump.target)
    # Label ids of the levels a transfer (from, to) or a Rotate (zero, one) names: its fields.
    pairs = {index: tuple(map(intern, vars(step).values()))
             for index, step in enumerate(sequence.steps) if isinstance(step, (Transfer, Rotate))}

    labels = list(ids)
    fluor = np.array([label.fluoresces() for label in labels])
    identity = list(range(len(labels)))

    def relabel(sources: set[int], to: int) -> list[int]:
        return [to if label in sources else label for label in identity]

    bright = {label for label, state in enumerate(labels) if state.fluoresces()}
    strand = relabel({label for label, state in enumerate(labels)
                      if state.in_manifold(Manifold.B)}, _WG)

    def decay(index: int, duration: float) -> list[_Channel]:
        p = decay_probability(duration, model.decay)
        event = f"decay during step {index} ({type(sequence.steps[index]).__name__})"
        return [_Channel(index, event, p, identity, strand)] if p > 0 else []

    ops: list[_Op] = []
    channels = []
    if model.loss_probability_per_shot > 0:
        channels.append(_Channel(-1, "ion loss", model.loss_probability_per_shot,
                                 identity, relabel({_WG}, _LOST)))
    for index, step in enumerate(sequence.steps):
        detect = rotate = None
        if isinstance(step, Cool):
            channels += decay(index, model.cooling_duration)
        elif isinstance(step, Pump):
            channels += decay(index, model.pump.duration)
            channels.append(_Channel(index, "optical pumping failure", model.pump.error_rate,
                                     relabel(bright, target_id), relabel(bright, _WG)))
        elif isinstance(step, Transfer):
            pulse = model.pulse_for(step.from_state, step.to_state)
            duration = durations.get((step.from_state, step.to_state), pulse.t_pi)
            p_success = pulse_success_probability(duration, pulse)
            channels += decay(index, duration)
            source, target = pairs[index]
            channels.append(_Channel(
                index, f"transfer {step.from_state} -> {step.to_state} failure", p_success,
                relabel({source}, target), identity, True))
        elif isinstance(step, Detect):
            channels += decay(index, model.detection.total_duration)
            detect = int(step.label)
        elif isinstance(step, Deshelve):
            channels.append(_Channel(index, "deshelve", 0.0, strand, strand))
        elif isinstance(step, Rotate):
            rotate = zero, one = pairs[index]
            channels.append(_Channel(index, "Born projection", 0.5, relabel({zero, one}, zero),
                                     relabel({zero, one}, one), True))
        else:
            raise TypeError(f"unknown step type {type(step).__name__}")
        ops.append(_Op(tuple(channels), detect, rotate))
        channels = []

    return _Compiled(
        labels=labels,
        fluor=fluor,
        ops=ops,
        retry_at=sequence.retry_start,
        prep_end=sequence.prep_end,
        lifetime=model.decay.lifetime,
        detection=model.detection,
        mean_counts=mean_counts(fluor.astype(float), model.detection),
    )


@dataclass
class _ChunkState:
    """All per-shot arrays of one chunk, or of a sub-chunk gathered from one.

    ``pattern`` holds each shot's R0..R5 reads as one byte.  ``present``
    holds every label a shot may be in: a superset of the labels in
    ``state``, which the ops keep up to date.  A chunk holds its shots and
    nothing else: the detection counts go to :func:`_run_chunk`.
    """

    rng: np.random.Generator
    state: np.ndarray
    prepared: np.ndarray
    pattern: np.ndarray
    present: set[int]

    @classmethod
    def start(cls, size: int, rng: np.random.Generator, prepared_code: int) -> "_ChunkState":
        """A chunk of ``size`` shots, all in ``WrongGround`` before op 0."""
        return cls(
            rng=rng,
            state=np.full(size, _WG, dtype=np.int16),
            prepared=np.full(size, prepared_code, dtype=np.int8),
            pattern=np.zeros(size, dtype=np.uint8),
            present={_WG},
        )

    @property
    def size(self) -> int:
        return self.state.size

    def take(self, idx: np.ndarray) -> "_ChunkState":
        """Copy of the shots at ``idx``, with just their labels in its set, that
        draws from the same generator."""
        state = self.state[idx]
        # bincount, not np.unique, which loads numpy.ma on first use.
        present = set(np.flatnonzero(np.bincount(state)).tolist())
        return _ChunkState(self.rng, state, self.prepared[idx], self.pattern[idx], present)

    def put(self, idx: np.ndarray, sub: "_ChunkState") -> None:
        """Write a sub-chunk from :meth:`take` back to the shots at ``idx``."""
        self.state[idx] = sub.state
        self.prepared[idx] = sub.prepared
        self.pattern[idx] = sub.pattern
        self.present |= sub.present


def _skip(rng: np.random.Generator, n: int) -> None:
    """Leave ``rng`` in the state ``rng.random(n)`` would leave it in.

    A float64 from ``random`` takes exactly one 64-bit step of PCG64, so the
    generator jumps ahead ``n`` steps without making the draws.  Every chunk
    generator is a PCG64 that :func:`_run_chunk` creates, and no engine draw
    takes 32-bit values, so no buffered 32-bit value (which ``advance`` would
    drop) is ever pending.
    """
    rng.bit_generator.advance(n)


_NO_SHOTS = np.empty(0, dtype=np.intp)


def _apply_channel(chunk: _ChunkState, channel: _Channel) -> np.ndarray:
    """Send every shot through one channel; return the failed shots it moved.

    Every shot takes the success map, and the shots whose draw fails then
    take the failure map of their old label.  A channel whose two maps agree
    draws nothing.  The success map gathers the chunk only if
    ``chunk.present`` holds a label it moves.
    """
    state, present = chunk.state, chunk.present
    failed = to = _NO_SHOTS
    if channel.apart:
        if channel.failure_probability > 0 and not present.isdisjoint(channel.apart):
            u = chunk.rng.random(chunk.size)
            failed = np.flatnonzero(u >= channel.probability if channel.tests_success
                                    else u < channel.probability)
            labels = state.take(failed)
            apart = channel.split.take(labels)
            failed, to = failed[apart], channel.failure.take(labels[apart])
        else:
            _skip(chunk.rng, chunk.size)
    if not present.isdisjoint(channel.moved):
        state = chunk.state = channel.success.take(state)
    state[failed] = to
    chunk.present = {channel.to[label] for label in present}
    if failed.size:
        chunk.present.update(channel.failed_to[label] for label in present & channel.apart)
    return failed


def _value_counts(values: np.ndarray) -> tuple[int, np.ndarray]:
    """``(lowest value, counts)`` with ``counts[i]`` the frequency of lowest + i."""
    if values.size == 0:
        return 0, np.zeros(0, dtype=np.int64)
    low = int(values.min())
    return low, np.bincount(values - low)


def _apply_op(chunk: _ChunkState, compiled: _Compiled, op: _Op) -> np.ndarray | None:
    """Apply one compiled op to every shot of ``chunk``; return the counts a
    detect op drew, one per shot, and ``None`` for any other op.

    The op's channels go through :func:`_apply_channel` in order; then a
    Detect step reads, and a Rotate step records each qubit shot's label as
    its prepared value.  A channel draws only if its failure probability is
    above 0 and ``chunk.present`` holds a label its maps send apart.  Each
    channel maps ``present`` through its success map, adding the failure
    map's image of those labels if a shot failed, so ``present`` holds every
    occupied label on every pass, retry rounds included.  The detect op
    takes its Poisson mean from ``compiled.mean_counts``: per shot, rewritten
    where a shot decayed inside the window; else the one mean of the labels in
    ``present``, if they share one; else per shot.  It draws the counts with
    :func:`~spamsim.detection.draw_counts` and sets the window's bit of
    ``chunk.pattern``.
    """
    decayed = None
    for channel in op.channels:
        decayed = _apply_channel(chunk, channel)
    if op.detect is not None:
        det, table = compiled.detection, compiled.mean_counts
        if decayed is not None and decayed.size:
            # The decay channel's success map is the identity; a shot that
            # decayed inside the window fluoresced for part of it only.  The
            # instant is drawn for every shot to keep the stream fixed, but
            # only the decayed shots need it.
            mean = table.take(chunk.state)
            u = chunk.rng.random(chunk.size).take(decayed)
            p = op.channels[0].probability
            instant = np.minimum(-compiled.lifetime * np.log1p(-u * p), det.total_duration)
            mean[decayed] = mean_counts((det.total_duration - instant) / det.total_duration, det)
        else:
            if decayed is not None:
                _skip(chunk.rng, chunk.size)
            # One mean goes as a scalar: the same draws, with no broadcast.
            means = {table[label] for label in chunk.present}
            mean = means.pop() if len(means) == 1 else table.take(chunk.state)
        counts = draw_counts(mean, chunk.state.shape, det, chunk.rng)
        # A retry re-reads R1, so the op clears its bit before setting it.
        bit = np.uint8(1 << op.detect)
        chunk.pattern &= ~bit
        chunk.pattern |= classify(counts, det.threshold).view(np.uint8) * bit
        return counts
    if op.rotate is not None:  # a shot outside the qubit keeps its prepared value
        (zero, one), state = op.rotate, chunk.state
        np.copyto(chunk.prepared, state == one, where=(state == zero) | (state == one))
    return None


@dataclass
class _ChunkResult:
    """What one chunk contributes to a batch; chunks merge by addition.

    ``tally[prepared + 1, pattern]`` counts the shots of each prepared code
    (-1 for none) and R0..R5 pattern.  ``histograms`` holds one list of
    ``(lowest value, counts)`` parts for each window R0..R5 and then one for
    the accepted shots' R3; a window's parts add up to its histogram.
    """

    tally: np.ndarray
    attempts_total: int
    attempts_max: int
    histograms: list[list[tuple[int, np.ndarray]]] | None
    records: dict[str, np.ndarray] | None


# Per-shot record columns, each of shape (shots,).
_RECORD_KEYS = ("prepared", "pattern", "attempts")


def _run_chunk(
    compiled: _Compiled,
    size: int,
    seed_seq: np.random.SeedSequence,
    prepared_code: int,
    max_attempts: int,
    strict: bool,
    collect_histograms: bool,
    keep_records: bool,
) -> _ChunkResult:
    """Run one chunk of shots on its own generator and count what came out.

    Every tally of the batch is a function of each shot's prepared code and
    R0..R5 pattern, so the chunk returns just their 3x64 count matrix plus the
    attempt totals.  Raw-count histograms (R0..R5, then R3 of accepted shots)
    come as lists of ``(lowest value, counts)`` parts when
    ``collect_histograms`` is set, and per-shot columns (keyed by
    :data:`_RECORD_KEYS`, none of which depends on ``strict``) when
    ``keep_records`` is.  With ``max_attempts`` 1 no shot retries.

    Each read is histogrammed as its detect op returns, and only R3's counts
    are kept, for the accepted shots' histogram.  A retry repeats R1 alone
    (:attr:`~spamsim.sequence.Sequence.retry_start`), and only a shot's last
    read counts: each retry round first zeroes the bright bins of the R1 part
    just read, and the R1 part read last stays whole.
    """
    rng = np.random.default_rng(seed_seq)
    chunk = _ChunkState.start(size, rng, prepared_code)
    attempts = np.ones(size, dtype=np.int32)
    parts: list[list[tuple[int, np.ndarray]]] = [[] for _ in DetectLabel]
    readout = None

    def run(shots: _ChunkState, ops: list[_Op]) -> None:
        nonlocal readout
        for op in ops:
            counts = _apply_op(shots, compiled, op)
            if counts is not None and collect_histograms:
                parts[op.detect].append(_value_counts(counts))
                if op.detect == _READOUT:
                    readout = counts

    ops, split = compiled.ops, compiled.prep_end + 1
    run(chunk, ops[:split])
    for _ in range(max_attempts - 1):
        # Only the R1-bright shots retry, on a compacted sub-chunk.
        retry = np.flatnonzero(chunk.pattern & np.uint8(1 << DetectLabel.R1))
        if retry.size == 0:
            break
        if collect_histograms:
            # A shot retries iff its R1 count is above the threshold, so the
            # bins above it hold exactly the reads this round replaces.
            low, counts = parts[DetectLabel.R1][-1]
            counts[classify(np.arange(low, low + counts.size), compiled.detection.threshold)] = 0
        attempts[retry] += 1
        sub = chunk.take(retry)
        run(sub, ops[compiled.retry_at : split])
        chunk.put(retry, sub)
    run(chunk, ops[split:])

    tally = np.bincount(
        (chunk.prepared.astype(np.intp) + 1) * 64 + chunk.pattern, minlength=3 * 64
    ).reshape(3, 64)

    histograms = None
    if collect_histograms:
        _, stage, _ = _FLAG_TABLES[strict]
        accepted = stage.take(chunk.pattern) == _ACCEPTED
        histograms = parts + [[_value_counts(readout[accepted])]]

    records = None
    if keep_records:
        records = dict(zip(_RECORD_KEYS, (chunk.prepared, chunk.pattern, attempts)))

    return _ChunkResult(
        tally=tally,
        attempts_total=int(attempts.sum()),
        attempts_max=int(attempts.max()),
        histograms=histograms,
        records=records,
    )


# =========================================================================
# Batch experiments
# =========================================================================

@dataclass(frozen=True)
class ExperimentConfig:
    """One batch experiment: what to prepare, how often, and how to retry.

    ``shots`` counts shots per prepared state.  ``shots`` and ``max_attempts``
    must be ``int``s >= 1 and ``seed`` an ``int`` >= 0: not a bool, a float or
    a numpy integer.  ``prepare`` sets the :attr:`batches`: None (the
    default) runs both basis states, a :class:`Prepare` value that state alone.
    ``transfer_durations`` overrides the duration of specific pulses, keyed by
    oriented (from, to) state pairs; the bias scans use this to detune single
    transfers away from their calibrated length.  It is a tuple, since a list
    could change after it was judged; the overrides bind in :func:`_compile`.

    Every field is judged when the config is built.  Besides the rules above,
    ``model`` must be an :class:`ErrorModel`, and each override an entry
    ``((StateLabel, StateLabel), duration)`` whose pair is given once and
    driven by a transfer of one of the run's :attr:`batches`, with a finite
    duration >= 0.

    Random streams depend on ``seed``, the batch index and the chunk index
    only.  Two configurations run at one seed therefore draw the same numbers
    wherever their op lists agree (the shared cooling and pumping prefix, for
    instance), and their results are correlated; use different seeds for
    independent comparisons.
    """

    model: ErrorModel
    encoding: str = "M"
    shots: int = 1_000_000
    mode: Mode = Mode.POST_SELECT
    max_attempts: int = 1
    seed: int = 0
    prepare: Prepare | None = None
    strict_flags: bool = False
    transfer_durations: tuple[tuple[tuple[StateLabel, StateLabel], float], ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.model, ErrorModel):
            raise ValueError(f"model must be an ErrorModel, got {self.model!r}")
        _check_encoding(self.encoding)
        _check_count("shots", self.shots, 1)
        _check_count("seed", self.seed, 0)
        if self.prepare is not None and not isinstance(self.prepare, Prepare):
            raise ValueError(f"prepare must be None or a Prepare, got {self.prepare!r}")
        if not isinstance(self.mode, Mode):
            raise ValueError(f"mode must be a Mode, got {self.mode!r}")
        if not isinstance(self.strict_flags, bool):
            raise ValueError(f"strict_flags must be a bool, got {self.strict_flags!r}")
        _check_count("max_attempts", self.max_attempts, 1)
        if self.mode is Mode.POST_SELECT and self.max_attempts != 1:
            raise ValueError("max_attempts only applies to repeat-until-success mode")
        if not isinstance(self.transfer_durations, tuple):
            raise ValueError(f"transfer_durations must be a tuple, got {self.transfer_durations!r}")
        driven = {(step.from_state, step.to_state) for prepare in self.batches
                  for step in build_sequence(self.encoding, prepare).steps
                  if isinstance(step, Transfer)}
        pairs = set()
        for entry in self.transfer_durations:
            if not (isinstance(entry, tuple) and len(entry) == 2 and isinstance(entry[0], tuple)
                    and len(entry[0]) == 2 and all(isinstance(s, StateLabel) for s in entry[0])):
                raise ValueError("transfer_durations entries must be "
                                 f"((StateLabel, StateLabel), duration), got {entry!r}")
            pair, duration = entry
            name = f"transfer duration for {pair[0]} -> {pair[1]}"
            if pair in pairs:
                raise ValueError(f"{name} is given twice")
            if pair not in driven:
                raise ValueError(f"{name} matches no transfer of this run")
            _check_nonnegative(name, duration)
            pairs.add(pair)

    @property
    def batches(self) -> tuple[Prepare, ...]:
        """The states the run prepares, in batch order: zero then one, or ``prepare`` alone."""
        return (Prepare.ZERO, Prepare.ONE) if self.prepare is None else (self.prepare,)


@dataclass
class BatchTally:
    """Aggregated outcomes for all shots of one prepared state.

    ``prepared_zero`` and ``prepared_one`` count the shots prepared in each
    basis state: every shot of a zero or one batch, and for a superposition
    the ``Rotate`` outcomes of the shots that were in the qubit subspace at
    ``Rotate``.  ``wrong`` counts misreads against that prepared value.
    """

    shots: int
    kept: tuple[int, ...]
    wrong: tuple[int, ...]
    reasons: dict[str, int]
    accepted_zero: int
    accepted_one: int
    prepared_zero: int
    prepared_one: int
    attempts_total: int
    attempts_max: int

    @property
    def accepted(self) -> int:
        return self.kept[5]

    @property
    def rejected_fraction(self) -> float:
        return 1.0 - self.kept[5] / self.shots


@dataclass
class ExperimentResult:
    """Per-state tallies and histograms, and the per-shot records if kept:
    ``records[state]`` maps ``prepared`` (int8; -1 for a shot outside the qubit
    at ``Rotate``), ``pattern`` (uint8, bit i set iff Ri read bright) and
    ``attempts`` (int32) to one entry per shot.  A shot's flags are
    :func:`evaluate_flags` of its pattern's six bits."""

    config: ExperimentConfig
    states: dict[str, BatchTally]
    histograms: dict[str, CountHistogram] = field(default_factory=dict)
    accepted_r3: dict[str, CountHistogram] = field(default_factory=dict)
    records: dict[str, dict[str, np.ndarray]] | None = None


def _batch_tally(tally: np.ndarray, table: np.ndarray,
                 attempts_total: int, attempts_max: int) -> BatchTally:
    """Derive every count of a batch from its (prepared, pattern) tally."""
    reason, stage, inferred = table
    shots = tally.sum(axis=0)
    misread = tally[1] * (inferred != 0) + tally[2] * (inferred != 1)
    accepted = stage == _ACCEPTED
    return BatchTally(
        shots=int(shots.sum()),
        kept=tuple(int(shots[stage > k].sum()) for k in range(6)),
        wrong=tuple(int(misread[stage > k].sum()) for k in range(6)),
        reasons={r.value: int(shots[reason == code].sum())
                 for code, r in enumerate(_REASON_CODES)},
        accepted_zero=int(shots[accepted & (inferred == 0)].sum()),
        accepted_one=int(shots[accepted & (inferred == 1)].sum()),
        prepared_zero=int(tally[1].sum()),
        prepared_one=int(tally[2].sum()),
        attempts_total=attempts_total,
        attempts_max=attempts_max,
    )


def _merged_histogram(parts: list[tuple[int, np.ndarray]], label: str) -> CountHistogram | None:
    """Sum ``(lowest value, counts)`` parts over the union of their ranges."""
    parts = [(low, counts) for low, counts in parts if counts.size]
    if not parts:
        return None
    low = min(part_low for part_low, _ in parts)
    total = np.zeros(max(l + c.size for l, c in parts) - low, dtype=np.int64)
    for part_low, counts in parts:
        total[part_low - low : part_low - low + counts.size] += counts
    bins = np.flatnonzero(total)
    return CountHistogram(tuple((bins + low).tolist()), tuple(total[bins].tolist()), label)


def _run_all(execute, tasks: list, workers: int) -> list:
    """``[execute(task) for task in tasks]`` on ``workers`` threads in all.

    Every thread runs one loop: claim the lowest unclaimed task index under a
    lock, run it and store its result at that index.  The calling thread
    claims task 0 and then works beside ``min(workers, len(tasks)) - 1``
    helper threads, so one worker starts no thread.  Once a task raises, no
    thread claims another; after every helper has joined, the exception of
    the lowest failed index is raised.  Every lower index was claimed before
    it and has finished, so that is the first exception in task order.
    """
    results = [None] * len(tasks)
    failures: dict[int, BaseException] = {}
    pending = iter(range(len(tasks)))
    lock = threading.Lock()

    def claim() -> int | None:
        with lock:
            return None if failures else next(pending, None)

    def work(index: int | None) -> None:
        while index is not None:
            try:
                results[index] = execute(tasks[index])
            except BaseException as exc:  # re-raised by the calling thread
                with lock:
                    failures[index] = exc
            index = claim()

    first = claim()
    helpers = []
    try:
        for _ in range(min(workers, len(tasks)) - 1):
            helper = threading.Thread(target=lambda: work(claim()))
            helper.start()
            helpers.append(helper)
        work(first)
    finally:
        for helper in helpers:
            helper.join()
    if failures:
        raise failures[min(failures)]
    return results


def run_experiment(
    config: ExperimentConfig,
    *,
    workers: int = 1,
    collect_histograms: bool = True,
    keep_records: bool = False,
) -> ExperimentResult:
    """Run the configured batches and aggregate per-state tallies.

    The calling thread runs chunks beside ``workers - 1`` helper threads,
    all joined when the call returns or raises (:func:`_run_all`).
    Results are bitwise independent of ``workers``: work is split into fixed
    chunks whose generators derive from the seed, the batch index and the
    chunk index alone (see :class:`ExperimentConfig`), and chunk results merge
    in index order.  Chunks merge by adding their (prepared, R0..R5 pattern)
    count matrices and histogram arrays; each :class:`BatchTally` is then
    derived from the summed matrix and the flag table built from
    :func:`evaluate_flags`.

    Repeat-until-success retry rounds draw only for the retrying shots.  Raw
    detection counts are histogrammed only when ``collect_histograms`` is set,
    and per-shot records (:class:`ExperimentResult`) kept when
    ``keep_records`` is.
    """
    _check_count("workers", workers, 1)
    sizes = [min(CHUNK_SHOTS, config.shots - start)
             for start in range(0, config.shots, CHUNK_SHOTS)]
    durations = dict(config.transfer_durations)

    # Tasks are numbered batch by batch, chunk by chunk, and merge in that order.
    tasks = []
    for batch_index, prepare in enumerate(config.batches):
        compiled = _compile(build_sequence(config.encoding, prepare), config.model, durations)
        for chunk_index, size in enumerate(sizes):
            seed_seq = np.random.SeedSequence(
                entropy=config.seed, spawn_key=(batch_index, chunk_index)
            )
            tasks.append((compiled, size, seed_seq, _PREPARED_CODES[prepare]))

    def execute(task) -> _ChunkResult:
        compiled, size, seed_seq, code = task
        return _run_chunk(compiled, size, seed_seq, code, config.max_attempts,
                          config.strict_flags, collect_histograms, keep_records)

    outputs = _run_all(execute, tasks, workers)

    table = _FLAG_TABLES[config.strict_flags]
    states: dict[str, BatchTally] = {}
    accepted_r3: dict[str, CountHistogram] = {}
    records: dict[str, dict[str, np.ndarray]] = {}
    for batch_index, prepare in enumerate(config.batches):
        chunk_results = outputs[batch_index * len(sizes) : (batch_index + 1) * len(sizes)]
        name = prepare.value
        states[name] = _batch_tally(
            sum(r.tally for r in chunk_results), table,
            attempts_total=sum(r.attempts_total for r in chunk_results),
            attempts_max=max(r.attempts_max for r in chunk_results),
        )
        if collect_histograms:
            hist = _merged_histogram(
                [part for r in chunk_results for part in r.histograms[6]],
                f"R3|prepared={name},accepted",
            )
            if hist is not None:
                accepted_r3[name] = hist
        if keep_records:
            records[name] = {key: np.concatenate([r.records[key] for r in chunk_results])
                             for key in _RECORD_KEYS}

    histograms = {}
    if collect_histograms:
        for index in range(6):
            hist = _merged_histogram([part for r in outputs for part in r.histograms[index]],
                                     f"R{index}")
            if hist is not None:
                histograms[f"R{index}"] = hist

    return ExperimentResult(
        config=config,
        states=states,
        histograms=histograms,
        accepted_r3=accepted_r3,
        records=records if keep_records else None,
    )
