import dataclasses
import functools
import hashlib
import json
import math
import re
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import spamsim as sp
from spamsim import analytics, engine
from spamsim.sequence import Prepare, Pump, Rotate, Sequence


def run(model, encoding="M", shots=20_000, seed=0, workers=2, **kw):
    cfg = sp.ExperimentConfig(model=model, encoding=encoding, shots=shots, seed=seed, **kw)
    return sp.run_experiment(cfg, workers=workers, collect_histograms=False)


def test_perfect_channels_keep_every_shot(perfect):
    for encoding in ("O", "M", "G"):
        res = run(perfect, encoding=encoding, shots=4_096, seed=1)
        for name, tally in res.states.items():
            assert tally.kept == (tally.shots,) * 6
            assert tally.wrong == (0,) * 6
            assert tally.reasons["None"] == tally.shots
            assert all(count == 0 for reason, count in tally.reasons.items() if reason != "None")
            assert tally.attempts_max == 1
            want_zero = tally.shots if name == "zero" else 0
            assert tally.accepted_zero == want_zero
            assert tally.accepted_one == tally.shots - want_zero


def test_interleaved_runs_cover_both_states(model):
    res = run(model, shots=5_000, seed=2)
    assert list(res.states) == ["zero", "one"]
    assert all(t.shots == 5_000 for t in res.states.values())


def test_single_state_run(model):
    # A set prepare runs that state alone, as batch 0; the default runs zero
    # as batch 0, so a zero run alone draws the same stream as its zero half.
    results = {}
    for prepare in Prepare:
        cfg = sp.ExperimentConfig(model=model, encoding="O", shots=2_000, seed=3,
                                  prepare=prepare)
        results[prepare] = sp.run_experiment(cfg, workers=1)
        assert list(results[prepare].states) == [prepare.value]
    both = sp.run_experiment(dataclasses.replace(cfg, prepare=None), workers=1)
    assert both.states["zero"] == results[Prepare.ZERO].states["zero"]


def test_summary_is_worker_invariant(model):
    cfg = sp.ExperimentConfig(model=model, encoding="M", shots=60_000, seed=17)
    serial = sp.spam_summary(sp.run_experiment(cfg, workers=1))
    threaded = sp.spam_summary(sp.run_experiment(cfg, workers=8))
    assert json.dumps(serial, sort_keys=True) == json.dumps(threaded, sort_keys=True)


@pytest.mark.parametrize("mode, max_attempts", [
    (sp.Mode.POST_SELECT, 1),
    (sp.Mode.REPEAT_UNTIL_SUCCESS, 3),
])
def test_records_and_histograms_are_worker_invariant(model, mode, max_attempts):
    # Three chunks per batch, the last one partial, so batches and chunks
    # must be put back together in order whatever the workers' schedule.
    cfg = sp.ExperimentConfig(model=model, encoding="M", shots=2 * engine.CHUNK_SHOTS + 123,
                              seed=19, mode=mode, max_attempts=max_attempts)
    serial, threaded = (sp.run_experiment(cfg, workers=workers, keep_records=True)
                        for workers in (1, 3))
    assert serial.records.keys() == threaded.records.keys() == {"zero", "one"}
    for name, columns in serial.records.items():
        assert columns.keys() == threaded.records[name].keys()
        for key, column in columns.items():
            other = threaded.records[name][key]
            assert column.dtype == other.dtype, (name, key)
            assert column.shape[-1] == cfg.shots, (name, key)
            np.testing.assert_array_equal(column, other, err_msg=f"{name} {key}")
    assert serial.histograms == threaded.histograms
    assert serial.accepted_r3 == threaded.accepted_r3
    assert len(serial.histograms) == 6 and set(serial.accepted_r3) == {"zero", "one"}


# Two batches of three chunks: task indices 0-2 are batch 0, 3-5 batch 1.
_SIX_CHUNKS = 2 * engine.CHUNK_SHOTS + 1


def _patch_chunks(monkeypatch, failing, waits):
    """Make each chunk keyed ``(batch, chunk)`` in ``failing`` raise its
    exception; a chunk keyed in ``waits`` first waits (10 s at most) until the
    chunk it maps to has started.  Returns the name of the thread that ran
    each chunk, and a started event for every key named."""
    real = engine._run_chunk
    ran = {}
    started = {key: threading.Event() for key in (*failing, *waits, *waits.values())}

    def chunk(compiled, size, seed_seq, *rest):
        key = tuple(seed_seq.spawn_key)
        ran[key] = threading.current_thread().name
        if key in waits:
            started[waits[key]].wait(timeout=10)
        if key in started:
            started[key].set()
        if key in failing:
            raise failing[key]
        return real(compiled, size, seed_seq, *rest)

    monkeypatch.setattr(engine, "_run_chunk", chunk)
    return ran, started


def _six_chunk_run(model, workers):
    cfg = sp.ExperimentConfig(model=model, encoding="M", shots=_SIX_CHUNKS, seed=5)
    return sp.run_experiment(cfg, workers=workers, collect_histograms=False)


def test_a_chunk_that_raises_in_a_helper_surfaces_from_the_run(model, monkeypatch):
    # The calling thread holds chunk 0 until chunk 1 has started, so a helper
    # runs chunk 1.
    failure = RuntimeError("chunk (0, 1) failed")
    ran, started = _patch_chunks(monkeypatch, {(0, 1): failure}, waits={(0, 0): (0, 1)})
    with pytest.raises(RuntimeError) as raised:
        _six_chunk_run(model, workers=3)
    assert raised.value is failure
    assert started[(0, 1)].is_set()
    assert ran[(0, 0)] == threading.main_thread().name != ran[(0, 1)]


def test_the_lowest_failed_task_index_is_the_one_raised(model, monkeypatch):
    # Task 2 waits until task 3 has started, and task 3 fails at once; the
    # exception of task 2 surfaces all the same, as pool.map would raise it.
    low, high = RuntimeError("task 2"), RuntimeError("task 3")
    _, started = _patch_chunks(monkeypatch, {(0, 2): low, (1, 0): high},
                               waits={(0, 2): (1, 0)})
    with pytest.raises(RuntimeError) as raised:
        _six_chunk_run(model, workers=3)
    assert raised.value is low
    assert started[(1, 0)].is_set()


def test_no_task_is_claimed_after_one_has_failed():
    calls = []

    def execute(task):
        calls.append(task)
        if task == 1:
            raise KeyError(task)

    with pytest.raises(KeyError):
        engine._run_all(execute, [0, 1, 2, 3], workers=1)
    assert calls == [0, 1]


def test_no_thread_outlives_a_run(model, monkeypatch):
    before = set(threading.enumerate())
    _six_chunk_run(model, workers=3)
    assert set(threading.enumerate()) == before
    _patch_chunks(monkeypatch, {(0, 1): RuntimeError("chunk (0, 1) failed")}, waits={})
    with pytest.raises(RuntimeError, match=r"chunk \(0, 1\) failed"):
        _six_chunk_run(model, workers=3)
    assert set(threading.enumerate()) == before


@pytest.mark.parametrize("workers, shots, prepare, helpers", [
    (1, _SIX_CHUNKS, None, 0),  # one worker is the calling thread alone
    (8, 10, Prepare.ZERO, 0),  # one chunk in all
    (8, _SIX_CHUNKS, None, 5),  # no more threads than chunks
])
def test_the_calling_thread_works_beside_one_helper_fewer(model, monkeypatch, workers,
                                                          shots, prepare, helpers):
    started = []

    class Counting(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(engine.threading, "Thread", Counting)
    cfg = sp.ExperimentConfig(model=model, encoding="M", shots=shots, seed=5, prepare=prepare)
    sp.run_experiment(cfg, workers=workers, collect_histograms=False)
    assert len(started) == helpers


def test_every_task_runs_once_under_rapid_thread_switching():
    # More threads than cores and a switch every microsecond: a task claimed
    # twice, or a result stored at the wrong index, breaks the equalities.
    calls = []

    def execute(task):
        calls.append(task)
        return task * task

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = engine._run_all(execute, list(range(2000)), workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert results == [task * task for task in range(2000)]
    assert sorted(calls) == list(range(2000))


def test_different_seeds_differ(model):
    a = run(model, shots=30_000, seed=4)
    b = run(model, shots=30_000, seed=5)
    assert a.states["one"].kept != b.states["one"].kept


def test_histograms_cover_all_rounds(model):
    cfg = sp.ExperimentConfig(model=model, encoding="M", shots=3_000, seed=6)
    res = sp.run_experiment(cfg, workers=2, collect_histograms=True)
    assert set(res.histograms) == {"R0", "R1", "R2", "R3", "R4", "R5"}
    # Every shot of both states contributes one count value per round.
    assert all(h.total == 6_000 for h in res.histograms.values())
    assert set(res.accepted_r3) == {"zero", "one"}
    for name, tally in res.states.items():
        assert res.accepted_r3[name].total == tally.accepted
    # The survival check R0 sees a fluorescing ion in every shot.
    r0_mean = np.average(res.histograms["R0"].bin_lows, weights=res.histograms["R0"].frequencies)
    assert r0_mean == pytest.approx(model.detection.mean_bright, rel=0.02)


@pytest.mark.parametrize("rewind_in_b", [False, True], ids=["default", "rewind-in-b"])
@pytest.mark.parametrize("workers", [1, 2])
def test_rus_histograms_count_each_shot_once(model, workers, rewind_in_b):
    # A retry reads R1 again and only a shot's last read counts, so every
    # window's histogram holds one value per shot, and its mass above the
    # threshold is the number of shots whose final pattern reads it bright.
    if rewind_in_b:
        model = _rewind_in_b(model)
    cfg = sp.ExperimentConfig(model=model, encoding="O", shots=20_000, seed=8,
                              mode=sp.Mode.REPEAT_UNTIL_SUCCESS, max_attempts=3)
    res = sp.run_experiment(cfg, workers=workers, collect_histograms=True, keep_records=True)
    assert all(tally.attempts_max > 1 for tally in res.states.values())
    patterns = np.concatenate([columns["pattern"] for columns in res.records.values()])
    # Some shots run out of retries with R1 still bright (4 of the default
    # model's, 2279 of the rewind-in-B model's), so the last R1 read of a
    # chunk is histogrammed whole.
    assert np.count_nonzero(patterns & (1 << sp.DetectLabel.R1)) > 0
    threshold = model.detection.threshold
    for window in range(6):
        hist = res.histograms[f"R{window}"]
        assert hist.total == 2 * cfg.shots, window
        bright = sum(frequency for low, frequency in zip(hist.bin_lows, hist.frequencies)
                     if low > threshold)
        assert bright == np.count_nonzero(patterns & (1 << window)), window
    for name, tally in res.states.items():
        assert res.accepted_r3[name].total == tally.accepted


@pytest.mark.parametrize("encoding, prepare, max_attempts, bytes_per_shot", [
    # One 16384-shot M chunk with histograms peaked at about 1410 KB under
    # tracemalloc when it kept a 6 x shots int64 count matrix (786 KB), and at
    # about 714 KB keeping R3's row alone (numpy 2.4).  The bound, 64 bytes a
    # shot (1024 KB), is 43% above the second and 27% below the first.
    pytest.param("M", Prepare.ONE, 1, 64, id="M"),
    # One O chunk of 3 attempts peaked at about 842 KB when it kept R1's
    # counts too, which every retry sub-chunk copied, and at about 720 KB
    # keeping R3's alone.  The bound, 48 bytes a shot (768 KB), is 7% above
    # the second and 9% below the first.
    pytest.param("O", Prepare.ZERO, 3, 48, id="O-rus"),
])
def test_a_chunk_with_histograms_keeps_no_count_matrix(model, encoding, prepare, max_attempts,
                                                       bytes_per_shot):
    compiled = engine._compile(sp.build_sequence(encoding, prepare), model)
    args = (compiled, engine.CHUNK_SHOTS, np.random.SeedSequence(5),
            engine._PREPARED_CODES[prepare], max_attempts, False, True, False)
    engine._run_chunk(*args)  # fills the interpreter's and numpy's one-time caches first
    tracemalloc.start()
    try:
        engine._run_chunk(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bytes_per_shot * engine.CHUNK_SHOTS


def test_rejection_rates_track_exact_predictions(model):
    # Monte Carlo against the closed-form compound probability, 4 sigma.  A
    # superposition's Born split is one more channel of the propagator.
    shots = 100_000
    for encoding in ("O", "M", "G"):
        basis = run(model, encoding=encoding, shots=shots, seed=7)
        superposition = run(model, encoding=encoding, shots=shots, seed=7,
                            prepare=Prepare.SUPERPOSITION)
        for name, tally in [*basis.states.items(), *superposition.states.items()]:
            seq = sp.build_sequence(encoding, Prepare(name))
            expected = sp.predict_rejection_exact(seq, model)
            sigma = math.sqrt(expected * (1.0 - expected) / shots)
            assert abs(tally.rejected_fraction - expected) < 4.0 * sigma, (encoding, name)


def _noiseless(model, pulse_error=None):
    """``model`` with noiseless reads, no decay, 20% pump error and 1% loss,
    and every pulse error set to ``pulse_error`` if one is given."""
    pulses = model.pulses if pulse_error is None else tuple(
        dataclasses.replace(pulse, error_rate=pulse_error) for pulse in model.pulses)
    return dataclasses.replace(
        model,
        pump=dataclasses.replace(model.pump, error_rate=0.2),
        pulses=pulses,
        decay=sp.DecayChannel(lifetime=math.inf),
        detection=dataclasses.replace(model.detection, mean_dark=0.0,
                                      read_noise_sigma=0.0, threshold=0),
        loss_probability_per_shot=0.01,
    )


def _patterns_follow(observed, compiled):
    """Hold 64-pattern counts to the propagator's exact law by chi-square at
    p > 1e-4, cells expecting fewer than 20 shots pooled into one; return the
    number of cells compared."""
    probability = analytics._propagate(compiled).astype(float).sum(axis=0)
    assert probability.sum() == pytest.approx(1.0, abs=1e-12)
    assert observed[probability == 0].sum() == 0

    expected = observed.sum() * probability
    common = expected >= 20
    observed = np.append(observed[common], observed[~common].sum())
    expected = np.append(expected[common], expected[~common].sum())
    if expected[-1] == 0:
        observed, expected = observed[:-1], expected[:-1]
    chi2, p = stats.chisquare(observed, expected)
    assert p > 1e-4, (chi2, expected.size - 1, p)
    return expected.size


@pytest.mark.parametrize("encoding", ["O", "M", "G"])
@pytest.mark.parametrize("state", ["zero", "one", "superposition"])
def test_pattern_distribution_matches_propagator(model, encoding, state):
    # With noiseless reads and no decay the analytic propagator gives the
    # exact probability of every R0..R5 pattern.
    noiseless = _noiseless(model)
    prepare = Prepare(state)
    cfg = sp.ExperimentConfig(model=noiseless, encoding=encoding, shots=200_000, seed=51,
                              prepare=prepare)
    res = sp.run_experiment(cfg, workers=2, collect_histograms=False, keep_records=True)
    observed = np.bincount(res.records[prepare.value]["pattern"], minlength=64)
    compiled = engine._compile(sp.build_sequence(encoding, prepare), noiseless)
    assert _patterns_follow(observed, compiled) >= 3


_TRANSFERS = [sp.Transfer(*pair) for pulse in sp.default_model().pulses
              for pair in ((pulse.from_state, pulse.to_state), (pulse.to_state, pulse.from_state))]


@st.composite
def _step_lists(draw, rewind=True):
    """A step list that ``Sequence._validate`` admits and no encoding builds.

    The detections, the shelving transfer before R1, the readout transfers
    into A before R3 and R4, the deshelve before R5 and, as in every built
    list, a pump and (unless ``rewind`` is False) a cool, a retry's rewind
    point, after R0 are fixed.  Each gap between them holds up to three
    random fillers (transfers either way, cools, pumps and deshelves), and
    one gap may hold the list's one ``Rotate``: an encoding's own, from its
    superposition step list.
    """
    def into(manifold):
        return st.sampled_from([t for t in _TRANSFERS if t.to_state.in_manifold(manifold)])

    fillers = st.lists(st.sampled_from([sp.Cool(), Pump(), sp.Deshelve(), *_TRANSFERS]),
                       max_size=3)
    gaps = [draw(fillers) for _ in range(6)]
    rotate = draw(st.none() | st.integers(0, len(gaps) - 1))
    at = None if rotate is None else draw(st.integers(0, len(gaps[rotate])))
    shelve, read_zero, read_one = (draw(into(sp.Manifold.B)), draw(into(sp.Manifold.A)),
                                   draw(into(sp.Manifold.A)))
    # The encoding whose superposition Rotate the list takes, drawn last.
    encoding = draw(st.sampled_from("OMG"))
    if rotate is not None:
        superposition = sp.build_sequence(encoding, Prepare.SUPERPOSITION).steps
        gaps[rotate].insert(at, next(s for s in superposition if isinstance(s, Rotate)))
    detect = [sp.Detect(label) for label in sp.DetectLabel]
    steps = [sp.Cool(), detect[0], *([sp.Cool()] if rewind else []), Pump(), *gaps[0],
             shelve, *gaps[1], detect[1], *gaps[2], detect[2], *gaps[3], read_zero, detect[3],
             *gaps[4], read_one, detect[4], *gaps[5], sp.Deshelve(), detect[5]]
    return Sequence(tuple(steps))


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(sequence=_step_lists())
def test_random_step_lists_match_propagator(sequence):
    # The chunk runner against the exact propagator on lists no encoding
    # builds, with every channel able to fail; after each op ``present``
    # holds every label a shot is in.
    compiled = engine._compile(sequence, _noiseless(sp.default_model(), pulse_error=0.15))
    chunk = engine._ChunkState.start(100_000, np.random.default_rng(53), -1)
    for op in compiled.ops:
        engine._apply_op(chunk, compiled, op)
        assert set(np.flatnonzero(np.bincount(chunk.state)).tolist()) <= chunk.present
    _patterns_follow(np.bincount(chunk.pattern, minlength=64), compiled)


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(sequence=_step_lists(rewind=False))
def test_random_step_lists_without_a_rewind_cool_are_refused_by_name(sequence):
    # A retry rewinds to the first cool between R0 and R1; a list that
    # ``Sequence._validate`` admits without one is refused in either mode,
    # before any shot runs.
    r0, r1 = sequence.detect_index(sp.DetectLabel.R0), sequence.prep_end
    cools = [index for index in range(r0 + 1, r1) if isinstance(sequence.steps[index], sp.Cool)]
    if cools:
        assert sequence.retry_start == cools[0]
        return
    for mode, max_attempts in ((sp.Mode.POST_SELECT, 1), (sp.Mode.REPEAT_UNTIL_SUCCESS, 3)):
        config = sp.ExperimentConfig(model=sp.default_model(), encoding="M",
                                     shots=100, mode=mode, max_attempts=max_attempts)
        with mock.patch.object(engine, "build_sequence", lambda encoding, prepare: sequence):
            with pytest.raises(ValueError, match="lacks a second cooling step"):
                sp.run_experiment(config)


def test_more_pump_error_means_more_rejections(model):
    import dataclasses
    worse = dataclasses.replace(model, pump=dataclasses.replace(model.pump, error_rate=0.2))
    base = run(model, shots=40_000, seed=8).states["zero"]
    bumped = run(worse, shots=40_000, seed=8).states["zero"]
    assert bumped.rejected_fraction > base.rejected_fraction


def test_ion_loss_flags_the_survival_checks(model):
    import dataclasses
    lossy = dataclasses.replace(model, loss_probability_per_shot=1.0)
    res = run(lossy, shots=2_000, seed=9)
    for tally in res.states.values():
        assert tally.accepted == 0
        assert tally.reasons["R0Dark"] == tally.shots


def test_repeat_until_success_retries_bad_preparations(model):
    import dataclasses
    # Make failed preparation common so retries are exercised.
    noisy = dataclasses.replace(model, pump=dataclasses.replace(model.pump, error_rate=0.35))
    ps = run(noisy, shots=30_000, seed=10)
    rus = run(noisy, shots=30_000, seed=10, mode=sp.Mode.REPEAT_UNTIL_SUCCESS, max_attempts=4)
    for name in ("zero", "one"):
        assert rus.states[name].attempts_max <= 4
        assert rus.states[name].attempts_total > rus.states[name].shots
        # Retrying recovers shots that post-selection would discard.
        assert rus.states[name].rejected_fraction < ps.states[name].rejected_fraction
        # R1 flags only survive when every retry was used up, so they must be
        # far rarer than in the post-selected run.
        assert (rus.states[name].reasons.get("R1Bright", 0)
                < 0.5 * ps.states[name].reasons.get("R1Bright", 1))


def test_superposition_prepares_even_mixture(perfect):
    # Noiseless detection as well: with dark counts and read noise a bright
    # window misreads now and then, which would make the equalities below
    # depend on the seed.
    noiseless = dataclasses.replace(
        perfect,
        detection=dataclasses.replace(perfect.detection, mean_dark=0.0,
                                      read_noise_sigma=0.0, threshold=0),
    )
    for encoding in ("O", "M"):
        cfg = sp.ExperimentConfig(model=noiseless, encoding=encoding, shots=40_000, seed=11,
                                  prepare=Prepare.SUPERPOSITION)
        res = sp.run_experiment(cfg, workers=2)
        tally = res.states["superposition"]
        assert tally.prepared_zero + tally.prepared_one == tally.shots
        sigma = 0.5 * math.sqrt(tally.shots)
        assert abs(tally.prepared_zero - tally.shots / 2) < 5.0 * sigma
        # Perfect channels: the readout must reproduce the collapsed preparation.
        assert tally.wrong == (0,) * 6
        assert tally.accepted_zero == tally.prepared_zero
        assert tally.accepted_one == tally.prepared_one


def test_transfer_duration_override_scans_acceptance(perfect):
    # Driving the zero-readout transfer at half pi-time turns the R3/R4 pair
    # into a coin flip with p = sin^2(pi/4) for a prepared zero.
    cfg = sp.ExperimentConfig(
        model=perfect, encoding="M", shots=40_000, seed=12,
        prepare=Prepare.ZERO,
        transfer_durations=(((sp.B_2_M1, sp.A_2_0), 12.5e-6),),
    )
    res = sp.run_experiment(cfg, workers=2)
    tally = res.states["zero"]
    keep = tally.accepted / tally.shots
    sigma = math.sqrt(0.25 / tally.shots)
    assert abs(keep - 0.5) < 5.0 * sigma
    # The shots that fail the half pulse land in the all-dark readout flag.
    assert tally.reasons.get("R3R4Dark", 0) > 0


_SHELVE_ONE = ((sp.A_2_0, sp.B_1_M1), 20e-6)  # driven by an M one batch, not by a zero batch


def test_transfer_duration_override_needs_only_one_batch_to_drive_it(model):
    tuned = run(model, shots=2_000, seed=1, transfer_durations=(_SHELVE_ONE,))
    plain = run(model, shots=2_000, seed=1)
    assert tuned.states["zero"] == plain.states["zero"]
    assert tuned.states["one"].accepted < plain.states["one"].accepted


_MALFORMED = "transfer_durations entries must be ((StateLabel, StateLabel), duration)"


@pytest.mark.parametrize("prepare, overrides, problem", [
    (None, [((sp.A_2_0, sp.B_2_P1), 20e-6)], "A:F=2,mF=0 -> B:F=2,mF=1 matches no transfer"),
    (None, [((sp.A_2_0, sp.A_1_0), 20e-6)], "A:F=2,mF=0 -> A:F=1,mF=0 matches no transfer"),
    (None, [((sp.B_2_M1, sp.A_2_0), 20e-6), ((sp.B_2_M1, sp.A_2_0), 30e-6)],
     "B:F=2,mF=-1 -> A:F=2,mF=0 is given twice"),
    (Prepare.ZERO, [_SHELVE_ONE], "A:F=2,mF=0 -> B:F=1,mF=-1 matches no transfer"),
    *[(None, [((sp.B_2_M1, sp.A_2_0), bad)],
       f"B:F=2,mF=-1 -> A:F=2,mF=0 must be finite and non-negative, got {bad}")
      for bad in (-1e-6, math.nan, math.inf)],
    # Entries of another shape, each of which used to fail without a name.
    (None, [((sp.A_2_0,), 1e-6)], _MALFORMED),
    (None, [[sp.B_2_M1, sp.A_2_0], 1e-6], _MALFORMED),
    (None, [([sp.B_2_M1, sp.A_2_0], 1e-6)], _MALFORMED),
    (None, [((sp.B_2_M1, sp.A_2_0), 1e-6, 2e-6)], _MALFORMED),
])
def test_transfer_duration_overrides_name_a_driven_transfer_once(
        model, prepare, overrides, problem):
    # Each of these used to run as the default run, or to fail without naming
    # the override; every entry is checked against every batch's transfers
    # when the config is built.
    message = problem if problem == _MALFORMED else f"transfer duration for {problem}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        sp.ExperimentConfig(model=model, shots=2_000, seed=1, prepare=prepare,
                            transfer_durations=tuple(overrides))


@pytest.mark.parametrize("field, value, message", [
    ("transfer_durations", None, "transfer_durations must be a tuple, got None"),
    # A list could change after the config judged it.
    ("transfer_durations", [((sp.B_2_M1, sp.A_2_0), 1e-6)],
     "transfer_durations must be a tuple, got ["),
    ("model", None, "model must be an ErrorModel, got None"),
    ("model", sp.model_to_config, "model must be an ErrorModel, got {"),  # its JSON form
], ids=["durations-none", "durations-list", "model-none", "model-document"])
def test_a_config_field_of_the_wrong_type_is_refused_when_built(model, field, value, message):
    # Each of these used to build, and its run then failed without a name
    # (or, for the list, ran).
    fields = {"model": model, field: value(model) if callable(value) else value}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        sp.ExperimentConfig(**fields)


def test_strict_mode_matches_lax_under_perfect_channels(perfect):
    lax = run(perfect, shots=5_000, seed=13)
    strict = run(perfect, shots=5_000, seed=13, strict_flags=True)
    assert lax.states["zero"].kept == strict.states["zero"].kept
    assert lax.states["one"].kept == strict.states["one"].kept


def test_config_validation(model):
    with pytest.raises(ValueError):
        sp.ExperimentConfig(model=model, encoding="M", shots=0)
    with pytest.raises(ValueError):
        sp.ExperimentConfig(model=model, encoding="M", shots=10, max_attempts=0)
    with pytest.raises(ValueError):
        sp.ExperimentConfig(model=model, encoding="M", shots=10,
                            mode=sp.Mode.POST_SELECT, max_attempts=3)
    with pytest.raises(ValueError):
        sp.ExperimentConfig(model=model, encoding="X", shots=10)
    with pytest.raises(ValueError, match="seed must be an integer >= 0, got -1"):
        sp.ExperimentConfig(model=model, encoding="M", shots=10, seed=-1)


@pytest.mark.parametrize("value", [None, 2.0, True, np.int64(2), "2"],
                         ids=["below", "float", "bool", "numpy", "str"])
@pytest.mark.parametrize("argument, minimum", [
    ("shots", 1), ("seed", 0), ("max_attempts", 1), ("workers", 1),
])
def test_every_count_must_be_an_integer_of_at_least_its_minimum(model, argument, minimum, value):
    # A float would otherwise fail inside numpy or range() with a message that
    # names no argument, True would run as 1, and a numpy integer would make
    # the summary unserializable.
    value = minimum - 1 if value is None else value
    fields = {"model": model, "shots": 10, "mode": sp.Mode.REPEAT_UNTIL_SUCCESS,
              "max_attempts": 2}
    message = re.escape(f"{argument} must be an integer >= {minimum}, got {value!r}")
    with pytest.raises(ValueError, match=message):
        if argument == "workers":
            sp.run_experiment(sp.ExperimentConfig(**fields), workers=value)
        else:
            sp.ExperimentConfig(**{**fields, argument: value})


def test_config_rejects_enum_fields_given_as_strings(model):
    # Caught here, a string names the field; unchecked, it fails inside the
    # run or the summary with an error that names neither.
    with pytest.raises(ValueError, match="prepare must be None or a Prepare, got 'one'"):
        sp.ExperimentConfig(model=model, shots=10, prepare="one")
    with pytest.raises(ValueError, match="mode must be a Mode, got 'post-select'"):
        sp.ExperimentConfig(model=model, shots=10, mode="post-select", max_attempts=3)
    with pytest.raises(ValueError, match="mode must be a Mode, got 'rus'"):
        sp.ExperimentConfig(model=model, shots=10, mode="rus")
    for strict in (2, "yes", None):
        with pytest.raises(ValueError, match=f"strict_flags must be a bool, got {strict!r}"):
            sp.ExperimentConfig(model=model, shots=10, strict_flags=strict)
    for prepare in (None, *Prepare):
        assert sp.ExperimentConfig(model=model, shots=10, prepare=prepare).prepare is prepare


def test_records_capture(model):
    cfg = sp.ExperimentConfig(model=model, encoding="M", shots=2_000, seed=14)
    res = sp.run_experiment(cfg, workers=2, keep_records=True)
    assert res.records is not None
    for name, cols in res.records.items():
        n = res.states[name].shots
        assert list(cols) == ["prepared", "pattern", "attempts"]
        assert [(c.dtype, c.shape) for c in cols.values()] == [
            (np.int8, (n,)), (np.uint8, (n,)), (np.int32, (n,))]
        flagged = [sp.evaluate_flags([p >> i & 1 for i in range(6)])[0]
                   for p in cols["pattern"].tolist()]
        assert sum(flagged) == n - res.states[name].accepted
        assert cols["attempts"].max() == res.states[name].attempts_max


@pytest.mark.parametrize("encoding", ["O", "M"])
def test_scalar_superposition_records_collapse_outcome(perfect, encoding):
    # Each shot's record keeps its own prepared value: the Born outcome of
    # the pi/2 rotation, not a reading of the final state, so it is an even
    # coin under any readout.
    cfg = sp.ExperimentConfig(model=perfect, encoding=encoding, shots=2_000, seed=31,
                              prepare=Prepare.SUPERPOSITION)
    res = sp.run_experiment(cfg, workers=1, keep_records=True)
    prepared = res.records["superposition"]["prepared"]
    assert len(prepared) == cfg.shots
    assert set(prepared.tolist()) <= {0, 1}
    sigma = 0.5 * math.sqrt(cfg.shots)
    assert abs(int(prepared.sum()) - cfg.shots / 2) < 5.0 * sigma


def test_prepared_is_the_rotate_outcome(model):
    # A short lifetime makes metastable decay in the R2 window common; such a
    # shot keeps the Born outcome drawn at Rotate as its prepared value.
    short = dataclasses.replace(model, decay=sp.DecayChannel(lifetime=5e-3))
    sequence = sp.build_sequence("M", Prepare.SUPERPOSITION)
    compiled = engine._compile(sequence, short)
    chunk = engine._ChunkState.start(2_000, np.random.default_rng(61),
                                     engine._PREPARED_CODES[Prepare.SUPERPOSITION])
    at_rotate = None
    for op in compiled.ops:
        engine._apply_op(chunk, compiled, op)
        if op.rotate is not None:
            at_rotate = chunk.state.copy()
    expected = np.full(chunk.size, -1)
    zero, one = next(op.rotate for op in compiled.ops if op.rotate is not None)
    expected[at_rotate == zero] = 0
    expected[at_rotate == one] = 1
    assert np.array_equal(chunk.prepared, expected)
    assert set(expected.tolist()) == {-1, 0, 1}


def _outcome_keys(prepared, attempts, pattern):
    """One integer per shot for its (prepared, attempts, R0..R5 pattern)."""
    return ((prepared.astype(np.int64) + 1) * 8 + attempts) * 64 + pattern


def _reference_rus(model, encoding, prepare, shots, seed, max_attempts):
    """Repeat-until-success with full-width retry rounds.

    Every retry round runs the preparation ops over a copy of the whole
    chunk, and only the shots that retried are merged back from the copy.
    """
    code = {Prepare.ZERO: 0, Prepare.ONE: 1, Prepare.SUPERPOSITION: -1}[prepare]
    compiled = engine._compile(sp.build_sequence(encoding, prepare), model)
    chunk = engine._ChunkState.start(shots, np.random.default_rng(seed), code)
    attempts = np.ones(shots, dtype=np.int32)
    ops = compiled.ops
    for op in ops[: compiled.prep_end + 1]:
        engine._apply_op(chunk, compiled, op)
    names = ("state", "prepared", "pattern")
    for _ in range(max_attempts - 1):
        retry = (chunk.pattern & 2).astype(bool)
        attempts[retry] += 1
        trial = dataclasses.replace(chunk, **{n: getattr(chunk, n).copy() for n in names})
        for op in ops[compiled.retry_at : compiled.prep_end + 1]:
            engine._apply_op(trial, compiled, op)
        for n in names:
            getattr(chunk, n)[..., retry] = getattr(trial, n)[..., retry]
    for op in ops[compiled.prep_end + 1 :]:
        engine._apply_op(chunk, compiled, op)
    return _outcome_keys(chunk.prepared, attempts, chunk.pattern)


@pytest.mark.parametrize("encoding, prepare, strict", [
    ("O", Prepare.ZERO, True),
    ("M", Prepare.SUPERPOSITION, False),
])
def test_compacted_retries_match_full_width_reference(model, encoding, prepare, strict):
    # Two independent samples of the (prepared, attempts, pattern) outcome,
    # compared by a chi-square test of homogeneity; sparse cells are pooled.
    noisy = dataclasses.replace(model, pump=dataclasses.replace(model.pump, error_rate=0.2))
    shots, max_attempts = 200_000, 3
    cfg = sp.ExperimentConfig(model=noisy, encoding=encoding, shots=shots, seed=41,
                              prepare=prepare, strict_flags=strict,
                              mode=sp.Mode.REPEAT_UNTIL_SUCCESS, max_attempts=max_attempts)
    res = sp.run_experiment(cfg, workers=2, collect_histograms=False, keep_records=True)
    cols = res.records[prepare.value]
    assert cols["attempts"].max() == max_attempts
    got = _outcome_keys(cols["prepared"], cols["attempts"], cols["pattern"])
    want = _reference_rus(noisy, encoding, prepare, shots, 42, max_attempts)

    size = 4 * 8 * 64
    table = np.stack([np.bincount(got, minlength=size), np.bincount(want, minlength=size)])
    common = table.sum(axis=0) >= 20
    rare = table[:, ~common].sum(axis=1, keepdims=True)
    table = np.hstack([table[:, common], rare]) if rare.sum() else table[:, common]
    chi2, p, dof, _ = stats.chi2_contingency(table)
    assert dof >= 5
    assert p > 1e-4, (chi2, dof, p)


@pytest.mark.parametrize("encoding", ["O", "M", "G"])
@pytest.mark.parametrize("both, first", [
    (True, Prepare.ZERO),
    (False, Prepare.SUPERPOSITION),
])
def test_rus_without_retries_matches_post_select(perfect, encoding, both, first):
    # No dark counts, no read noise and perfect channels: R1 is never bright,
    # so a retry round must not draw and both modes see the same stream.
    quiet = dataclasses.replace(
        perfect,
        detection=dataclasses.replace(perfect.detection, mean_dark=0.0, read_noise_sigma=0.0),
        loss_probability_per_shot=0.2,
    )
    # ``both`` runs the default zero and one batches; ``first`` is the state
    # of the first batch.
    common = dict(model=quiet, encoding=encoding, shots=40_000, seed=43,
                  prepare=None if both else first)
    ps = sp.run_experiment(sp.ExperimentConfig(**common), workers=2)
    assert next(iter(ps.states)) == first.value
    rus = sp.run_experiment(
        sp.ExperimentConfig(**common, mode=sp.Mode.REPEAT_UNTIL_SUCCESS, max_attempts=3),
        workers=2,
    )
    assert all(t.reasons["R1Bright"] == 0 for t in ps.states.values())
    assert rus.states == ps.states
    assert rus.histograms == ps.histograms
    assert rus.accepted_r3 == ps.accepted_r3


# Tally stage at which each reason first rejects a shot (6: accepted).
_FAIL_STAGE = {"R0Dark": 1, "R1Bright": 2, "R2Bright": 3, "R3R4Dark": 4, "R4Dark": 4,
               "R5Dark": 5, "None": 6}


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("encoding, both, first", [
    ("M", True, Prepare.ZERO),
    ("G", False, Prepare.SUPERPOSITION),
])
@pytest.mark.parametrize("mode, max_attempts", [
    (sp.Mode.POST_SELECT, 1),
    (sp.Mode.REPEAT_UNTIL_SUCCESS, 3),
])
def test_tallies_match_per_shot_recount(model, strict, encoding, both, first,
                                        mode, max_attempts):
    # Every BatchTally count, recounted shot by shot from the records with the
    # scalar flag rules, which the chunk runner's flag table must match.  A
    # dimmer bright level makes every flag reason common, the strict-only
    # R4Dark included.
    noisy = dataclasses.replace(
        model,
        pump=dataclasses.replace(model.pump, error_rate=0.2),
        detection=dataclasses.replace(model.detection, mean_bright=190.0),
    )
    cfg = sp.ExperimentConfig(model=noisy, encoding=encoding, shots=20_000, seed=51,
                              prepare=None if both else first, strict_flags=strict,
                              mode=mode, max_attempts=max_attempts)
    res = sp.run_experiment(cfg, workers=2, collect_histograms=False, keep_records=True)
    assert next(iter(res.states)) == first.value
    for name, tally in res.states.items():
        cols = res.records[name]
        kept, wrong = [0] * 6, [0] * 6
        reasons = dict.fromkeys((r.value for r in sp.FlagReason), 0)
        accepted = {0: 0, 1: 0}
        codes, _, readouts = engine._FLAG_TABLES[strict].take(cols["pattern"], axis=1)
        for index, (prepared, pattern) in enumerate(zip(cols["prepared"].tolist(),
                                                        cols["pattern"].tolist())):
            outcomes = [pattern >> i & 1 for i in range(6)]
            flagged, reason, inferred = sp.evaluate_flags(outcomes, strict=strict)
            assert engine._REASON_CODES[codes[index]] is reason
            assert bool(codes[index] != 0) == flagged
            readout = 0 if outcomes[3] else 1
            assert int(readouts[index]) == readout
            stage = _FAIL_STAGE[reason.value]
            reasons[reason.value] += 1
            for k in range(stage):
                kept[k] += 1
                wrong[k] += prepared >= 0 and readout != prepared
            if not flagged:
                accepted[inferred] += 1
        assert tally.shots == cols["prepared"].size
        assert tally.kept == tuple(kept)
        assert tally.wrong == tuple(wrong)
        assert tally.reasons == reasons
        assert (tally.accepted_zero, tally.accepted_one) == (accepted[0], accepted[1])
        assert tally.prepared_zero == int((cols["prepared"] == 0).sum())
        assert tally.prepared_one == int((cols["prepared"] == 1).sum())
        assert tally.attempts_total == int(cols["attempts"].sum())
    assert all(sum(t.reasons[r.value] for t in res.states.values()) > 0
               for r in sp.FlagReason if strict or r is not sp.FlagReason.R4_DARK)


def test_histograms_when_nothing_is_accepted(model):
    lossy = dataclasses.replace(model, loss_probability_per_shot=1.0)
    cfg = sp.ExperimentConfig(model=lossy, encoding="M", shots=3_000, seed=52)
    res = sp.run_experiment(cfg, workers=2, collect_histograms=True)
    assert all(t.accepted == 0 for t in res.states.values())
    assert res.accepted_r3 == {}
    assert set(res.histograms) == {f"R{i}" for i in range(6)}
    assert all(h.total == 2 * 3_000 for h in res.histograms.values())


@pytest.mark.parametrize("chunks", [
    [[3, 4, 4], [10, 12, 12, 12]],  # disjoint ranges
    [[5, 6, 7, 7], [6, 7, 8], [7]],  # overlapping ranges
    [[-4, -1, 0, 2], [-9, -9, 3], [1]],  # negative values
    [[], [2, 2, -3], [], [0]],  # empty parts
])
def test_merged_histogram_matches_from_samples(chunks):
    parts = [engine._value_counts(np.array(values, dtype=np.int64)) for values in chunks]
    merged = engine._merged_histogram(parts, "merged")
    samples = [v for values in chunks for v in values]
    assert merged == sp.CountHistogram.from_samples(samples, label="merged")
    empty = engine._value_counts(np.zeros(0, dtype=np.int64))
    assert engine._merged_histogram([empty, empty], "empty") is None


def _short_lived(model):
    # A 5 ms lifetime decays about 9% of B shots in each detection window, so
    # the in-window decay path and its mean-count rewrite both run; 1% loss
    # adds lost shots.
    return dataclasses.replace(model, decay=sp.DecayChannel(lifetime=5e-3),
                               loss_probability_per_shot=0.01)


def _record_columns(records, strict):
    """The record columns as the pins hashed them, rebuilt from each pattern.

    Records once held ``bright`` (bool, 6 x shots), ``flagged`` (bool),
    ``reason`` (uint8 index into ``FlagReason``) and ``inferred`` (int8
    readout, 0 iff R3 bright) beside ``prepared`` and ``attempts``; each is
    derived here from the scalar flag rules.
    """
    bits = [[pattern >> i & 1 for i in range(6)] for pattern in range(64)]
    reasons = [sp.evaluate_flags(b, strict)[1] for b in bits]
    table = {
        "bright": np.array(bits, dtype=bool).T,
        "flagged": np.array([r is not sp.FlagReason.NONE for r in reasons]),
        "reason": np.array([list(sp.FlagReason).index(r) for r in reasons], dtype=np.uint8),
        "inferred": np.array([1 - b[3] for b in bits], dtype=np.int8),
    }
    pattern = records["pattern"]
    columns = {key: column.take(pattern, axis=-1) for key, column in table.items()}
    return {"prepared": records["prepared"], "attempts": records["attempts"], **columns}


def _result_digest(result):
    """sha256 over the summary, both histogram sets and every record column."""
    digest = hashlib.sha256(json.dumps(sp.spam_summary(result), sort_keys=True).encode())
    for block in (result.histograms, result.accepted_r3):
        for name in sorted(block):
            hist = block[name]
            digest.update(repr((name, hist.label, hist.bin_lows, hist.frequencies)).encode())
    for name in sorted(result.records):
        columns = _record_columns(result.records[name], result.config.strict_flags)
        for key, column in sorted(columns.items()):
            digest.update(f"{name}/{key}/{column.dtype.str}/{column.shape}".encode())
            digest.update(np.ascontiguousarray(column).tobytes())
    return digest.hexdigest()


def _rewind_in_b(model):
    # Threshold 105 sits a little above the dark mean, so about a third of
    # the shots shelved in B read bright at R1 and retry while still in B;
    # the 5 ms lifetime makes the decay draws of their retry rounds count.
    return dataclasses.replace(model, decay=sp.DecayChannel(lifetime=5e-3),
                               detection=dataclasses.replace(model.detection, threshold=105))


def _metastable_bias_point(model):
    # The bias_scan path: perfect channels, metastable-zero pulse at 0.8 t_pi.
    perfect = model.with_perfect_channels()
    pair = (sp.B_2_M1, sp.A_2_0)
    return ((pair, 0.8 * perfect.pulse_for(*pair).t_pi),)


# sha256 digests of whole runs.  The first six were recorded before the
# detect, pump, transfer and deshelve kernels were rewritten to make the same
# draws with fewer array passes, the last two before the chunk runner began
# to skip the draws no shot reads (by advancing the generator).  They pin
# every random stream of the chunk runner (recorded with numpy 2.4.6; a numpy
# release that changes a Generator algorithm moves them too).  A deliberate
# stream change (such as sampling detection bits in place of counts) must
# update these pins and say so in CHANGES.md.  The digest covers the summary
# too, so a change to a summary statistic (such as exact Wilson bounds at zero
# successes) moves the pins of the runs it touches without moving a stream.
_PINNED_STREAMS = {
    "M-post-select": (
        lambda model: dict(model=model, encoding="M", seed=31),
        "340603dd4f9157a3ed0cfacac74f7bc2892994667895123e198281b929e93660",
    ),
    "O-rus": (
        lambda model: dict(model=model, encoding="O", seed=32,
                           mode=sp.Mode.REPEAT_UNTIL_SUCCESS, max_attempts=3),
        "158d702e39b854bb2d55e92ecc6e94b1e9d6391e3c28e3f324553ff18b9c7642",
    ),
    "G-superposition": (
        lambda model: dict(model=model, encoding="G", seed=33,
                           prepare=Prepare.SUPERPOSITION),
        "02a5d48073d5168a09a7f8e2a7526a4fdddb5aed7231a5f4f69a3614cd3faf46",
    ),
    "M-superposition-rus-strict": (
        lambda model: dict(model=model, encoding="M", seed=34,
                           prepare=Prepare.SUPERPOSITION, strict_flags=True,
                           mode=sp.Mode.REPEAT_UNTIL_SUCCESS, max_attempts=2),
        "0fe2bbe731a104778c4bb4fde6ba2128dbca6d008071c704671f544b716023fc",
    ),
    "M-short-lifetime-loss": (
        lambda model: dict(model=_short_lived(model), encoding="M", seed=35),
        "bc39e26b5498c2acf25aa18286478146cc4844f92ccd93767c8dc514c5bf66af",
    ),
    "O-short-lifetime-loss-rus": (
        lambda model: dict(model=_short_lived(model), encoding="O", seed=36,
                           mode=sp.Mode.REPEAT_UNTIL_SUCCESS, max_attempts=3),
        "a7485f9664d2f9658694c254a734899f53bedcb0ad64db515e90dca960645e31",
    ),
    "O-rus-rewind-in-b": (
        lambda model: dict(model=_rewind_in_b(model), encoding="O", seed=37,
                           mode=sp.Mode.REPEAT_UNTIL_SUCCESS, max_attempts=3),
        "45660c7af1d253ebefb8894be33fe854d3fffdb6fdf0bc0d041e14d2c8af2b6a",
    ),
    "M-superposition-bias-scan": (
        lambda model: dict(model=model.with_perfect_channels(), encoding="M", seed=38,
                           prepare=Prepare.SUPERPOSITION,
                           transfer_durations=_metastable_bias_point(model)),
        "6331e5f6a99d304543af8090e4543b9e55806220885880e6a4072c1cc6f61397",
    ),
}


@pytest.mark.parametrize("name", sorted(_PINNED_STREAMS))
def test_random_streams_are_pinned(model, name):
    make_config, pinned = _PINNED_STREAMS[name]
    cfg = sp.ExperimentConfig(shots=2 * engine.CHUNK_SHOTS + 123, **make_config(model))
    result = sp.run_experiment(cfg, workers=1, collect_histograms=True, keep_records=True)
    assert _result_digest(result) == pinned


def _twin_draws(rng):
    return (rng.random(7), rng.poisson(100.0, 7), rng.normal(0.0, 6.0, 7))


@pytest.mark.parametrize("bit_generator", [np.random.PCG64])
def test_skip_leaves_the_stream_as_a_draw_would(bit_generator):
    for n in (0, 1, 5, engine.CHUNK_SHOTS):
        drawn, skipped = (np.random.Generator(bit_generator(9)) for _ in range(2))
        drawn.random(n)
        engine._skip(skipped, n)
        for a, b in zip(_twin_draws(drawn), _twin_draws(skipped)):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("name", sorted(_PINNED_STREAMS))
def test_skip_only_sees_unbuffered_pcg64(model, name, monkeypatch):
    # advance would drop a buffered 32-bit value, so every generator the
    # chunk runner skips on must be a PCG64 that holds none.
    skip, seen = engine._skip, []

    def checked(rng, n):
        seen.append(n)
        assert isinstance(rng.bit_generator, np.random.PCG64)
        assert rng.bit_generator.state["has_uint32"] == 0
        skip(rng, n)

    monkeypatch.setattr(engine, "_skip", checked)
    make_config, _ = _PINNED_STREAMS[name]
    cfg = sp.ExperimentConfig(shots=2_000, **make_config(model))
    sp.run_experiment(cfg, workers=1, collect_histograms=True, keep_records=True)
    assert seen


class _CountingPCG64(np.random.PCG64):
    advanced = 0

    def advance(self, delta):
        self.advanced += 1
        return super().advance(delta)


class _CountingGenerator(np.random.Generator):
    """Counts uniform arrays drawn, and Poisson calls by path."""

    def __init__(self, bit_generator):
        super().__init__(bit_generator)
        self.drawn = 0
        self.poisson_paths = []

    def random(self, *args, **kwargs):
        self.drawn += 1
        return super().random(*args, **kwargs)

    def poisson(self, lam, size):
        self.poisson_paths.append("array" if np.ndim(lam) else "scalar")
        return super().poisson(lam, size)


def test_skip_advances_pcg64():
    rng = _CountingGenerator(_CountingPCG64(4))
    engine._skip(rng, 100)
    assert (rng.drawn, rng.bit_generator.advanced) == (0, 1)


def _rotate_before_shelving():
    # O's one label is A:F=2,mF=0, so a Rotate right after the pump moves
    # shots into B (zero, B:F=2,mF=-1) before any transfer does.
    steps = list(sp.build_sequence("O", Prepare.SUPERPOSITION).steps)
    rotate = next(s for s in steps if isinstance(s, Rotate))
    steps.remove(rotate)
    steps.insert(next(i for i, s in enumerate(steps) if isinstance(s, Pump)) + 1, rotate)
    return Sequence(tuple(steps))


_FLAG_SEQUENCES = {f"{e}-{p.value}": (p, functools.partial(sp.build_sequence, e, p))
                   for e in "OMG" for p in Prepare}
_FLAG_SEQUENCES["O-rotate-before-shelving"] = (Prepare.SUPERPOSITION, _rotate_before_shelving)


@pytest.mark.parametrize("name", sorted(_FLAG_SEQUENCES))
def test_present_labels_hold_every_shot(model, name, monkeypatch):
    noisy = dataclasses.replace(
        _rewind_in_b(model), loss_probability_per_shot=0.01,
        pump=dataclasses.replace(model.pump, error_rate=0.2))
    prepare, build = _FLAG_SEQUENCES[name]
    compiled = engine._compile(build(), noisy)
    is_b = np.array([label.in_manifold(sp.Manifold.B) for label in compiled.labels])
    apply_channel = engine._apply_channel
    runs = []  # (chunk or retry sub-chunk, channel, whether it drew)
    reached_b = False

    def checked(chunk, channel):
        nonlocal reached_b
        drawn = chunk.rng.drawn
        failed = apply_channel(chunk, channel)
        assert set(np.unique(chunk.state).tolist()) <= chunk.present, channel.event
        reached_b |= is_b.take(chunk.state).any()
        runs.append((chunk, channel, chunk.rng.drawn > drawn))
        return failed

    def counting_rng(seed_seq):
        return _CountingGenerator(_CountingPCG64(seed_seq))

    monkeypatch.setattr(engine, "_apply_channel", checked)
    monkeypatch.setattr(engine.np.random, "default_rng", counting_rng)
    engine._run_chunk(compiled, 4096, np.random.SeedSequence(17),
                      engine._PREPARED_CODES[prepare], 3, False, False, False)
    whole = runs[0][0]
    assert reached_b and any(chunk is not whole for chunk, _, _ in runs)  # some shots retried
    # On the first pass both cools and R0 come before any shelving, and R5
    # follows the deshelve, so their decays skip.
    ops = compiled.ops
    decays = [c for i in (0, 1, 2, len(ops) - 1) for c in ops[i].channels if c.step == i]
    first = [(channel, drew) for chunk, channel, drew in runs
             if chunk is whole and channel in decays]
    assert len(decays) == len(first) == 4 and not any(drew for _, drew in first)


def test_retry_rounds_draw_only_for_channels_a_retried_shot_can_fail(model, monkeypatch):
    # Each retry sub-chunk holds the labels of its own shots only, so a
    # channel that sends none of them apart skips its draw.
    subs, retry_draws = [], []  # retry_draws: (drew, could fail a shot)
    take, apply_channel = engine._ChunkState.take, engine._apply_channel

    def taken(chunk, idx):
        subs.append(take(chunk, idx))
        return subs[-1]

    def checked(chunk, channel):
        drawn, can_fail = chunk.rng.drawn, bool(channel.split.take(chunk.state).any())
        failed = apply_channel(chunk, channel)
        if any(chunk is sub for sub in subs):
            retry_draws.append((chunk.rng.drawn > drawn, can_fail))
        return failed

    monkeypatch.setattr(engine._ChunkState, "take", taken)
    monkeypatch.setattr(engine, "_apply_channel", checked)
    monkeypatch.setattr(engine.np.random, "default_rng",
                        lambda seed_seq: _CountingGenerator(_CountingPCG64(seed_seq)))
    cfg = sp.ExperimentConfig(model=model, encoding="O", shots=2 * engine.CHUNK_SHOTS,
                              seed=1, mode=sp.Mode.REPEAT_UNTIL_SUCCESS, max_attempts=3)
    sp.run_experiment(cfg, workers=1, collect_histograms=False)
    assert subs and any(drew for drew, _ in retry_draws)
    assert all(can_fail for drew, can_fail in retry_draws if drew)
    # Some channels of the retry ops skip because no retried shot can fail them.
    assert any(not can_fail for _, can_fail in retry_draws)


@pytest.mark.parametrize("name", sorted(_FLAG_SEQUENCES))
def test_channel_maps_are_label_tables(model, name):
    lossy = dataclasses.replace(model, loss_probability_per_shot=0.01)
    sequence = _FLAG_SEQUENCES[name][1]()
    compiled = engine._compile(sequence, lossy)
    channels = [channel for op in compiled.ops for channel in op.channels]
    assert channels[0].event == "ion loss" and channels[0].step == -1
    size, lost = len(compiled.labels), compiled.labels.index(sp.LOST)
    for channel in channels:
        for table in (channel.success, channel.failure):
            assert table.dtype == np.int16 and table.shape == (size,), channel.event
            assert 0 <= table.min() and table.max() < size, channel.event
            assert table[lost] == lost, channel.event
    # Only Detect and Rotate steps carry work beyond their channels, and a
    # Rotate's one channel is the Born projection.
    for op, step in zip(compiled.ops, sequence.steps):
        assert (op.detect is not None) == isinstance(step, sp.Detect)
        assert (op.rotate is not None) == isinstance(step, Rotate)
        if op.rotate is not None:
            assert [channel.event for channel in op.channels] == ["Born projection"]


@pytest.mark.parametrize("prepare", [Prepare.ZERO, Prepare.ONE])
def test_first_pass_skips_the_draws_no_shot_reads(model, prepare):
    # A lifetime so long that no shot decays inside a window makes the count
    # exact; a decay in R1..R4 would add that window's instant array.
    slow = dataclasses.replace(model, decay=sp.DecayChannel(lifetime=1e6))
    compiled = engine._compile(sp.build_sequence("M", prepare), slow)
    rng = _CountingGenerator(_CountingPCG64(3))
    chunk = engine._ChunkState.start(engine.CHUNK_SHOTS, rng, engine._PREPARED_CODES[prepare])
    for op in compiled.ops:
        engine._apply_op(chunk, compiled, op)
    # 22 uniform arrays a shot: 9 drawn, 13 skipped.
    assert (rng.drawn, rng.bit_generator.advanced) == (9, 13)
    # R0 and R5 give every shot one mean, so they take the scalar path.
    assert rng.poisson_paths == ["scalar"] + ["array"] * 4 + ["scalar"]
