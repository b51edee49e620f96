import itertools
import re
from types import SimpleNamespace

import numpy as np
import pytest

import spamsim as sp
from spamsim import engine
from spamsim.channels import decay_probability, pulse_success_probability
from spamsim.sequence import Cool, Deshelve, Detect, DetectLabel, Prepare, Pump, Rotate, Transfer
from spamsim.states import LOST, WRONG_GROUND


def all_builds():
    for enc in ("O", "M", "G"):
        for prep in Prepare:
            yield enc, prep


@pytest.mark.parametrize("encoding,prepare", list(all_builds()))
def test_common_shape(encoding, prepare):
    seq = sp.build_sequence(encoding, prepare)
    detects = [s for s in seq.steps if isinstance(s, Detect)]
    assert [d.label for d in detects] == list(DetectLabel)
    # Interleaved cooling check, pumped initialization.
    assert isinstance(seq.steps[0], Cool)
    assert isinstance(seq.steps[1], Detect) and seq.steps[1].label is DetectLabel.R0
    assert isinstance(seq.steps[2], Cool)
    assert isinstance(seq.steps[3], Pump)
    # Exactly one deshelve pulse, between R4 and R5.
    deshelves = [i for i, s in enumerate(seq.steps) if isinstance(s, Deshelve)]
    r4 = next(i for i, s in enumerate(seq.steps) if isinstance(s, Detect) and s.label is DetectLabel.R4)
    r5 = next(i for i, s in enumerate(seq.steps) if isinstance(s, Detect) and s.label is DetectLabel.R5)
    assert len(deshelves) == 1 and r4 < deshelves[0] < r5
    # A retry re-enters right after the survival check R0.
    assert seq.retry_start == 2
    assert isinstance(seq.steps[seq.prep_end], Detect)
    assert seq.steps[seq.prep_end].label is DetectLabel.R1
    # Rotations appear only when preparing a superposition.
    rotations = [s for s in seq.steps if isinstance(s, Rotate)]
    assert bool(rotations) == (prepare is Prepare.SUPERPOSITION)


_A20, _A10, _B2M1, _B1M1, _B2P1 = "A:F=2,mF=0", "A:F=1,mF=0", "B:F=2,mF=-1", "B:F=1,mF=-1", "B:F=2,mF=1"

# Every step list the package builds, one step a word: a transfer as
# ``from>to``, a rotation as ``Rotate(zero|one)``, a detection by its label,
# any other step by its type.
_STEP_LISTS = {
    ("O", Prepare.ZERO): f"Cool R0 Cool Pump {_A20}>{_B2M1} R1 R2 "
                         f"{_B2M1}>{_A20} R3 {_B1M1}>{_A20} R4 Deshelve R5",
    ("O", Prepare.ONE): f"Cool R0 Cool Pump {_A20}>{_B1M1} R1 {_B1M1}>{_A20} {_A20}>{_B1M1} R2 "
                        f"{_B2M1}>{_A20} R3 {_B1M1}>{_A20} R4 Deshelve R5",
    ("O", Prepare.SUPERPOSITION): f"Cool R0 Cool Pump {_A20}>{_B2M1} R1 Rotate({_B2M1}|{_A20}) "
                                  f"{_A20}>{_B1M1} R2 "
                                  f"{_B2M1}>{_A20} R3 {_B1M1}>{_A20} R4 Deshelve R5",
    ("M", Prepare.ZERO): f"Cool R0 Cool Pump {_A20}>{_B2M1} R1 R2 "
                         f"{_B2M1}>{_A20} R3 {_B1M1}>{_A20} R4 Deshelve R5",
    ("M", Prepare.ONE): f"Cool R0 Cool Pump {_A20}>{_B1M1} R1 R2 "
                        f"{_B2M1}>{_A20} R3 {_B1M1}>{_A20} R4 Deshelve R5",
    ("M", Prepare.SUPERPOSITION): f"Cool R0 Cool Pump {_A20}>{_B2M1} R1 Rotate({_B2M1}|{_B1M1}) R2 "
                                  f"{_B2M1}>{_A20} R3 {_B1M1}>{_A20} R4 Deshelve R5",
    ("G", Prepare.ZERO): f"Cool R0 Cool Pump {_A20}>{_B2M1} R1 {_B2M1}>{_A20} "
                         f"{_A20}>{_B2P1} {_A10}>{_B1M1} R2 "
                         f"{_B2P1}>{_A20} R3 {_B1M1}>{_A10} R4 Deshelve R5",
    ("G", Prepare.ONE): f"Cool R0 Cool Pump {_A20}>{_B2M1} R1 {_B2M1}>{_A10} "
                        f"{_A20}>{_B2P1} {_A10}>{_B1M1} R2 "
                        f"{_B2P1}>{_A20} R3 {_B1M1}>{_A10} R4 Deshelve R5",
    ("G", Prepare.SUPERPOSITION): f"Cool R0 Cool Pump {_A20}>{_B2M1} R1 {_B2M1}>{_A20} Rotate({_A20}|{_A10}) "
                                  f"{_A20}>{_B2P1} {_A10}>{_B1M1} R2 "
                                  f"{_B2P1}>{_A20} R3 {_B1M1}>{_A10} R4 Deshelve R5",
}


def _short(step):
    if isinstance(step, Transfer):
        return f"{step.from_state}>{step.to_state}"
    if isinstance(step, Rotate):
        return f"Rotate({step.zero}|{step.one})"
    if isinstance(step, Detect):
        return step.label.name
    return type(step).__name__


def test_every_step_list_is_pinned():
    assert sp.ENCODINGS == ("O", "M", "G")  # the table's order, which the CLI shows
    assert set(_STEP_LISTS) == set(all_builds())
    for (encoding, prepare), expected in _STEP_LISTS.items():
        steps = sp.build_sequence(encoding, prepare).steps
        assert " ".join(map(_short, steps)) == expected, (encoding, prepare)
    # O and M zero are both held in B:F=2,mF=-1 and take the same steps.
    assert sp.build_sequence("O", Prepare.ZERO).steps == sp.build_sequence("M", Prepare.ZERO).steps


def test_metastable_one_exact_steps():
    seq = sp.build_sequence("M", Prepare.ONE)
    kinds = [type(s).__name__ for s in seq.steps]
    assert kinds == [
        "Cool", "Detect", "Cool", "Pump", "Transfer", "Detect", "Detect",
        "Transfer", "Detect", "Transfer", "Detect", "Deshelve", "Detect",
    ]
    transfers = [s for s in seq.steps if isinstance(s, Transfer)]
    assert (transfers[0].from_state, transfers[0].to_state) == (sp.A_2_0, sp.B_1_M1)
    # Readout always probes zero first, then one.
    assert (transfers[1].from_state, transfers[1].to_state) == (sp.B_2_M1, sp.A_2_0)
    assert (transfers[2].from_state, transfers[2].to_state) == (sp.B_1_M1, sp.A_2_0)


def test_metastable_zero_prepares_via_shelving():
    seq = sp.build_sequence("M", Prepare.ZERO)
    transfers = [s for s in seq.steps if isinstance(s, Transfer)]
    assert (transfers[0].from_state, transfers[0].to_state) == (sp.A_2_0, sp.B_2_M1)


def test_optical_sequences_use_the_spectator_level():
    # |1> lives in the ground manifold, so it is parked in B during the
    # preparation checks and only brought back for readout.
    seq = sp.build_sequence("O", Prepare.ONE)
    pairs = [(s.from_state, s.to_state) for s in seq.steps if isinstance(s, Transfer)]
    assert (sp.A_2_0, sp.B_1_M1) in pairs
    assert pairs.count((sp.B_1_M1, sp.A_2_0)) == 2
    zero = sp.build_sequence("O", Prepare.ZERO)
    zero_pairs = [(s.from_state, s.to_state) for s in zero.steps if isinstance(s, Transfer)]
    assert zero_pairs[0] == (sp.A_2_0, sp.B_2_M1)


def test_ground_sequences_shelve_both_states():
    zero = sp.build_sequence("G", Prepare.ZERO)
    one = sp.build_sequence("G", Prepare.ONE)
    zero_pairs = [(s.from_state, s.to_state) for s in zero.steps if isinstance(s, Transfer)]
    one_pairs = [(s.from_state, s.to_state) for s in one.steps if isinstance(s, Transfer)]
    # Both preparations park the ion in B through the preparation checks.
    assert any(p[1].in_manifold(sp.Manifold.B) for p in zero_pairs[:2])
    assert any(p[1].in_manifold(sp.Manifold.B) for p in one_pairs[:2])
    # The |1> readout leg ends on the F=1 ground level.
    assert any(p[1] == sp.A_1_0 for p in one_pairs)
    assert any(p[1] == sp.A_1_0 for p in zero_pairs)


def test_superposition_rotation_follows_the_preparation_check():
    # The equal superposition is created from the surviving |0> preparation,
    # so the rotation must land between R1 and R2.
    for encoding in ("O", "M", "G"):
        seq = sp.build_sequence(encoding, Prepare.SUPERPOSITION)
        rotate = next(i for i, s in enumerate(seq.steps) if isinstance(s, Rotate))
        r1 = next(i for i, s in enumerate(seq.steps)
                  if isinstance(s, Detect) and s.label is DetectLabel.R1)
        r2 = next(i for i, s in enumerate(seq.steps)
                  if isinstance(s, Detect) and s.label is DetectLabel.R2)
        assert r1 < rotate < r2
        # It splits the encoding's two levels: one per manifold for O, both
        # dark for M, both bright for G.
        qubit = seq.steps[rotate]
        assert [(level.in_manifold(sp.Manifold.A), level.in_manifold(sp.Manifold.B))
                for level in (qubit.zero, qubit.one)] == {
            "O": [(False, True), (True, False)],
            "M": [(False, True), (False, True)],
            "G": [(True, False), (True, False)],
        }[encoding]
        # A pi/2 rotation: one channel projects each basis state to zero with
        # probability exactly 1/2, and to one otherwise.
        compiled = engine._compile(seq, sp.default_model())
        op = compiled.ops[rotate]
        assert op.detect is None
        zero, one = op.rotate
        assert (compiled.labels[zero], compiled.labels[one]) == (qubit.zero, qubit.one)
        (born,) = op.channels
        assert (born.probability, born.tests_success) == (0.5, True)
        for label in (zero, one):
            assert (born.to[label], born.failed_to[label]) == (zero, one)
        assert born.apart == {zero, one}


@pytest.mark.parametrize("encoding", ["O", "M", "G"])
def test_second_rotation_is_rejected(encoding):
    # The engine projects at Rotate, which matches deferred projection only
    # when no second coherent operation follows.
    seq = sp.build_sequence(encoding, Prepare.SUPERPOSITION)
    rotate = next(i for i, s in enumerate(seq.steps) if isinstance(s, Rotate))
    steps = seq.steps[: rotate + 1] + seq.steps[rotate : rotate + 1] + seq.steps[rotate + 1 :]
    with pytest.raises(ValueError, match="at most one Rotate"):
        sp.Sequence(steps)


def test_rotate_refuses_equal_levels():
    with pytest.raises(ValueError, match="zero and one must differ"):
        Rotate(sp.A_2_0, sp.A_2_0)


# build_sequence("M", Prepare.ONE): Cool R0 Cool Pump T R1 R2 T R3 T R4 Deshelve R5
@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda s: s[:5] + (s[6], s[5]) + s[7:], r"detections must be R0..R5 in order",
                 id="swapped-detections"),
    pytest.param(lambda s: s[:4] + s[5:], "R1 must follow the first transfer into manifold B",
                 id="no-shelving"),
    pytest.param(lambda s: s[:7] + s[8:], "R3 must directly follow a readout transfer into A",
                 id="no-readout-transfer"),
    pytest.param(lambda s: s[:11] + s[12:], "R5 must directly follow the deshelve step",
                 id="no-deshelve"),
    # A transfer between two levels of one manifold is refused as it is made.
    pytest.param(lambda s: s[:4] + (Transfer(sp.A_2_0, sp.A_1_0),) + s[5:],
                 "illegal transfer A:F=2,mF=0 -> A:F=1,mF=0", id="illegal-transfer"),
    # So is a transfer between two things that are not levels.
    pytest.param(lambda s: s[:4] + (Transfer("a", "b"),) + s[5:], "^illegal transfer a -> b$",
                 id="transfer-between-strings"),
    # The steps are a tuple, so they cannot change after they were judged.
    pytest.param(list, "^steps must be a tuple, got list$", id="list-of-steps"),
    pytest.param(lambda s: (None,) + s, "^steps must each be one of Cool, .*, got None$",
                 id="none-step"),
    # A Rotate splits two hyperfine levels: neither may be a sentinel or a non-level.
    pytest.param(lambda s: s[:6] + (Rotate("a", "b"),) + s[6:],
                 "^zero must be a hyperfine StateLabel, got 'a'$", id="rotate-strings"),
    pytest.param(lambda s: s[:6] + (Rotate(sp.B_2_M1, None),) + s[6:],
                 "^one must be a hyperfine StateLabel, got None$", id="rotate-none"),
    pytest.param(lambda s: s[:6] + (Rotate(WRONG_GROUND, sp.B_1_M1),) + s[6:],
                 "^zero must be a hyperfine StateLabel, got ", id="rotate-wrong-ground"),
    pytest.param(lambda s: s[:6] + (Rotate(sp.B_2_M1, LOST),) + s[6:],
                 "^one must be a hyperfine StateLabel, got ", id="rotate-lost"),
])
def test_malformed_step_lists_are_rejected(edit, message):
    steps = sp.build_sequence("M", Prepare.ONE).steps
    with pytest.raises(ValueError, match=message):
        sp.Sequence(edit(steps))


def test_step_lists_the_engine_cannot_run():
    steps = sp.build_sequence("M", Prepare.ONE).steps
    # With one cooling step a retry has nowhere to rewind to, so the list is
    # refused when it is built.
    with pytest.raises(ValueError, match="lacks a second cooling step"):
        sp.Sequence(steps[:2] + steps[3:])
    # So is a list whose cooling steps both come before R0: a retry would repeat R0.
    with pytest.raises(ValueError, match="lacks a second cooling step"):
        sp.Sequence((Cool(),) + steps[:2] + steps[3:])
    # A step of no known type is refused by name too.
    with pytest.raises(ValueError, match="^steps must each be one of .*, got 'wait'$"):
        sp.Sequence(("wait",) + steps)
    # Every Sequence holds all six detections, so only a bare step list lacks one.
    with pytest.raises(ValueError, match="sequence has no detection R3"):
        sp.Sequence.detect_index(SimpleNamespace(steps=steps[:8]), DetectLabel.R3)


def test_compile_binds_transfer_durations_to_matching_pairs_only(model):
    seq = sp.build_sequence("M", Prepare.ONE)
    pair, duration = (sp.B_2_M1, sp.A_2_0), 12.5e-6
    plain = engine._compile(seq, model)
    tuned = engine._compile(seq, model, {pair: duration})
    changed = [index for index, (before, after) in enumerate(zip(plain.ops, tuned.ops))
               if [c.probability for c in before.channels]
               != [c.probability for c in after.channels]]
    assert changed == [seq.steps.index(Transfer(*pair))]
    # The matching transfer decays over, and drives for, the override.
    assert [c.probability for c in tuned.ops[changed[0]].channels] == [
        decay_probability(duration, model.decay),
        pulse_success_probability(duration, model.pulse_for(*pair)),
    ]


@pytest.mark.parametrize("encoding", [
    pytest.param("Q", id="unknown-name"),
    # An encoding is a name of sp.ENCODINGS, never an object with levels,
    # not even M's own superposition Rotate.
    pytest.param(Rotate(sp.A_2_0, sp.A_1_0), id="foreign-levels"),
    pytest.param(Rotate(sp.B_2_M1, sp.B_1_M1), id="m-superposition-rotate"),
])
def test_build_sequence_takes_only_a_catalog_name(encoding):
    with pytest.raises(ValueError, match=f"^unknown encoding {re.escape(repr(encoding))};"):
        sp.build_sequence(encoding, Prepare.ZERO)


@pytest.mark.parametrize("name", [["M"], np.array(["M"])], ids=["list", "array"])
def test_an_unhashable_encoding_name_is_refused_by_name(model, name):
    # Neither is a name of sp.ENCODINGS, though the array compares equal to
    # "M"; each is refused as any unknown name is.
    message = re.escape(f"unknown encoding {name!r}; expected one of ['G', 'M', 'O']")
    with pytest.raises(ValueError, match=f"^{message}$"):
        sp.build_sequence(name, Prepare.ZERO)
    with pytest.raises(ValueError, match=f"^{message}$"):
        sp.ExperimentConfig(model=model, encoding=name)


@pytest.mark.parametrize("encoding", ["O", "M", "G"])
@pytest.mark.parametrize("bad", ["zero", "one", None, 0])
def test_build_sequence_refuses_a_prepare_that_is_not_a_prepare(encoding, bad):
    # A state's name is not its Prepare: it would otherwise build another
    # state's step list.
    with pytest.raises(ValueError, match=f"^prepare must be a Prepare, got {re.escape(repr(bad))}$"):
        sp.build_sequence(encoding, bad)

def test_detect_labels_cover_all_six_rounds():
    labels = [label.name for label in DetectLabel]
    assert labels == ["R0", "R1", "R2", "R3", "R4", "R5"]
    assert [int(label) for label in DetectLabel] == list(range(6))
