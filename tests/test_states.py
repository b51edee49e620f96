import pytest
from hypothesis import given
from hypothesis import strategies as st

import spamsim as sp
from spamsim.states import LOST, WRONG_GROUND, Manifold, StateLabel, format_state


def test_parse_format_round_trip():
    for state in (sp.A_2_0, sp.A_1_0, sp.B_2_M1, sp.B_1_M1, sp.B_2_P1, WRONG_GROUND, LOST):
        assert sp.parse_state(format_state(state)) == state
    assert repr(sp.A_2_0) == "StateLabel('A:F=2,mF=0')"


def test_parse_known_spellings():
    assert sp.parse_state("A:F=2,mF=0") == sp.A_2_0
    assert sp.parse_state("B:F=1,mF=-1") == sp.B_1_M1
    assert sp.parse_state(" Lost ") == LOST


@pytest.mark.parametrize("text", ["", "A", "A:F=2", "C:F=2,mF=0", "A:F=3,mF=0", "A:F=1,mF=2", "A:mF=0,F=2"])
def test_parse_rejects_malformed(text):
    with pytest.raises(ValueError):
        sp.parse_state(text)


@given(
    manifold=st.sampled_from(list(Manifold)),
    f=st.sampled_from([1, 2]),
    mf=st.integers(-2, 2),
)
def test_label_round_trip_property(manifold, f, mf):
    if abs(mf) > f:
        with pytest.raises(ValueError):
            StateLabel(manifold, f, mf)
        return
    state = StateLabel(manifold, f, mf)
    assert sp.parse_state(format_state(state)) == state


def test_sentinels_carry_no_quantum_numbers():
    with pytest.raises(ValueError):
        StateLabel(Manifold.A, 2, 0, WRONG_GROUND.sentinel)


def test_hyperfine_labels_need_all_three_quantum_numbers():
    with pytest.raises(ValueError, match="hyperfine labels need manifold, F and mF"):
        StateLabel(Manifold.A, None, 0)


def test_fluorescence_by_manifold():
    assert sp.A_2_0.fluoresces()
    assert sp.A_1_0.fluoresces()
    assert not sp.B_2_M1.fluoresces()
    assert not sp.B_1_M1.fluoresces()
    # A stranded ground ion still scatters photons; a lost ion never does.
    assert WRONG_GROUND.fluoresces()
    assert not LOST.fluoresces()


def test_transfer_pulses_bridge_manifolds_only():
    assert sp.transition_allowed(sp.A_2_0, sp.B_2_M1)
    assert sp.transition_allowed(sp.B_1_M1, sp.A_1_0)
    assert not sp.transition_allowed(sp.A_2_0, sp.A_1_0)
    assert not sp.transition_allowed(sp.B_2_M1, sp.B_1_M1)
    assert not sp.transition_allowed(WRONG_GROUND, sp.B_2_M1)
    assert not sp.transition_allowed(sp.A_2_0, LOST)
    # Anything that is not a StateLabel is no level, and connects to none.
    assert not sp.transition_allowed("a", "b")
    assert not sp.transition_allowed(sp.A_2_0, None)

