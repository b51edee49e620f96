"""Exhaustive check of the flag rules against an independently coded oracle.

The oracle below restates the acceptance rules from scratch: a shot is
rejected when the survival check R0 is dark, either preparation check R1/R2 is
bright, the readout pair R3/R4 is entirely dark, or the final survival check
R5 is dark.  Strict mode additionally rejects R3 bright with R4 dark, a
pattern the closed readout loop cannot produce with the ion intact.  The
first matching rule names the reason.  Surviving shots read out Zero when R3
was bright, One otherwise.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import spamsim as sp
from spamsim import engine


def oracle(b, strict=False):
    r0, r1, r2, r3, r4, r5 = b
    if not r0:
        return True, "R0Dark", None
    if r1:
        return True, "R1Bright", None
    if r2:
        return True, "R2Bright", None
    if not r3 and not r4:
        return True, "R3R4Dark", None
    if strict and r3 and not r4:
        return True, "R4Dark", None
    if not r5:
        return True, "R5Dark", None
    return False, "None", 0 if r3 else 1


ALL_PATTERNS = list(itertools.product((False, True), repeat=6))


@pytest.mark.parametrize("strict", [False, True])
def test_truth_table_all_64_patterns(strict):
    for pattern in ALL_PATTERNS:
        flagged, reason, inferred = sp.evaluate_flags(pattern, strict=strict)
        want_flagged, want_reason, want_inferred = oracle(pattern, strict)
        assert flagged == want_flagged, pattern
        assert reason.value == want_reason, pattern
        assert inferred == want_inferred, pattern


def packed(outcomes):
    """The R0..R5 pattern byte the chunk runner keeps (bit i = Ri)."""
    return sum(int(bright) << i for i, bright in enumerate(outcomes))


def table_lookup(patterns, strict):
    """The chunk runner's flags: each R0..R5 pattern looked up in its table."""
    codes, _, inferred = engine._FLAG_TABLES[strict].take(patterns, axis=1)
    return codes != 0, codes, inferred


@pytest.mark.parametrize("strict", [False, True])
def test_vectorized_flags_match_scalar(strict):
    patterns = np.array([packed(p) for p in ALL_PATTERNS], dtype=np.uint8)
    flagged, codes, inferred = table_lookup(patterns, strict)
    reasons = list(sp.FlagReason)
    for i, pattern in enumerate(ALL_PATTERNS):
        want_flagged, want_reason, want_inferred = oracle(pattern, strict)
        assert bool(flagged[i]) == want_flagged
        assert reasons[codes[i]].value == want_reason
        if not want_flagged:
            assert int(inferred[i]) == want_inferred


def test_strict_differs_exactly_on_r3_bright_r4_dark():
    differing = [
        p for p in ALL_PATTERNS
        if sp.evaluate_flags(p, strict=False)[:2] != sp.evaluate_flags(p, strict=True)[:2]
    ]
    # R0 bright, R1/R2 dark, R3 bright, R4 dark; R5 free.
    assert sorted(differing) == sorted(
        [(True, False, False, True, False, r5) for r5 in (False, True)]
    )
    for pattern in differing:
        assert sp.evaluate_flags(pattern, strict=True)[1] is sp.FlagReason.R4_DARK


def test_first_matching_rule_wins():
    # All-dark trips the survival check before anything else.
    assert sp.evaluate_flags((False,) * 6)[1] is sp.FlagReason.R0_DARK
    # R1 outranks R2.
    assert sp.evaluate_flags((True, True, True, True, True, True))[1] is sp.FlagReason.R1_BRIGHT
    assert sp.evaluate_flags((True, False, True, False, False, False))[1] is sp.FlagReason.R2_BRIGHT
    assert sp.evaluate_flags((True, False, False, False, False, False))[1] is sp.FlagReason.R3_R4_DARK
    assert sp.evaluate_flags((True, False, False, True, True, False))[1] is sp.FlagReason.R5_DARK


def test_accepted_patterns_and_inference():
    accepted = [p for p in ALL_PATTERNS if not sp.evaluate_flags(p)[0]]
    # R0 bright, R1/R2 dark, R5 bright, and at least one of R3/R4 bright.
    assert len(accepted) == 3
    for pattern in accepted:
        r0, r1, r2, r3, r4, r5 = pattern
        assert r0 and not r1 and not r2 and r5 and (r3 or r4)
        assert sp.evaluate_flags(pattern)[2] == (0 if r3 else 1)


def test_outcome_length_is_checked():
    with pytest.raises(ValueError):
        sp.evaluate_flags((True, True, True))


@given(st.integers(0, 63), st.booleans())
def test_scalar_vector_agreement_property(index, strict):
    pattern = ALL_PATTERNS[index]
    flagged, codes, inferred = table_lookup(np.array([packed(pattern)], dtype=np.uint8),
                                            strict)
    s_flagged, s_reason, s_inferred = sp.evaluate_flags(pattern, strict=strict)
    assert bool(flagged[0]) == s_flagged
    assert list(sp.FlagReason)[codes[0]] is s_reason
    if not s_flagged:
        assert int(inferred[0]) == s_inferred
