"""Atomic level structure for a single trapped ion with two qubit manifolds.

The ion has a fluorescing ground manifold A and a dark metastable manifold B.
Population detection senses manifold A only, so every state we track reduces
to "bright" or "dark" plus enough hyperfine structure to address individual
transfer transitions.  Two sentinel labels cover the failure modes that matter
to the protocol: ``WrongGround`` (population stranded somewhere in A that no
configured pulse addresses, but which still fluoresces) and ``Lost`` (no ion).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Manifold(enum.Enum):
    A = "A"  # ground, fluoresces during population detection
    B = "B"  # metastable, dark during population detection


class _Sentinel(enum.Enum):
    WRONG_GROUND = "WrongGround"
    LOST = "Lost"


@dataclass(frozen=True)
class StateLabel:
    """A hyperfine level ``(manifold, F, mF)`` or one of the two sentinels."""

    manifold: Manifold | None
    f: int | None
    mf: int | None
    sentinel: _Sentinel | None = None

    def __post_init__(self) -> None:
        if self.sentinel is not None:
            if self.manifold is not None or self.f is not None or self.mf is not None:
                raise ValueError("sentinel labels carry no quantum numbers")
            return
        if self.manifold is None or self.f is None or self.mf is None:
            raise ValueError("hyperfine labels need manifold, F and mF")
        if self.f not in (1, 2):
            raise ValueError(f"F must be 1 or 2, got {self.f}")
        if abs(self.mf) > self.f:
            raise ValueError(f"|mF| must not exceed F: F={self.f}, mF={self.mf}")

    @property
    def is_sentinel(self) -> bool:
        return self.sentinel is not None

    def fluoresces(self) -> bool:
        """Whether population detection sees this state as bright."""
        if self.sentinel is _Sentinel.WRONG_GROUND:
            return True
        if self.sentinel is _Sentinel.LOST:
            return False
        return self.manifold is Manifold.A

    def in_manifold(self, manifold: Manifold) -> bool:
        return self.sentinel is None and self.manifold is manifold

    def __str__(self) -> str:
        return format_state(self)

    def __repr__(self) -> str:
        return f"StateLabel({format_state(self)!r})"


def _hf(manifold: Manifold, f: int, mf: int) -> StateLabel:
    return StateLabel(manifold=manifold, f=f, mf=mf)


WRONG_GROUND = StateLabel(None, None, None, _Sentinel.WRONG_GROUND)
LOST = StateLabel(None, None, None, _Sentinel.LOST)

# The handful of hyperfine levels the protocol addresses.
A_2_0 = _hf(Manifold.A, 2, 0)
A_1_0 = _hf(Manifold.A, 1, 0)
B_2_M1 = _hf(Manifold.B, 2, -1)
B_1_M1 = _hf(Manifold.B, 1, -1)
B_2_P1 = _hf(Manifold.B, 2, 1)


def format_state(state: StateLabel) -> str:
    """Serialize to the wire format, e.g. ``"A:F=2,mF=0"`` or ``"Lost"``."""
    if state.sentinel is not None:
        return state.sentinel.value
    return f"{state.manifold.value}:F={state.f},mF={state.mf}"


def parse_state(text: str) -> StateLabel:
    """Inverse of :func:`format_state`."""
    text = text.strip()
    for sentinel in _Sentinel:
        if text == sentinel.value:
            return StateLabel(None, None, None, sentinel)
    try:
        manifold_text, quantum = text.split(":", 1)
        manifold = Manifold(manifold_text)
        f_part, mf_part = quantum.split(",", 1)
        if not f_part.startswith("F=") or not mf_part.startswith("mF="):
            raise ValueError
        return _hf(manifold, int(f_part[2:]), int(mf_part[3:]))
    except (ValueError, KeyError) as exc:
        raise ValueError(f"unparseable state label: {text!r}") from exc


def transition_allowed(from_state: StateLabel, to_state: StateLabel) -> bool:
    """True iff a transfer pulse may connect the two states.

    Transfer pulses always bridge the manifolds, and sentinels are not
    addressable; anything that is not a :class:`StateLabel` is no level.
    """
    if not all(isinstance(state, StateLabel) and not state.is_sentinel
               for state in (from_state, to_state)):
        return False
    return from_state.manifold is not to_state.manifold

