"""Step lists for the flagged state-preparation-and-measurement protocol.

Every shot follows the same skeleton regardless of encoding: verify the ion is
present (cool, detect R0), prepare the target state (cool, pump, shelving
transfers, detect R1), map the qubit onto the bright/dark manifolds and read
it out (R2 through R4 with interleaved transfers), then empty the metastable
manifold and confirm the ion survived (deshelve, R5).  The six detection
outcomes feed the flag logic in :mod:`spamsim.engine`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union

from .states import A_1_0, A_2_0, B_1_M1, B_2_M1, B_2_P1, Manifold, StateLabel, transition_allowed


class DetectLabel(enum.IntEnum):
    R0 = 0
    R1 = 1
    R2 = 2
    R3 = 3
    R4 = 4
    R5 = 5


class Prepare(enum.Enum):
    ZERO = "zero"
    ONE = "one"
    SUPERPOSITION = "superposition"


@dataclass(frozen=True)
class Cool:
    pass


@dataclass(frozen=True)
class Detect:
    label: DetectLabel


@dataclass(frozen=True)
class Pump:
    pass


@dataclass(frozen=True)
class Transfer:
    from_state: StateLabel
    to_state: StateLabel

    def __post_init__(self) -> None:
        if not transition_allowed(self.from_state, self.to_state):
            raise ValueError(f"illegal transfer {self.from_state} -> {self.to_state}")


@dataclass(frozen=True)
class Deshelve:
    pass


@dataclass(frozen=True)
class Rotate:
    """The ideal pi/2 rotation that makes the equal superposition of zero and one."""

    zero: StateLabel
    one: StateLabel

    def __post_init__(self) -> None:
        if self.zero == self.one:
            raise ValueError("zero and one must differ")


SequenceStep = Union[Cool, Detect, Pump, Transfer, Deshelve, Rotate]


@dataclass(frozen=True)
class Sequence:
    steps: tuple[SequenceStep, ...]

    def __post_init__(self) -> None:
        self._validate()

    def _validate(self) -> None:
        labels = [s.label for s in self.steps if isinstance(s, Detect)]
        if labels != list(DetectLabel):
            raise ValueError(f"detections must be R0..R5 in order, got {labels}")
        first_shelve = next(
            (i for i, s in enumerate(self.steps)
             if isinstance(s, Transfer) and s.to_state.in_manifold(Manifold.B)),
            None,
        )
        if first_shelve is None or first_shelve > self.detect_index(DetectLabel.R1):
            raise ValueError("R1 must follow the first transfer into manifold B")
        for r_label in (DetectLabel.R3, DetectLabel.R4):
            before = self.steps[self.detect_index(r_label) - 1]
            if not (isinstance(before, Transfer) and before.to_state.in_manifold(Manifold.A)):
                raise ValueError(f"{r_label.name} must directly follow a readout transfer into A")
        if not isinstance(self.steps[self.detect_index(DetectLabel.R5) - 1], Deshelve):
            raise ValueError("R5 must directly follow the deshelve step")
        # The engine projects at Rotate; with a second coherent operation that
        # would differ from projecting at the first step that tells zero from one.
        if sum(isinstance(s, Rotate) for s in self.steps) > 1:
            raise ValueError("a sequence may hold at most one Rotate")

    def detect_index(self, label: DetectLabel) -> int:
        for i, step in enumerate(self.steps):
            if isinstance(step, Detect) and step.label == label:
                return i
        raise ValueError(f"sequence has no detection {label.name}")

    @property
    def retry_start(self) -> int:
        """Index of the cooling step a repeat-until-success retry rewinds to:
        the first after R0, which must come before R1, so that R1 is the only
        detection a retry repeats.  Index 2 in every built sequence."""
        for index in range(self.detect_index(DetectLabel.R0) + 1, self.prep_end):
            if isinstance(self.steps[index], Cool):
                return index
        raise ValueError("sequence lacks a second cooling step between R0 and R1 to rewind to")

    @property
    def prep_end(self) -> int:
        """Index of the herald detection R1 ending the preparation portion."""
        return self.detect_index(DetectLabel.R1)


_R0, _R1, _R2, _R3, _R4, _R5 = (Detect(label) for label in DetectLabel)

# Every shot starts by checking for the ion and pumping it into A:F=2,mF=0,
# and ends by emptying B and checking that the ion survived.
_HEAD: tuple[SequenceStep, ...] = (Cool(), _R0, Cool(), Pump())
_TAIL: tuple[SequenceStep, ...] = (Deshelve(), _R5)

# The readout of O and M: zero is read first (R3), then one (R4), each by a
# transfer from its B level into the bright A:F=2,mF=0.
_READ_B_TO_A = (Transfer(B_2_M1, A_2_0), _R3, Transfer(B_1_M1, A_2_0), _R4)
# The readout of G: both qubit states are shelved for R2, then each is
# returned to its own ground level and read.
_READ_G = (
    Transfer(A_2_0, B_2_P1), Transfer(A_1_0, B_1_M1), _R2,
    Transfer(B_2_P1, A_2_0), _R3, Transfer(B_1_M1, A_1_0), _R4,
)
# The steps between the pump and the deshelve step, one entry per encoding
# and target preparation.  A superposition is prepared in zero, and the ideal
# pi/2 rotation between the encoding's two levels follows the herald
# detection R1 (and precedes R2), so the measurement portion carries both
# mapping branches.
_BODIES: dict[tuple[str, Prepare], tuple[SequenceStep, ...]] = {
    ("O", Prepare.ZERO): (Transfer(A_2_0, B_2_M1), _R1, _R2, *_READ_B_TO_A),
    # Prepare one by shelving and returning through the spectator level,
    # then map the (bright) one state back into B for readout.
    ("O", Prepare.ONE): (
        Transfer(A_2_0, B_1_M1), _R1, Transfer(B_1_M1, A_2_0), Transfer(A_2_0, B_1_M1), _R2,
        *_READ_B_TO_A,
    ),
    # Optical qubit: one state per manifold.
    ("O", Prepare.SUPERPOSITION): (
        Transfer(A_2_0, B_2_M1), _R1, Rotate(B_2_M1, A_2_0), Transfer(A_2_0, B_1_M1), _R2,
        *_READ_B_TO_A,
    ),
    ("M", Prepare.ZERO): (Transfer(A_2_0, B_2_M1), _R1, _R2, *_READ_B_TO_A),
    ("M", Prepare.ONE): (Transfer(A_2_0, B_1_M1), _R1, _R2, *_READ_B_TO_A),
    # Metastable qubit: both states dark, read out through the ground manifold.
    ("M", Prepare.SUPERPOSITION): (
        Transfer(A_2_0, B_2_M1), _R1, Rotate(B_2_M1, B_1_M1), _R2, *_READ_B_TO_A,
    ),
    ("G", Prepare.ZERO): (Transfer(A_2_0, B_2_M1), _R1, Transfer(B_2_M1, A_2_0), *_READ_G),
    ("G", Prepare.ONE): (Transfer(A_2_0, B_2_M1), _R1, Transfer(B_2_M1, A_1_0), *_READ_G),
    # Ground-level qubit: both states bright, shelved through the metastable manifold.
    ("G", Prepare.SUPERPOSITION): (
        Transfer(A_2_0, B_2_M1), _R1, Transfer(B_2_M1, A_2_0), Rotate(A_2_0, A_1_0), *_READ_G,
    ),
}
ENCODINGS = tuple(dict.fromkeys(name for name, _ in _BODIES))  # the names, in table order


def _check_encoding(encoding: str) -> None:
    """Refuse anything but one of the names in :data:`ENCODINGS`."""
    if not (isinstance(encoding, str) and encoding in ENCODINGS):
        raise ValueError(f"unknown encoding {encoding!r}; expected one of {sorted(ENCODINGS)}")


def build_sequence(encoding: str, prepare: Prepare) -> Sequence:
    """The full step list for one encoding of :data:`ENCODINGS` and target preparation."""
    _check_encoding(encoding)
    if not isinstance(prepare, Prepare):
        raise ValueError(f"prepare must be a Prepare, got {prepare!r}")
    return Sequence(_HEAD + _BODIES[encoding, prepare] + _TAIL)
