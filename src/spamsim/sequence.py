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

from .states import (
    A_1_0,
    A_2_0,
    B_1_M1,
    B_2_M1,
    B_2_P1,
    Manifold,
    QubitEncoding,
    StateLabel,
    encoding_catalog,
    transition_allowed,
)


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


SequenceStep = Union[Cool, Detect, Pump, Transfer, Deshelve, Rotate]


@dataclass(frozen=True)
class Sequence:
    encoding: QubitEncoding
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


def _detects(*labels: DetectLabel) -> list[SequenceStep]:
    return [Detect(label) for label in labels]


def build_sequence(encoding: QubitEncoding | str, prepare: Prepare) -> Sequence:
    """The full step list for one encoding and target preparation.

    For ``Prepare.SUPERPOSITION`` the state is prepared in zero, an ideal
    pi/2 rotation is inserted after the herald detection, and the measurement
    portion carries both mapping branches.
    """
    if isinstance(encoding, str):
        encoding = encoding_catalog(encoding)

    head: list[SequenceStep] = [Cool(), Detect(DetectLabel.R0), Cool(), Pump()]
    tail: list[SequenceStep] = [Deshelve(), Detect(DetectLabel.R5)]

    if encoding.name == "O":
        body = _optical_body(prepare)
    elif encoding.name == "M":
        body = _metastable_body(prepare)
    elif encoding.name == "G":
        body = _ground_body(prepare)
    else:
        raise ValueError(f"no sequence defined for encoding {encoding.name!r}")

    return Sequence(encoding, tuple(head + body + tail))


def _optical_body(prepare: Prepare) -> list[SequenceStep]:
    readout = [
        Transfer(B_2_M1, A_2_0),
        Detect(DetectLabel.R3),
        Transfer(B_1_M1, A_2_0),
        Detect(DetectLabel.R4),
    ]
    if prepare is Prepare.ZERO:
        return (
            [Transfer(A_2_0, B_2_M1)]
            + _detects(DetectLabel.R1, DetectLabel.R2)
            + readout
        )
    if prepare is Prepare.ONE:
        # Prepare one by shelving and returning through the spectator level,
        # then map the (bright) one state back into B for readout.
        return (
            [Transfer(A_2_0, B_1_M1), Detect(DetectLabel.R1)]
            + [Transfer(B_1_M1, A_2_0), Transfer(A_2_0, B_1_M1)]
            + [Detect(DetectLabel.R2)]
            + readout
        )
    return (
        [Transfer(A_2_0, B_2_M1), Detect(DetectLabel.R1)]
        + [Rotate(), Transfer(A_2_0, B_1_M1)]
        + [Detect(DetectLabel.R2)]
        + readout
    )


def _metastable_body(prepare: Prepare) -> list[SequenceStep]:
    target = B_2_M1 if prepare in (Prepare.ZERO, Prepare.SUPERPOSITION) else B_1_M1
    body: list[SequenceStep] = [Transfer(A_2_0, target), Detect(DetectLabel.R1)]
    if prepare is Prepare.SUPERPOSITION:
        body.append(Rotate())
    body += _detects(DetectLabel.R2) + [
        Transfer(B_2_M1, A_2_0),
        Detect(DetectLabel.R3),
        Transfer(B_1_M1, A_2_0),
        Detect(DetectLabel.R4),
    ]
    return body


def _ground_body(prepare: Prepare) -> list[SequenceStep]:
    target = A_2_0 if prepare in (Prepare.ZERO, Prepare.SUPERPOSITION) else A_1_0
    body: list[SequenceStep] = [
        Transfer(A_2_0, B_2_M1),
        Detect(DetectLabel.R1),
        Transfer(B_2_M1, target),
    ]
    if prepare is Prepare.SUPERPOSITION:
        body.append(Rotate())
    body += [
        Transfer(A_2_0, B_2_P1),
        Transfer(A_1_0, B_1_M1),
        Detect(DetectLabel.R2),
        Transfer(B_2_P1, A_2_0),
        Detect(DetectLabel.R3),
        Transfer(B_1_M1, A_1_0),
        Detect(DetectLabel.R4),
    ]
    return body
