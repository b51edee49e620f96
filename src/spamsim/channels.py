"""Stochastic error channels: transfer pulses, optical pumping, metastable decay.

The channels are stated here as parameters and probabilities; the engine
applies them to the state labels of whole chunks of shots.  Conventions
shared by every channel:

* a failed transfer pulse leaves the population in its source state,
* a failed pump attempt leaves the population as ``WrongGround`` (still in the
  fluorescing manifold, but not addressed by any configured pulse),
* decay out of manifold B lands in ``WrongGround``,
* pulses are one-directional, state-selective maps: population that is not in
  the pulse's source state is never moved, and sentinels are never addressed.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, replace
from importlib import resources

from .detection import (
    DetectionModel, _check_nonnegative, _check_positive, _check_probability, _is_real,
)
from .states import (
    Manifold,
    StateLabel,
    format_state,
    parse_state,
    transition_allowed,
)


class ConfigError(ValueError):
    """Raised when a configuration document violates the schema or a model check."""


@dataclass(frozen=True)
class TransferPulse:
    """A coherent transfer between one A-manifold and one B-manifold level."""

    from_state: StateLabel
    to_state: StateLabel
    error_rate: float
    t_pi: float

    def __post_init__(self) -> None:
        if not transition_allowed(self.from_state, self.to_state):
            raise ValueError(
                f"pulse must bridge the manifolds: {self.from_state} -> {self.to_state}"
            )
        _check_probability("error_rate", self.error_rate)
        _check_positive("t_pi", self.t_pi)


@dataclass(frozen=True)
class PumpChannel:
    """Optical pumping of all fluorescing population into one target state."""

    target: StateLabel
    error_rate: float
    duration: float

    def __post_init__(self) -> None:
        if not self.target.in_manifold(Manifold.A):
            raise ValueError("pump target must be a hyperfine level of manifold A")
        _check_probability("error_rate", self.error_rate)
        _check_nonnegative("duration", self.duration)


@dataclass(frozen=True)
class DecayChannel:
    """Exponential decay of manifold B with 1/e lifetime in seconds; inf means none."""

    lifetime: float

    def __post_init__(self) -> None:
        if not (_is_real(self.lifetime) and self.lifetime > 0):
            raise ValueError(f"lifetime must be positive, got {self.lifetime!r}")

    @property
    def disabled(self) -> bool:
        return math.isinf(self.lifetime)


def decay_probability(duration: float, decay: DecayChannel) -> float:
    """Probability that a B-state decays within ``duration`` seconds."""
    _check_nonnegative("duration", duration)
    return -math.expm1(-duration / decay.lifetime)


def pulse_success_probability(duration: float, pulse: TransferPulse) -> float:
    """Effective transfer probability when driving for ``duration`` seconds.

    The duration factor is sin^2(pi*t / (2*t_pi)), so a calibrated pi-time
    transfers with probability ``1 - error_rate``.
    """
    _check_nonnegative("duration", duration)
    factor = math.sin(math.pi * duration / (2.0 * pulse.t_pi)) ** 2
    return (1.0 - pulse.error_rate) * factor


@dataclass(frozen=True)
class ErrorModel:
    """Every stochastic parameter of one simulated apparatus."""

    pump: PumpChannel
    pulses: tuple[TransferPulse, ...]
    decay: DecayChannel
    detection: DetectionModel
    cooling_duration: float
    loss_probability_per_shot: float

    def __post_init__(self) -> None:
        for name, kind in (("pump", PumpChannel), ("decay", DecayChannel),
                           ("detection", DetectionModel)):
            block = getattr(self, name)
            if not isinstance(block, kind):
                raise ValueError(f"{name} must be a {kind.__name__}, got {block!r}")
        if not (isinstance(self.pulses, tuple)
                and all(isinstance(pulse, TransferPulse) for pulse in self.pulses)):
            raise ValueError(f"pulses must be a tuple of TransferPulse, got {self.pulses!r}")
        _check_probability("loss_probability_per_shot", self.loss_probability_per_shot)
        _check_nonnegative("cooling_duration", self.cooling_duration)
        pairs = [_pair_key(pulse.from_state, pulse.to_state) for pulse in self.pulses]
        for index, (low, high) in enumerate(pairs):
            if (low, high) in pairs[:index]:
                raise ValueError(f"duplicate pulse for transition {low} <-> {high}")

    def pulse_for(self, from_state: StateLabel, to_state: StateLabel) -> TransferPulse:
        """The configured pulse for a transition, oriented from -> to."""
        if not transition_allowed(from_state, to_state):
            raise ValueError(f"no transition {from_state} -> {to_state}")
        for pulse in self.pulses:
            if pulse.from_state == from_state and pulse.to_state == to_state:
                return pulse
            if pulse.from_state == to_state and pulse.to_state == from_state:
                return replace(pulse, from_state=from_state, to_state=to_state)
        raise ValueError(f"model has no pulse for transition {from_state} <-> {to_state}")

    def with_perfect_channels(self) -> "ErrorModel":
        """Copy with zero pump/pulse error rates, no decay and no ion loss.

        Detection counts keep their statistics; only the channel randomness is
        switched off.
        """
        return replace(
            self,
            pump=replace(self.pump, error_rate=0.0),
            pulses=tuple(replace(p, error_rate=0.0) for p in self.pulses),
            decay=DecayChannel(lifetime=math.inf),
            loss_probability_per_shot=0.0,
        )


def _pair_key(a: StateLabel, b: StateLabel) -> tuple[StateLabel, StateLabel]:
    return (a, b) if a.in_manifold(Manifold.A) else (b, a)


# =========================================================================
# Configuration documents
# =========================================================================

@functools.lru_cache(maxsize=None)
def schema_validator(schema_name: str):
    """The validator for one bundled schema, built once per process.

    The schemas are package data, so they are not checked against their
    metaschema here; ``tests/test_cli.py`` does that once for every schema.
    """
    from jsonschema.validators import validator_for

    text = resources.files("spamsim.schemas").joinpath(schema_name).read_text()
    schema = json.loads(text)
    return validator_for(schema)(schema)


def validate_document(document: dict, schema_name: str) -> None:
    """Raise the error ``jsonschema.validate`` would raise for ``document``."""
    from jsonschema.exceptions import best_match

    error = best_match(schema_validator(schema_name).iter_errors(document))
    if error is not None:
        raise error


def model_to_config(model: ErrorModel) -> dict:
    """Serialize an :class:`ErrorModel` to its JSON document form."""
    return {
        "pump": {**asdict(model.pump), "target": format_state(model.pump.target)},
        "pulses": [
            {
                "from": format_state(p.from_state),
                "to": format_state(p.to_state),
                "error_rate": p.error_rate,
                "t_pi": p.t_pi,
            }
            for p in model.pulses
        ],
        # JSON has no infinity; null is the config form of "no decay".
        "decay": {"lifetime": None if model.decay.disabled else model.decay.lifetime},
        "detection": asdict(model.detection),
        "durations": {"cooling": model.cooling_duration},
        "loss_probability_per_shot": model.loss_probability_per_shot,
    }


def model_from_config(document: dict) -> ErrorModel:
    """Validate a JSON document against ``config.schema.json`` and build its model.

    The schema checks the document's shape: its keys, each value's JSON type,
    the state strings and the pulse order.  The dataclass checks judge every
    value.  Raises :class:`ConfigError` with jsonschema's message for a shape
    violation, or with the message of the failed check, which names the field.
    """
    from jsonschema.exceptions import ValidationError

    try:
        validate_document(document, "config.schema.json")
    except ValidationError as exc:
        raise ConfigError(f"invalid configuration: {exc.message}") from exc
    return _build_model(document)


def _build_model(document: dict) -> ErrorModel:
    """Build an :class:`ErrorModel` from a document that matches the schema.

    No jsonschema runs here; the dataclass checks judge every value, and a
    failed one is raised as :class:`ConfigError`.  The refusal of a value in
    a block names the block (``pump``, ``pulses[3]``, ``decay`` or
    ``detection``), since the blocks share field names such as ``error_rate``.
    """
    def block(name: str, build, *args):
        try:
            return build(*args)
        except ValueError as exc:
            raise ConfigError(f"invalid configuration: {name}: {exc}") from exc

    def pulse(entry: dict) -> TransferPulse:
        return TransferPulse(
            from_state=parse_state(entry["from"]),
            to_state=parse_state(entry["to"]),
            error_rate=entry["error_rate"],
            t_pi=entry["t_pi"],
        )

    pump, lifetime = document["pump"], document["decay"]["lifetime"]
    durations = document.get("durations", {})
    parts = dict(
        pump=block("pump", lambda: PumpChannel(**{**pump, "target": parse_state(pump["target"])})),
        pulses=tuple(block(f"pulses[{index}]", pulse, entry)
                     for index, entry in enumerate(document["pulses"])),
        decay=block("decay", DecayChannel, math.inf if lifetime is None else lifetime),
        detection=block("detection", lambda: DetectionModel(**document["detection"])),
    )
    try:
        return ErrorModel(
            **parts,
            cooling_duration=durations.get("cooling", 1e-3),
            loss_probability_per_shot=document.get("loss_probability_per_shot", 0.0),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


def load_error_model(path: str) -> ErrorModel:
    """Read and validate a model configuration file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            document = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
    return model_from_config(document)


def save_error_model(model: ErrorModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(model_to_config(model), handle, indent=2, sort_keys=True)
        handle.write("\n")


def default_model() -> ErrorModel:
    """The bundled default apparatus configuration.

    ``default_config.json`` is package data, so it is built without schema
    validation and without loading jsonschema; ``tests/test_cli.py`` checks
    it against ``config.schema.json`` and against :func:`model_from_config`.
    """
    text = resources.files("spamsim.data").joinpath("default_config.json").read_text()
    return _build_model(json.loads(text))
