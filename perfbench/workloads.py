"""The four benchmark workloads and the oracle checks on their outputs.

Each workload turns a seed and a worker count into one zero-argument call
(:meth:`Workload.arrange`, untimed), so the runner times exactly the call into
spamsim's public API.  Every output is then checked against an oracle
(:meth:`Workload.check`); each check counts as one attempted operation.

Why these four (see README.md for the metric map):

- ``spam-postselect``: the headline simulator path, where detection sampling
  dominates chunk time; also the 1-vs-N-worker determinism check.
- ``spam-rus``: the only retry path (prep ops re-applied over whole chunks),
  and the plain single-thread baseline.
- ``bias-scan``: superposition shots with perfect channels as 20 short
  ``run_experiment`` calls, so per-call overhead and collapse show here.
- ``cli-records``: the simulator is a small share; the per-row records
  writer, schema validation and histogram CSVs dominate.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
from dataclasses import dataclass
from importlib import resources
from typing import Callable

import jsonschema

import spamsim
import spamsim.analytics
import spamsim.cli
import spamsim.engine
from spamsim import Mode, Prepare

from spans import Target

# Oracle tolerance in standard errors.  Every run makes tens to hundreds of
# statistical checks on fresh seeds; at 5 SE a chance failure has odds of
# about 6e-7 per check.
Z_SE = 5.0

BIAS_RATIOS = (0.6, 0.7, 0.8, 0.9, 1.0)
RUS_MAX_ATTEMPTS = 3

# Shots per prepared state (per scan point for bias-scan) in one call.  Calls
# are kept short so that a run holds tens of them and its median is steady;
# the engine sizes are whole chunks so that nproc workers share them evenly.
SIZES = {
    "spam-postselect": 8 * spamsim.engine.CHUNK_SHOTS,
    "spam-rus": 8 * spamsim.engine.CHUNK_SHOTS,
    "bias-scan": 25_000,
    "cli-records": 20_000,
}
SMOKE_SIZES = {name: 2_000 for name in SIZES}


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""


def _exact_rejection(encoding: str, model) -> dict[str, float]:
    return {
        prepare.value: spamsim.predict_rejection_exact(
            spamsim.build_sequence(encoding, prepare), model
        )
        for prepare in (Prepare.ZERO, Prepare.ONE)
    }


def _standard_error(p: float, n: int) -> float:
    return math.sqrt(p * (1.0 - p) / n)


def _summary_bytes(result) -> bytes:
    """``summary.json`` exactly as ``spamsim run-spam`` writes it."""
    document = spamsim.spam_summary(result)
    return (json.dumps(document, indent=2, sort_keys=True) + "\n").encode()


def _schema(name: str) -> dict:
    return json.loads(resources.files("spamsim.schemas").joinpath(name).read_text())


# =========================================================================
# Oracle checks
# =========================================================================

def rejection_check(label: str, tally, exact: float) -> Check:
    """Rejected fraction within Z_SE standard errors of the exact value."""
    se = _standard_error(exact, tally.shots)
    gap = abs(tally.rejected_fraction - exact)
    return Check(
        f"{label} rejected fraction",
        gap <= Z_SE * se,
        f"{tally.rejected_fraction:.6g} vs exact {exact:.6g} ({gap / se:.2f} SE)",
    )


def rus_checks(label: str, tally, max_attempts: int, exact_postselect: float) -> list[Check]:
    """Tally invariants of a repeat-until-success batch, and a rejection
    bound: retries can only lower the post-select rejected fraction."""
    kept, wrong = tally.kept, tally.wrong
    se = _standard_error(exact_postselect, tally.shots)
    return [
        Check(f"{label} kept non-increasing",
              all(a >= b for a, b in zip(kept, kept[1:])), f"kept {kept}"),
        Check(f"{label} wrong <= kept",
              all(w <= k for w, k in zip(wrong, kept)), f"wrong {wrong} kept {kept}"),
        Check(f"{label} reasons sum to shots",
              sum(tally.reasons.values()) == tally.shots,
              f"{sum(tally.reasons.values())} vs {tally.shots}"),
        Check(f"{label} accepted split",
              tally.accepted_zero + tally.accepted_one == tally.accepted,
              f"{tally.accepted_zero} + {tally.accepted_one} vs {tally.accepted}"),
        Check(f"{label} attempts within budget",
              1 <= tally.attempts_max <= max_attempts
              and tally.shots <= tally.attempts_total <= max_attempts * tally.shots,
              f"max {tally.attempts_max}, total {tally.attempts_total}"),
        Check(f"{label} rejected <= post-select exact",
              tally.rejected_fraction <= exact_postselect + Z_SE * se,
              f"{tally.rejected_fraction:.6g} vs {exact_postselect:.6g} + {Z_SE} SE"),
    ]


def bias_checks(family_name: str, points) -> list[Check]:
    return [
        Check(
            f"{family_name} t/t_pi={point.ratio}",
            abs(point.measured - point.predicted) <= Z_SE * point.std_error,
            f"measured {point.measured:+.5f} predicted {point.predicted:+.5f}"
            f" SE {point.std_error:.5f}",
        )
        for point in points
    ]


def _records_rows(path: str) -> tuple[int, int]:
    """(rows, unflagged rows) of a records CSV; ``flagged`` is column 8."""
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()[1:]
    unflagged = sum(1 for line in lines if line.split(",")[8] == "0")
    return len(lines), unflagged


def cli_checks(exit_code: int, out_dir: str, shots_per_state: int) -> list[Check]:
    checks = [Check("run-spam exit code", exit_code == 0, f"exit {exit_code}")]
    if exit_code != 0:
        return checks
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as handle:
        summary = json.load(handle)
    for state in ("zero", "one"):
        rows, unflagged = _records_rows(os.path.join(out_dir, f"records_{state}.csv"))
        accepted = summary["states"][state]["accepted"]
        checks.append(Check(f"records_{state} rows = shots", rows == shots_per_state,
                            f"{rows} vs {shots_per_state}"))
        checks.append(Check(f"records_{state} unflagged rows = accepted",
                            unflagged == accepted, f"{unflagged} vs {accepted}"))
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as handle:
        listed = set(json.load(handle)["outputs"]) | {"manifest.json"}
    present = set(os.listdir(out_dir))
    checks.append(Check("manifest lists every file written", listed == present,
                        f"unlisted {sorted(present - listed)}, missing {sorted(listed - present)}"))
    return checks


# =========================================================================
# Workloads
# =========================================================================

class Workload:
    """One closed-loop workload: each call starts when the previous returns."""

    name = ""
    workers_fixed: int | None = None  # None: run at nproc, paired with 1 worker

    def __init__(self, shots: int, workdir: str):
        self.shots_per_unit = shots
        self.workdir = workdir
        self.model = spamsim.default_model()

    def arrange(self, seed: int, workers: int) -> Callable[[], object]:
        """Untimed preparation; returns the call to time."""
        raise NotImplementedError

    def shots(self, output) -> int:
        """Prepared-state shots one call simulated."""
        raise NotImplementedError

    def check(self, outputs: list[tuple[int, object]]) -> list[Check]:
        """Oracle checks over the (workers, output) calls of one seed."""
        raise NotImplementedError

    def counts(self, output) -> dict[str, int]:
        """Per-call counts the spans cannot see (files written)."""
        return {}

    def release(self, outputs: list[tuple[int, object]]) -> None:
        """Drop what the calls left behind."""

    def sizes(self) -> dict:
        return {"shots": self.shots_per_unit}


class SpamPostselect(Workload):
    name = "spam-postselect"

    def __init__(self, shots, workdir):
        super().__init__(shots, workdir)
        self.exact = _exact_rejection("M", self.model)
        self.schema = _schema("summary.schema.json")

    def arrange(self, seed, workers):
        config = spamsim.ExperimentConfig(
            model=self.model, encoding="M", shots=self.shots_per_unit, seed=seed
        )
        return lambda: spamsim.run_experiment(config, workers=workers)

    def shots(self, output):
        return sum(tally.shots for tally in output.states.values())

    def check(self, outputs):
        checks = []
        for workers, result in outputs:
            for state, tally in result.states.items():
                checks.append(rejection_check(f"w{workers} {state}", tally, self.exact[state]))
        documents = {workers: _summary_bytes(result) for workers, result in outputs}
        texts = set(documents.values())
        checks.append(Check("summary.json identical across worker counts", len(texts) == 1,
                            f"{len(texts)} distinct documents for workers {sorted(documents)}"))
        try:
            jsonschema.validate(json.loads(next(iter(texts))), self.schema)
            checks.append(Check("summary validates against summary.schema.json", True))
        except jsonschema.ValidationError as exc:
            checks.append(Check("summary validates against summary.schema.json", False,
                                exc.message))
        return checks

    def sizes(self):
        return {"encoding": "M", "mode": "post-select", "shots_per_state": self.shots_per_unit,
                "histograms": True}


class SpamRus(Workload):
    name = "spam-rus"
    workers_fixed = 1

    def __init__(self, shots, workdir):
        super().__init__(shots, workdir)
        self.exact = _exact_rejection("O", self.model)

    def arrange(self, seed, workers):
        config = spamsim.ExperimentConfig(
            model=self.model, encoding="O", shots=self.shots_per_unit, seed=seed,
            mode=Mode.REPEAT_UNTIL_SUCCESS, max_attempts=RUS_MAX_ATTEMPTS,
        )
        return lambda: spamsim.run_experiment(config, workers=workers,
                                              collect_histograms=False)

    def shots(self, output):
        return sum(tally.shots for tally in output.states.values())

    def check(self, outputs):
        return [
            check
            for workers, result in outputs
            for state, tally in result.states.items()
            for check in rus_checks(f"w{workers} {state}", tally, RUS_MAX_ATTEMPTS,
                                    self.exact[state])
        ]

    def sizes(self):
        return {"encoding": "O", "mode": "rus", "max_attempts": RUS_MAX_ATTEMPTS,
                "shots_per_state": self.shots_per_unit, "histograms": False}


class BiasScan(Workload):
    name = "bias-scan"

    def arrange(self, seed, workers):
        def scan():
            return [
                (family.name, spamsim.bias_scan(family, BIAS_RATIOS, self.shots_per_unit,
                                                model=self.model, seed=seed,
                                                workers=workers))
                for family in spamsim.BIAS_FAMILIES
            ]
        return scan

    def shots(self, output):
        return sum(point.shots for _, points in output for point in points)

    def check(self, outputs):
        return [
            check
            for _, scan in outputs
            for family_name, points in scan
            for check in bias_checks(family_name, points)
        ]

    def sizes(self):
        return {"families": [family.name for family in spamsim.BIAS_FAMILIES],
                "ratios": list(BIAS_RATIOS), "shots_per_point": self.shots_per_unit}


class CliRecords(Workload):
    name = "cli-records"

    def arrange(self, seed, workers):
        out_dir = os.path.join(self.workdir, f"cli-records-{seed}-w{workers}")
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = ["run-spam", "--paper-defaults", "--encoding", "M",
                "--shots", str(self.shots_per_unit), "--seed", str(seed), "--records",
                "--threads", str(workers), "--out", out_dir]

        def command():
            with contextlib.redirect_stdout(io.StringIO()):
                return spamsim.cli.main(argv), out_dir

        return command

    def shots(self, output):
        return 2 * self.shots_per_unit

    def check(self, outputs):
        return [
            check
            for _, (exit_code, out_dir) in outputs
            for check in cli_checks(exit_code, out_dir, self.shots_per_unit)
        ]

    def counts(self, output):
        _, out_dir = output
        sizes = [os.path.getsize(os.path.join(out_dir, name)) for name in os.listdir(out_dir)]
        return {"rows_written": 2 * self.shots_per_unit, "bytes_written": sum(sizes)}

    def release(self, outputs):
        for _, (_, out_dir) in outputs:
            shutil.rmtree(out_dir, ignore_errors=True)

    def sizes(self):
        return {"command": "run-spam", "encoding": "M", "mode": "post-select",
                "shots_per_state": self.shots_per_unit, "records": True}


WORKLOADS = {cls.name: cls for cls in (SpamPostselect, SpamRus, BiasScan, CliRecords)}


# =========================================================================
# Traced entry points
# =========================================================================

def _describe_run(args, kwargs, result) -> dict:
    tallies = result.states.values()
    chunk = spamsim.engine.CHUNK_SHOTS
    return {
        "workers": kwargs.get("workers", 1),
        "shots": sum(t.shots for t in tallies),
        "chunks": sum(-(-t.shots // chunk) for t in tallies),
        "attempts": sum(t.attempts_total for t in tallies),
        "accepted": sum(t.accepted for t in tallies),
    }


def _describe_histogram(args, kwargs, result) -> dict:
    return {"bins": len(args[0].bin_lows)}


def trace_targets() -> list[Target]:
    """The names each layer looks up, wrapped as spans.

    ``run_experiment`` is wrapped where the benchmark, ``analytics`` and
    ``cli`` each look it up, so nested engine calls are attributed to the
    engine layer whoever makes them.
    """
    run = ("engine.run_experiment", "engine", _describe_run)
    return [
        Target(spamsim, "run_experiment", *run),
        Target(spamsim.analytics, "run_experiment", *run),
        Target(spamsim.cli, "run_experiment", *run),
        Target(spamsim, "bias_scan", "analytics.bias_scan", "analytics"),
        Target(spamsim.cli, "spam_summary", "analytics.spam_summary", "analytics"),
        Target(spamsim.cli, "write_histogram_csv", "detection.write_histogram_csv",
               "detection", _describe_histogram),
        Target(jsonschema, "validate", "jsonschema.validate", "schema"),
        Target(spamsim.cli, "main", "cli.main", "cli"),
    ]
