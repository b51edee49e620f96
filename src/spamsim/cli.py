"""Command-line front end.

Subcommands wrap the engine and analytics layers for batch use: ``run-spam``
executes experiments and writes their summaries, ``calibrate-threshold`` fits
count histograms, ``predict-rejection`` prints the closed-form rejection
table, ``bias-scan`` produces measured-versus-predicted bias curves, and
``lifetime-fit`` estimates the metastable lifetime from decay samples.

Every probability is printed with six significant digits.  Exit codes:
0 success, 2 configuration or argument violation, 3 I/O failure,
4 inseparable histograms during calibration.  Commands that write files also
write a run manifest sufficient to replay them; summary documents carry no
timestamps, so a repeated seed reproduces them byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .analytics import (
    BIAS_FAMILIES,
    bias_family,
    bias_scan,
    check_z,
    first_order_rate,
    fit_lifetime,
    predict_rejection_exact,
    rejection_contributions,
    spam_summary,
)
from .channels import ConfigError, default_model, load_error_model, validate_document
from .detection import (
    ThresholdSeparationError,
    calibrate_threshold,
    read_histogram_csv,
    write_histogram_csv,
)
from .engine import (
    ExperimentConfig,
    Mode,
    evaluate_flags,
    run_experiment,
)
from .sequence import Prepare, build_sequence

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_SEPARATION = 4

_ENCODINGS = ("O", "M", "G")
_THREADS_HELP = "threads in all, the calling one included (1 starts no other)"


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _resolve_seed(value: int | None) -> int:
    """Explicit flag first, then the SPAMSIM_SEED environment, then zero."""
    if value is not None:
        return value
    env = os.environ.get("SPAMSIM_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ConfigError(f"SPAMSIM_SEED must be an integer, got {env!r}") from None


def _load_model(args):
    if args.paper_defaults and args.config is not None:
        raise ConfigError("--config and --paper-defaults are mutually exclusive")
    return default_model() if args.config is None else load_error_model(args.config)


def _write_json(directory: str, name: str, document: dict) -> str:
    """Write ``document`` as ``<name>.json`` once its text matches ``<name>.schema.json``.

    The file is standard JSON: a non-finite float raises ``ValueError``
    before the file is opened.  Returns the path written.
    """
    text = json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"
    validate_document(json.loads(text), f"{name}.schema.json")
    path = os.path.join(directory, f"{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def _write_manifest(args, outputs: list[str]) -> None:
    """Write ``manifest.json`` into ``args.out``, listing ``outputs``."""
    _write_json(args.out, "manifest", {
        "command": args.command,
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "config_path": getattr(args, "config", None),
        "arguments": args.argv,
        # Keep the manifest relocatable: record paths relative to it.
        "outputs": sorted(os.path.relpath(path, args.out) for path in outputs),
        "duration_seconds": time.monotonic() - args.started,
    })


def _write_if_out(args, name: str, document: dict) -> None:
    """With ``--out`` set, write ``document`` as ``<name>.json`` plus its manifest."""
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        path = _write_json(args.out, name, document)
        _write_manifest(args, [path])
        print(f"wrote {path}")


# =========================================================================
# run-spam
# =========================================================================

_RECORD_HEADER = "shot,prepared,R0,R1,R2,R3,R4,R5,flagged,reason,inferred\r\n"
_STATE_NAMES = ("", Prepare.ZERO.value, Prepare.ONE.value)  # indexed by code + 1; code -1 is none
_TAILS = tuple(f"{tail:03d}" for tail in range(1000))
# Rows of each records file per write(): what one block holds is bounded by it.
_RECORD_BLOCK_ROWS = 2048


def _shot_indices(start: int, stop: int) -> list[str]:
    """``[str(shot) for shot in range(start, stop)]``, a thousand at a time.

    An index of 1000 or more is its thousands, rendered once per thousand,
    plus its zero-padded last three digits from a table: about half the cost
    of ``str`` per index.
    """
    names = [str(shot) for shot in range(start, min(stop, 1000))]
    for head in range(max(start, 1000) // 1000, (stop + 999) // 1000):
        base, prefix = head * 1000, str(head)
        names += [prefix + tail for tail in _TAILS[max(start - base, 0):stop - base]]
    return names


@functools.cache
def _record_suffixes(strict: bool) -> np.ndarray:
    """Every records row after its shot index, at ``(prepared + 1) * 64 + pattern``.

    Each is rendered from :func:`evaluate_flags` as ``csv.writer`` renders it.
    """
    suffixes = np.empty(3 * 64, dtype=object)
    for pattern in range(64):
        bits = [pattern >> bit & 1 for bit in range(6)]
        flagged, reason, inferred = evaluate_flags(bits, strict)
        tail = (f"{','.join('db'[bit] for bit in bits)},{int(flagged)},{reason.value},"
                f"{'' if flagged else _STATE_NAMES[inferred + 1]}\r\n")
        suffixes[pattern::64] = [f",{name},{tail}" for name in _STATE_NAMES]
    return suffixes


def _write_records(directory: str, records: dict, strict: bool) -> list[str]:
    """Write ``records_<state>.csv`` for every state; return their paths.

    The flag rules make a row's flagged, reason and inferred columns a
    function of its R0..R5 pattern, so a row after its shot index depends on
    (prepared, pattern) alone: one of the 192 suffixes of
    :func:`_record_suffixes`.  Every state has as many shots, so the files are
    written together, :data:`_RECORD_BLOCK_ROWS` rows per ``write()``: each
    block renders its shot indices once for all states.  A block's strings,
    not the run's shot count, bound the memory the writer takes.
    """
    suffixes = _record_suffixes(strict)
    paths = [os.path.join(directory, f"records_{name}.csv") for name in records]
    shots = len(next(iter(records.values()))["prepared"])
    with contextlib.ExitStack() as stack:
        handles = [stack.enter_context(open(path, "w", encoding="utf-8", newline=""))
                   for path in paths]
        for handle in handles:
            handle.write(_RECORD_HEADER)
        for start in range(0, shots, _RECORD_BLOCK_ROWS):
            stop = min(start + _RECORD_BLOCK_ROWS, shots)
            parts = [""] * (2 * (stop - start))
            parts[0::2] = _shot_indices(start, stop)
            for handle, state in zip(handles, records.values()):
                key = ((state["prepared"][start:stop].astype(np.intp) + 1) * 64
                       + state["pattern"][start:stop])
                parts[1::2] = suffixes.take(key).tolist()
                handle.write("".join(parts))
    return paths


def cmd_run_spam(args) -> int:
    # A bad quantile fails before any shot runs or --out is made.
    check_z(args.z)
    model = _load_model(args)
    args.seed = _resolve_seed(args.seed)
    max_attempts = args.max_attempts
    if max_attempts is None:
        max_attempts = 3 if args.mode == "rus" else 1
    config = ExperimentConfig(
        model=model,
        encoding=args.encoding,
        shots=args.shots,
        mode=Mode(args.mode),
        max_attempts=max_attempts,
        seed=args.seed,
        prepare=None if args.prepare == "both" else Prepare(args.prepare),
        strict_flags=args.strict_flags,
    )
    result = run_experiment(
        config, workers=args.threads, keep_records=args.records
    )
    summary = spam_summary(result, z=args.z)

    os.makedirs(args.out, exist_ok=True)
    summary_path = _write_json(args.out, "summary", summary)
    outputs = [summary_path]
    for label, histogram in result.histograms.items():
        path = os.path.join(args.out, f"histogram_{label}.csv")
        write_histogram_csv(histogram, path)
        outputs.append(path)
    for name, histogram in result.accepted_r3.items():
        path = os.path.join(args.out, f"histogram_R3_accepted_{name}.csv")
        write_histogram_csv(histogram, path)
        outputs.append(path)
    if args.records:
        outputs += _write_records(args.out, result.records, args.strict_flags)
    _write_manifest(args, outputs)

    for name, block in summary["states"].items():
        line = (
            f"{name}: shots {block['shots']}, "
            f"rejected {_fmt(block['rejected_fraction'])}, "
            f"accepted {block['accepted']}"
        )
        rate = block["error_rate"][5]
        interval = block["error_interval"][5]
        if rate is not None:
            line += f", error {_fmt(rate)} in [{_fmt(interval[0])}, {_fmt(interval[1])}]"
        if summary["mode"] == "rus":
            line += f", attempts mean {_fmt(block['attempts_mean'])}"
        print(line)
    if summary["average"] is not None and summary["average"]["error_rate"][5] is not None:
        rate = summary["average"]["error_rate"][5]
        interval = summary["average"]["error_interval"][5]
        print(f"average error {_fmt(rate)} in [{_fmt(interval[0])}, {_fmt(interval[1])}]")
    print(f"wrote {summary_path}")
    return EXIT_OK


# =========================================================================
# calibrate-threshold
# =========================================================================

def cmd_calibrate_threshold(args) -> int:
    hist_a, hist_b = (read_histogram_csv(path, label=path)
                      for path in (args.histogram_a, args.histogram_b))
    calibration = calibrate_threshold(hist_a, hist_b, method=args.method)
    document = {
        "threshold": calibration.threshold,
        "crossing": calibration.crossing,
        "method": calibration.method,
        "dark_fit": {"mean": calibration.dark_fit[0], "sigma": calibration.dark_fit[1]},
        "bright_fit": {"mean": calibration.bright_fit[0], "sigma": calibration.bright_fit[1]},
    }
    _write_if_out(args, "calibration", document)
    print(
        f"threshold {calibration.threshold} (crossing {_fmt(calibration.crossing)}, "
        f"dark {_fmt(calibration.dark_fit[0])} +/- {_fmt(calibration.dark_fit[1])}, "
        f"bright {_fmt(calibration.bright_fit[0])} +/- {_fmt(calibration.bright_fit[1])})"
    )
    return EXIT_OK


# =========================================================================
# predict-rejection
# =========================================================================

def cmd_predict_rejection(args) -> int:
    model = _load_model(args)
    encodings = _ENCODINGS if args.encoding == "all" else (args.encoding,)
    rows = []
    for encoding in encodings:
        for prepare in (Prepare.ZERO, Prepare.ONE):
            sequence = build_sequence(encoding, prepare)
            contributions = rejection_contributions(
                sequence, model, strict=args.strict_flags,
                include_decay=args.include_decay,
            )
            exact = predict_rejection_exact(sequence, model, strict=args.strict_flags)
            rows.append(
                {
                    "encoding": encoding,
                    "prepared": prepare.value,
                    "first_order": first_order_rate(contributions),
                    "exact": exact,
                    "contributions": [
                        {**dataclasses.asdict(c), "flag_reason": c.flag_reason.value}
                        for c in contributions
                    ],
                }
            )
    for row in rows:
        print(
            f"{row['encoding']} {row['prepared']:<5} "
            f"first-order {_fmt(row['first_order'])} exact {_fmt(row['exact'])}"
        )
    _write_if_out(args, "rejection", {"rows": rows})
    return EXIT_OK


# =========================================================================
# bias-scan
# =========================================================================

def _parse_grid(text: str) -> list[float]:
    try:
        grid = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"--t-grid must be a comma-separated float list, got {text!r}") from None
    if not grid:
        raise ConfigError("--t-grid must contain at least one ratio")
    return grid


def cmd_bias_scan(args) -> int:
    model = _load_model(args)
    args.seed = _resolve_seed(args.seed)
    grid = _parse_grid(args.t_grid)
    families = (
        BIAS_FAMILIES if args.family == "all" else (bias_family(args.family),)
    )
    # Every scan runs before --out is made, so a rejected grid leaves nothing.
    scans = [
        (family, bias_scan(family, grid, args.shots, model=model, seed=args.seed,
                           workers=args.threads))
        for family in families
    ]
    os.makedirs(args.out, exist_ok=True)
    outputs = []
    for family, points in scans:
        path = os.path.join(args.out, f"bias_{family.name}.csv")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(
                "t_ratio,duration,gamma,predicted_bias,measured_bias,std_error,accepted,shots\n"
            )
            for p in points:
                handle.write(
                    f"{p.ratio!r},{p.duration!r},{p.gamma!r},{p.predicted!r},"
                    f"{p.measured!r},{p.std_error!r},{p.accepted},{p.shots}\n"
                )
        outputs.append(path)
        for p in points:
            print(
                f"{family.name} t/t_pi {_fmt(p.ratio)}: measured {_fmt(p.measured)} "
                f"predicted {_fmt(p.predicted)} (se {_fmt(p.std_error)})"
            )
    _write_manifest(args, outputs)
    return EXIT_OK


# =========================================================================
# lifetime-fit
# =========================================================================

def _read_decay_samples(path: str) -> list[tuple]:
    rows: list[tuple] = []
    header = True  # only the first non-blank row may be a header
    with open(path, "r", encoding="utf-8", newline="") as handle:
        for number, row in enumerate(csv.reader(handle), 1):
            fields = [part.strip() for part in row if part.strip() != ""]
            if not fields:
                continue
            try:
                rows.append(tuple(float(part) for part in fields))
            except ValueError:
                if not header:
                    raise ConfigError(f"{path}: non-numeric row {number}: {row!r}") from None
            header = False
    if not rows:
        raise ConfigError(f"{path}: no decay samples found")
    return rows


def cmd_lifetime_fit(args) -> int:
    samples = _read_decay_samples(args.samples)
    fit = fit_lifetime(samples)
    print(
        f"lifetime {_fmt(fit.lifetime)} s, std error {_fmt(fit.std_error)} s, "
        f"2-sigma interval [{_fmt(fit.interval[0])}, {_fmt(fit.interval[1])}]"
    )
    _write_if_out(args, "lifetime", dataclasses.asdict(fit))
    return EXIT_OK


# =========================================================================
# Parser
# =========================================================================

def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="error-model JSON file")
    parser.add_argument(
        "--paper-defaults",
        action="store_true",
        help="use the bundled default parameter set explicitly",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spamsim",
        description="Simulate and analyze heralded SPAM experiments.",
    )
    parser.add_argument("--version", action="version", version=f"spamsim {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run-spam", help="run a batch SPAM experiment")
    _add_model_flags(run)
    run.add_argument("--shots", type=int, default=1_000_000, help="shots per prepared state")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--encoding", choices=_ENCODINGS, default="M")
    run.add_argument("--mode", choices=[m.value for m in Mode], default="post-select")
    run.add_argument("--max-attempts", type=int, default=None,
                     help="retry budget in rus mode (default 3); post-select allows only 1")
    run.add_argument("--prepare", choices=["both", *(p.value for p in Prepare)],
                     default="both")
    run.add_argument("--strict-flags", action="store_true",
                     help="also flag the R3 bright, R4 dark pattern")
    run.add_argument("--records", action="store_true", help="write per-shot CSVs")
    run.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    run.add_argument("--z", type=float, default=1.0, help="interval quantile")
    run.add_argument("--out", required=True, help="output directory")
    run.set_defaults(func=cmd_run_spam)

    cal = commands.add_parser("calibrate-threshold",
                              help="fit two count histograms and place the threshold")
    cal.add_argument("histogram_a", help="count histogram CSV")
    cal.add_argument("histogram_b", help="count histogram CSV")
    cal.add_argument("--method", choices=["moments", "least-squares"], default="moments")
    cal.add_argument("--out", default=None, help="output directory")
    cal.set_defaults(func=cmd_calibrate_threshold)

    pred = commands.add_parser("predict-rejection",
                               help="closed-form rejected-fraction table")
    _add_model_flags(pred)
    pred.add_argument("--encoding", choices=_ENCODINGS + ("all",), default="all")
    pred.add_argument("--strict-flags", action="store_true")
    pred.add_argument("--include-decay", action="store_true",
                      help="add metastable-decay contributions to the first-order "
                           "column; the exact column never includes decay")
    pred.add_argument("--out", default=None, help="output directory")
    pred.set_defaults(func=cmd_predict_rejection)

    bias = commands.add_parser("bias-scan",
                               help="measured vs predicted post-selection bias")
    _add_model_flags(bias)
    bias.add_argument("--family",
                      choices=[f.name for f in BIAS_FAMILIES] + ["all"], default="all")
    bias.add_argument("--t-grid", default="0.6,0.7,0.8,0.9,1.0",
                      help="comma-separated t/t_pi ratios")
    bias.add_argument("--shots", type=int, default=100_000)
    bias.add_argument("--seed", type=int, default=None)
    bias.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    bias.add_argument("--out", required=True, help="output directory")
    bias.set_defaults(func=cmd_bias_scan)

    life = commands.add_parser("lifetime-fit",
                               help="fit the metastable lifetime from decay samples")
    life.add_argument("samples", help="CSV of (delay, decayed[, trials]) rows")
    life.add_argument("--out", default=None, help="output directory")
    life.set_defaults(func=cmd_lifetime_fit)

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = list(argv)
    args.started = time.monotonic()
    try:
        return args.func(args)
    except ThresholdSeparationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEPARATION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
