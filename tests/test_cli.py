import copy
import csv
import io
import json
import math
import runpy
import sys
import tracemalloc
from importlib import resources

import jsonschema
import numpy as np
import pytest

import spamsim as sp
from spamsim import cli
from spamsim.channels import schema_validator
from spamsim.detection import sample_counts
from spamsim.sequence import Prepare


def load_schema(name):
    with resources.files("spamsim.schemas").joinpath(name).open() as fh:
        return json.load(fh)


def validate(path, schema_name):
    document = json.loads(path.read_text())
    jsonschema.validate(document, load_schema(schema_name))
    return document


def test_run_spam_writes_validated_outputs(tmp_path):
    out = tmp_path / "run"
    code = cli.main([
        "run-spam", "--shots", "3000", "--seed", "5", "--encoding", "M",
        "--threads", "2", "--out", str(out),
    ])
    assert code == 0
    summary = validate(out / "summary.json", "summary.schema.json")
    assert summary["seed"] == 5
    assert summary["shots_per_state"] == 3000
    assert set(summary["states"]) == {"zero", "one"}
    manifest = validate(out / "manifest.json", "manifest.schema.json")
    assert manifest["command"] == "run-spam"
    assert "summary.json" in manifest["outputs"]
    assert all("/" not in path for path in manifest["outputs"])
    for index in range(6):
        assert (out / f"histogram_R{index}.csv").exists()
    assert (out / "histogram_R3_accepted_zero.csv").exists()
    assert (out / "histogram_R3_accepted_one.csv").exists()


@pytest.mark.parametrize("args, names", [
    pytest.param(["run-spam", "--shots", "2000", "--seed", "9", "--encoding", "O", "--records"],
                 ["summary.json", "records_zero.csv", "records_one.csv",
                  *(f"histogram_R{index}.csv" for index in range(6))], id="run-spam"),
    # 20000 shots a point: two chunks each.
    pytest.param(["bias-scan", "--family", "metastable-zero", "--shots", "20000",
                  "--t-grid", "0.8,1.0", "--seed", "5"], ["bias_metastable-zero.csv"],
                 id="bias-scan"),
])
def test_run_spam_is_reproducible_byte_for_byte(tmp_path, args, names):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(args + ["--threads", "1", "--out", str(a)]) == 0
    assert cli.main(args + ["--threads", "2", "--out", str(b)]) == 0
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_run_spam_records_flag(tmp_path):
    # A set --prepare runs that state alone and writes only its records file.
    for state in ("zero", "one"):
        out = tmp_path / state
        code = cli.main([
            "run-spam", "--shots", "500", "--seed", "1", "--prepare", state,
            "--records", "--out", str(out),
        ])
        assert code == 0
        assert list(json.loads((out / "summary.json").read_text())["states"]) == [state]
        assert [path.name for path in out.glob("records_*.csv")] == [f"records_{state}.csv"]
        lines = (out / f"records_{state}.csv").read_text().splitlines()
        assert lines[0] == "shot,prepared,R0,R1,R2,R3,R4,R5,flagged,reason,inferred"
        assert len(lines) == 501


def write_records_reference(path, records, strict):
    """The row-by-row ``csv.writer`` loop the column-wise writer replaces.

    Each row's reads are its pattern's bits, and its flag columns come from
    :func:`evaluate_flags` of those bits.
    """
    names = {0: "zero", 1: "one", -1: ""}
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["shot", "prepared", "R0", "R1", "R2", "R3", "R4", "R5",
                         "flagged", "reason", "inferred"])
        rows = zip(records["prepared"].tolist(), records["pattern"].tolist())
        for index, (prepared, pattern) in enumerate(rows):
            bits = [pattern >> bit & 1 for bit in range(6)]
            flagged, reason, inferred = sp.evaluate_flags(bits, strict)
            writer.writerow(
                [index, names[prepared], *("db"[bit] for bit in bits), int(flagged),
                 reason.value, "" if flagged else names[inferred]]
            )


RECORD_CASES = {
    "M-post-select": dict(encoding="M"),
    "O-rus-strict": dict(encoding="O", mode=sp.Mode.REPEAT_UNTIL_SUCCESS,
                         max_attempts=3, strict_flags=True),
    "G-superposition": dict(encoding="G", prepare=Prepare.SUPERPOSITION),
}


@pytest.mark.parametrize("case", sorted(RECORD_CASES))
def test_records_csv_matches_row_writer(tmp_path, model, monkeypatch, case):
    # 4000 rows span three write blocks, the last one partial.
    monkeypatch.setattr(cli, "_RECORD_BLOCK_ROWS", 1_500)
    cfg = sp.ExperimentConfig(model=model, shots=4_000, seed=15, **RECORD_CASES[case])
    res = sp.run_experiment(cfg, workers=1, collect_histograms=False, keep_records=True)
    paths = cli._write_records(str(tmp_path), res.records, cfg.strict_flags)
    assert paths == [str(tmp_path / f"records_{name}.csv") for name in res.records]
    for name, records in res.records.items():
        write_records_reference(tmp_path / f"{name}-reference.csv", records, cfg.strict_flags)
        written = (tmp_path / f"records_{name}.csv").read_bytes()
        assert written == (tmp_path / f"{name}-reference.csv").read_bytes(), name
        assert written.count(b"\r\n") == 4_001


def test_records_csv_with_six_digit_shot_indices_matches_row_writer(tmp_path):
    # 100500 rows cross 99999/100000 and span 50 write blocks;
    # each state's rows hold all 192 (prepared, pattern) keys.  No engine run.
    rng = np.random.default_rng(23)
    keys = {name: rng.permutation(np.arange(100_500) % 192) for name in ("zero", "one")}
    records = {name: {"prepared": (key // 64 - 1).astype(np.int8),
                      "pattern": (key % 64).astype(np.uint8)} for name, key in keys.items()}
    cli._write_records(str(tmp_path), records, False)
    for name, state in records.items():
        write_records_reference(tmp_path / f"{name}-reference.csv", state, False)
        written = (tmp_path / f"records_{name}.csv").read_bytes()
        assert written == (tmp_path / f"{name}-reference.csv").read_bytes(), name
        assert written.count(b"\r\n") == 100_501


def test_records_writer_memory_is_bounded_by_a_block(tmp_path):
    # Blocks of 16384 rows peaked at about 2300 KB under tracemalloc for two
    # states of 20000 rows; blocks of 2048 rows peak at about 300 KB.  The
    # bound, 1024 KB, is 3.4 times the second and under half the first.
    rng = np.random.default_rng(29)
    records = {name: {"prepared": np.zeros(20_000, dtype=np.int8),
                      "pattern": rng.integers(0, 64, 20_000, dtype=np.uint8)}
               for name in ("zero", "one")}
    cli._write_records(str(tmp_path), records, False)  # renders the suffix table once
    tracemalloc.start()
    try:
        cli._write_records(str(tmp_path), records, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024


@pytest.mark.parametrize("extra", [[], ["--strict-flags"], ["--prepare", "superposition"]])
def test_run_spam_records_match_row_writer(tmp_path, monkeypatch, extra):
    # 16500 rows cross the 999/1000 and 9999/10000 index widths and the
    # write block edge at 16384.
    results, run_experiment = [], cli.run_experiment

    def keep(*args, **kwargs):
        results.append(run_experiment(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "run_experiment", keep)
    out = tmp_path / "run"
    assert cli.main(["run-spam", "--shots", "16500", "--seed", "3", "--records",
                     "--out", str(out), *extra]) == 0
    (result,) = results
    for name, records in result.records.items():
        reference = tmp_path / f"{name}-reference.csv"
        write_records_reference(reference, records, "--strict-flags" in extra)
        assert (out / f"records_{name}.csv").read_bytes() == reference.read_bytes(), name
    prepared = set(np.concatenate([r["prepared"] for r in result.records.values()]).tolist())
    assert prepared == ({-1, 0, 1} if "--prepare" in extra else {0, 1})


@pytest.mark.parametrize("strict", [False, True])
def test_record_suffixes_render_the_flag_rules(strict):
    # All 3 x 64 (prepared, pattern) rows, including patterns no run reaches.
    suffixes = cli._record_suffixes(strict)
    assert suffixes.shape == (192,)
    for code, name in ((-1, ""), (0, "zero"), (1, "one")):
        for pattern in range(64):
            bits = [pattern >> bit & 1 for bit in range(6)]
            flagged, reason, inferred = sp.evaluate_flags(bits, strict)
            row = io.StringIO()
            csv.writer(row).writerow(
                [7, name, *("b" if bit else "d" for bit in bits), int(flagged), reason.value,
                 "" if inferred is None else ("zero", "one")[inferred]]
            )
            assert "7" + suffixes[(code + 1) * 64 + pattern] == row.getvalue()


@pytest.mark.parametrize(
    "name", sorted(p.name for p in resources.files("spamsim.schemas").iterdir()
                   if p.name.endswith(".json")),
)
def test_bundled_schemas_are_valid(name):
    schema = load_schema(name)
    # schema_validator does not meta-check the package's schemas; this test does.
    jsonschema.validators.validator_for(schema).check_schema(schema)
    # Built once, then reused for every document.
    assert schema_validator(name) is schema_validator(name)


def test_bundled_config_is_valid_and_builds_the_validated_model():
    # default_model() builds this package file without jsonschema.
    text = resources.files("spamsim.data").joinpath("default_config.json").read_text()
    document = json.loads(text)
    jsonschema.validate(document, load_schema("config.schema.json"))
    assert sp.default_model() == sp.model_from_config(json.loads(text))


# (schema, path, value, valid): a valid document with the value at that path
# must get that verdict.  The rows cover every "T or null" node and the
# state block and retention row written inline in summary.schema.json.
_RATE, _INTERVAL = ("states", "zero", "error_rate", 5), ("states", "zero", "error_interval", 5)
SCHEMA_VERDICTS = [
    ("summary", _RATE, None, True),
    ("summary", _RATE, 0, True),
    ("summary", _RATE, 1, True),
    ("summary", _RATE, -0.1, False),
    ("summary", _RATE, 1.5, False),
    ("summary", _RATE, "x", False),
    ("summary", _INTERVAL, None, True),
    ("summary", _INTERVAL, [0.25, 0.5], True),
    ("summary", _INTERVAL, [0.1, 0.2, 0.3], False),
    ("summary", _INTERVAL, [None, 0.5], False),
    ("summary", ("average",), None, True),
    ("summary", ("average",), {}, False),
    ("summary", ("average",), 0.5, False),
    ("summary", ("average", "error_rate", 0), None, True),
    ("summary", ("average", "error_rate", 0), 1.5, False),
    ("summary", ("average", "error_interval", 0), None, True),
    ("summary", ("average", "error_interval", 0), [None, 0.5], False),
    ("summary", ("states", "zero", "retention", 0), 1, True),
    ("summary", ("states", "zero", "retention", 0), 1.5, False),
    ("summary", ("states", "zero", "retention", 0), None, False),
    ("summary", ("states", "zero", "shots"), 0, False),
    ("summary", ("states", "zero", "extra"), 1, False),
    ("manifest", ("seed",), 3, True),
    ("manifest", ("seed",), None, True),
    ("manifest", ("seed",), 1.5, False),
    ("manifest", ("config_path",), "model.json", True),
    ("manifest", ("config_path",), None, True),
    ("manifest", ("config_path",), 3, False),
    ("config", ("decay", "lifetime"), 27.2, True),
    ("config", ("decay", "lifetime"), None, True),
    # The schema checks a value's type only; the model's check refuses these
    # (tests/test_channels.py::test_each_config_value_is_judged_by_its_model_check).
    ("config", ("decay", "lifetime"), 0, True),
    ("config", ("decay", "lifetime"), -1, True),
    ("config", ("decay", "lifetime"), "x", False),
]


@pytest.fixture(scope="module")
def valid_documents(model):
    result = sp.run_experiment(sp.ExperimentConfig(model=model, shots=200, seed=4))
    return {
        "summary": json.loads(json.dumps(sp.spam_summary(result))),
        "manifest": {"command": "run-spam", "version": sp.__version__, "seed": 4,
                     "config_path": None, "arguments": [], "outputs": ["summary.json"],
                     "duration_seconds": 0.5},
        "config": sp.model_to_config(model),
    }


@pytest.mark.parametrize("name, path, value, valid", SCHEMA_VERDICTS,
                         ids=[f"{name}-{'.'.join(map(str, path))}={value!r}"
                              for name, path, value, _ in SCHEMA_VERDICTS])
def test_bundled_schemas_give_each_document_its_verdict(valid_documents, name, path, value,
                                                        valid):
    document = copy.deepcopy(valid_documents[name])
    assert schema_validator(f"{name}.schema.json").is_valid(document)
    node = document
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    assert schema_validator(f"{name}.schema.json").is_valid(document) is valid


def test_invalid_config_message_matches_jsonschema(tmp_path, model, capsys):
    # The CLI reports the message jsonschema.validate gives for the same document.
    document = sp.model_to_config(model)
    document["decay"]["lifetime"] = "x"
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(document, load_schema("config.schema.json"))
    with pytest.raises(sp.ConfigError) as raised:
        sp.model_from_config(document)
    assert str(raised.value) == f"invalid configuration: {expected.value.message}"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(document))
    code = cli.main(["run-spam", "--shots", "10", "--config", str(bad),
                     "--out", str(tmp_path / "x")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {raised.value}\n"


def test_invalid_summary_raises_jsonschema_error(tmp_path):
    out = tmp_path / "run"
    assert cli.main(["run-spam", "--shots", "200", "--seed", "4", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    summary["states"]["zero"]["error_rate"][5] = 1.5
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(summary, load_schema("summary.schema.json"))
    with pytest.raises(jsonschema.ValidationError) as raised:
        cli._write_json(str(tmp_path), "summary", summary)
    assert raised.value.message == expected.value.message
    assert not (tmp_path / "summary.json").exists()


def test_write_json_refuses_non_finite_numbers(tmp_path):
    # jsonschema takes inf as a number; the writer still writes standard JSON only.
    document = {"lifetime": 1.0, "std_error": math.inf, "interval": [0.5, 1.5],
                "delays": [1.0, 2.0], "fractions": [0.5, 0.75]}
    jsonschema.validate(document, load_schema("lifetime.schema.json"))
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli._write_json(str(tmp_path), "lifetime", document)
    assert not (tmp_path / "lifetime.json").exists()


@pytest.mark.parametrize("argv, env_seed, seed, config", [
    (["run-spam", "--shots", "300", "--seed", "5", "--records", "--config", "{model}"],
     "7", 5, True),
    (["run-spam", "--shots", "300", "--prepare", "superposition"], "7", 7, False),
    (["run-spam", "--shots", "300", "--prepare", "one"], None, 0, False),
    (["bias-scan", "--t-grid", "1.0", "--shots", "300", "--config", "{model}"], "8", 8, True),
    (["bias-scan", "--family", "metastable-zero", "--t-grid", "0.9,1.0", "--shots", "300",
      "--seed", "2"], "8", 2, False),
    (["calibrate-threshold", "{dark}", "{bright}"], "7", None, False),
    (["predict-rejection", "--encoding", "G", "--config", "{model}"], "7", None, True),
    (["lifetime-fit", "{decay}"], "7", None, False),
], ids=["run-spam-flag", "run-spam-env", "run-spam-default", "bias-scan-env", "bias-scan-flag",
        "calibrate-threshold", "predict-rejection", "lifetime-fit"])
def test_manifest_lists_outputs_seed_and_config(tmp_path, model, monkeypatch, argv, env_seed,
                                                seed, config):
    files = {"model": tmp_path / "model.json", "dark": tmp_path / "dark.csv",
             "bright": tmp_path / "bright.csv", "decay": tmp_path / "decay.csv"}
    sp.save_error_model(model, str(files["model"]))
    write_count_histogram(files["dark"], 0.0, model, seed=1, n=500)
    write_count_histogram(files["bright"], 1.0, model, seed=2, n=500)
    files["decay"].write_text("delay_s,decayed,trials\n5,167,1000\n10,308,1000\n")
    out = tmp_path / "out"
    argv = [arg.format(**files) for arg in argv] + ["--out", str(out)]
    if env_seed is None:
        monkeypatch.delenv("SPAMSIM_SEED", raising=False)
    else:
        monkeypatch.setenv("SPAMSIM_SEED", env_seed)
    assert cli.main(argv) == 0
    manifest = validate(out / "manifest.json", "manifest.schema.json")
    assert manifest["outputs"] == sorted(str(path.relative_to(out)) for path in out.rglob("*")
                                         if path.name != "manifest.json")
    assert manifest["command"] == argv[0]
    assert manifest["arguments"] == argv
    assert manifest["seed"] == seed
    assert manifest["config_path"] == (str(files["model"]) if config else None)


def test_run_spam_rus_mode(tmp_path):
    out = tmp_path / "rus"
    code = cli.main([
        "run-spam", "--shots", "800", "--seed", "2", "--mode", "rus",
        "--max-attempts", "3", "--out", str(out),
    ])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mode"] == "rus"
    assert all(b["attempts_mean"] >= 1.0 for b in summary["states"].values())


def test_run_spam_max_attempts_defaults_to_three_in_rus_only(tmp_path, capsys):
    out = tmp_path / "rus"
    assert cli.main(["run-spam", "--shots", "800", "--seed", "2", "--encoding", "O",
                     "--mode", "rus", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert max(b["attempts_max"] for b in summary["states"].values()) == 3
    # A retry budget under post-selection is a usage error, not ignored.
    out = tmp_path / "post-select"
    code = cli.main(["run-spam", "--shots", "800", "--max-attempts", "7", "--out", str(out)])
    assert code == 2
    assert "repeat-until-success" in capsys.readouterr().err
    assert not out.exists()


def test_run_spam_rejects_bad_shot_count(tmp_path):
    assert cli.main(["run-spam", "--shots", "0", "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("z", ["nan", "inf", "0"])
def test_run_spam_rejects_bad_z_before_running(tmp_path, monkeypatch, capsys, z):
    def no_runs(*args, **kwargs):
        raise AssertionError("shots ran before --z was checked")

    monkeypatch.setattr(cli, "run_experiment", no_runs)
    out = tmp_path / "run"
    code = cli.main(["run-spam", "--shots", "2000", "--seed", "1", "--z", z, "--out", str(out)])
    assert code == 2
    assert "finite and > 0" in capsys.readouterr().err
    assert not out.exists()


def test_run_spam_missing_config_is_io_error(tmp_path):
    code = cli.main([
        "run-spam", "--shots", "10", "--config", str(tmp_path / "nope.json"),
        "--out", str(tmp_path / "x"),
    ])
    assert code == 3


def test_run_spam_invalid_config_document(tmp_path, model, monkeypatch, capsys):
    def no_runs(*args, **kwargs):
        raise AssertionError("shots ran before the config was checked")

    monkeypatch.setattr(cli, "run_experiment", no_runs)
    # json reads NaN and Infinity, so non-finite values get past the parser,
    # and JSON Schema's integer type admits 161.0; the model checks reject
    # them before any shot runs.
    truncated = "{\"pump\""  # not JSON at all
    documents = ["{\"pump\": {}}", truncated]
    for section, field, value in [
        ("detection", "read_noise_sigma", "NaN"), ("detection", "mean_bright", "NaN"),
        ("detection", "total_duration", "Infinity"), ("pump", "duration", "Infinity"),
        ("durations", "cooling", "Infinity"), ("detection", "threshold", "161.0"),
    ]:
        document = sp.model_to_config(model)
        document[section][field] = float(value)
        documents.append(json.dumps(document))
        assert f'"{field}": {value}' in documents[-1]
    # Only single-order pulses are modelled.
    document = sp.model_to_config(model)
    document["pulses"][0]["order"] = "double"
    documents.append(json.dumps(document))
    for text in documents:
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        out = tmp_path / "x"
        code = cli.main(["run-spam", "--shots", "10", "--config", str(bad), "--out", str(out)])
        assert code == 2
        message = ("configuration is not valid JSON" if text == truncated
                   else "invalid configuration")
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()


def test_run_spam_config_conflicts_with_defaults_flag(tmp_path, model):
    good = tmp_path / "model.json"
    sp.save_error_model(model, str(good))
    code = cli.main([
        "run-spam", "--shots", "10", "--config", str(good), "--paper-defaults",
        "--out", str(tmp_path / "x"),
    ])
    assert code == 2


def test_seed_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("SPAMSIM_SEED", "77")
    out = tmp_path / "env"
    assert cli.main(["run-spam", "--shots", "200", "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["seed"] == 77
    # An explicit flag wins over the environment.
    out2 = tmp_path / "flag"
    assert cli.main(["run-spam", "--shots", "200", "--seed", "3", "--out", str(out2)]) == 0
    assert json.loads((out2 / "summary.json").read_text())["seed"] == 3
    monkeypatch.setenv("SPAMSIM_SEED", "not-a-number")
    assert cli.main(["run-spam", "--shots", "200", "--out", str(tmp_path / "y")]) == 2


@pytest.mark.parametrize("command", ["run-spam", "bias-scan"])
@pytest.mark.parametrize("from_env", [False, True])
def test_negative_seed_is_a_usage_error(tmp_path, monkeypatch, capsys, command, from_env):
    out = tmp_path / "out"
    argv = [command, "--shots", "200", "--out", str(out)]
    if from_env:
        monkeypatch.setenv("SPAMSIM_SEED", "-1")
    else:
        argv[1:1] = ["--seed", "-1"]
    assert cli.main(argv) == 2
    assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def write_count_histogram(path, fraction, model, seed, n=4000):
    rng = np.random.default_rng(seed)
    counts = [sample_counts(fraction, model.detection, rng) for _ in range(n)]
    sp.write_histogram_csv(sp.CountHistogram.from_samples(counts, label=path.stem), str(path))


def test_calibrate_threshold_command(tmp_path, model):
    dark_csv = tmp_path / "dark.csv"
    bright_csv = tmp_path / "bright.csv"
    write_count_histogram(dark_csv, 0.0, model, seed=1)
    write_count_histogram(bright_csv, 1.0, model, seed=2)
    out = tmp_path / "cal"
    code = cli.main([
        "calibrate-threshold", str(dark_csv), str(bright_csv), "--out", str(out),
    ])
    assert code == 0
    document = validate(out / "calibration.json", "calibration.schema.json")
    expected = sp.calibrate_threshold(
        sp.read_histogram_csv(str(dark_csv)), sp.read_histogram_csv(str(bright_csv))
    )
    assert document["threshold"] == expected.threshold
    assert document["crossing"] == pytest.approx(expected.crossing)
    # The calibration must land close to the configured operating point.
    assert abs(document["threshold"] - model.detection.threshold) < 15


def test_calibrate_threshold_inseparable_histograms(tmp_path, model):
    same = tmp_path / "same.csv"
    write_count_histogram(same, 0.0, model, seed=3)
    code = cli.main([
        "calibrate-threshold", str(same), str(same), "--out", str(tmp_path / "cal"),
    ])
    assert code == 4


@pytest.mark.parametrize("row", ["17", "inf,3", "x,3", "nan,3", "3.5,2", "4,2.9"])
def test_calibrate_threshold_rejects_malformed_histogram(tmp_path, model, capsys, row):
    good = tmp_path / "good.csv"
    write_count_histogram(good, 0.0, model, seed=1)
    bad = tmp_path / "bad.csv"
    bad.write_text(f"bin_low,frequency\n-1,4\n{row}\n")
    out = tmp_path / "cal"
    assert cli.main(["calibrate-threshold", str(good), str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: row 3 ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("method, bright_rows, code, message", [
    pytest.param("least-squares", "30,10\n31,12\n", 2,
                 "least-squares calibration needs 3 or more bins; histogram {bright} has 2",
                 id="least-squares-two-bins"),
    pytest.param("moments", "30,10\n", 4, "the bright fit at mean 30.00 has zero width",
                 id="moments-one-bin"),
    # A U-shaped histogram, to which no Gaussian fit converges.
    pytest.param("least-squares", "0,10\n1,1\n2,10\n", 4,
                 "the least-squares fit of histogram {bright} does not converge",
                 id="least-squares-no-convergence"),
])
@pytest.mark.parametrize("order", [1, -1], ids=["dark-first", "bright-first"])
def test_calibrate_threshold_rejects_unfittable_histograms(tmp_path, capsys, method,
                                                           bright_rows, code, message, order):
    dark = tmp_path / "dark.csv"
    dark.write_text("bin_low,frequency\n0,50\n1,30\n2,10\n3,5\n")
    bright = tmp_path / "bright.csv"
    bright.write_text("bin_low,frequency\n" + bright_rows)
    out = tmp_path / "cal"
    histograms = [str(dark), str(bright)][::order]
    assert cli.main(["calibrate-threshold", "--method", method, *histograms,
                     "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: " + message.format(bright=bright)), err
    assert len(err.splitlines()) == 1, err  # no warning next to the error
    assert not out.exists()


def test_predict_rejection_all_encodings(tmp_path, model):
    out = tmp_path / "rej"
    code = cli.main(["predict-rejection", "--encoding", "all", "--out", str(out)])
    assert code == 0
    document = validate(out / "rejection.json", "rejection.schema.json")
    assert len(document["rows"]) == 6
    by_key = {(r["encoding"], r["prepared"]): r for r in document["rows"]}
    for (enc, prepared), row in by_key.items():
        seq = sp.build_sequence(enc, Prepare(prepared))
        assert row["first_order"] == pytest.approx(sp.predict_rejection(seq, model))
        assert row["exact"] == pytest.approx(sp.predict_rejection_exact(seq, model))
        assert row["contributions"]


@pytest.mark.parametrize("flags", [[], ["--strict-flags", "--include-decay"]])
def test_predict_rejection_first_order_is_the_library_sum(tmp_path, model, flags):
    # Rates where a plain left-to-right sum and math.fsum differ (O one: 1.0
    # against 1.0000000000000002).
    document = sp.model_to_config(model)
    document["pump"]["error_rate"] = 0.1
    for pulse, rate in zip(document["pulses"], [0.2, 0.3, 0.1, 0.2, 0.3]):
        pulse["error_rate"] = rate
    config = tmp_path / "rates.json"
    config.write_text(json.dumps(document))
    noisy = sp.model_from_config(document)
    out = tmp_path / "rej"
    assert cli.main(["predict-rejection", "--config", str(config), *flags, "--out", str(out)]) == 0
    for row in validate(out / "rejection.json", "rejection.schema.json")["rows"]:
        seq = sp.build_sequence(row["encoding"], Prepare(row["prepared"]))
        expected = sp.predict_rejection(seq, noisy, strict=bool(flags), include_decay=bool(flags))
        assert row["first_order"] == expected, (row["encoding"], row["prepared"])


def test_predict_rejection_include_decay_moves_first_order_only(tmp_path):
    rows = {}
    for flags in ([], ["--include-decay"]):
        out = tmp_path / ("decay" if flags else "plain")
        assert cli.main(["predict-rejection", "--encoding", "all", *flags, "--out", str(out)]) == 0
        document = validate(out / "rejection.json", "rejection.schema.json")
        rows[bool(flags)] = {(r["encoding"], r["prepared"]): r for r in document["rows"]}
    for key, plain in rows[False].items():
        decay = rows[True][key]
        assert decay["exact"] == plain["exact"], key
        assert decay["first_order"] > plain["first_order"], key


def test_predict_rejection_single_encoding(tmp_path):
    out = tmp_path / "one"
    code = cli.main(["predict-rejection", "--encoding", "G", "--out", str(out)])
    assert code == 0
    document = json.loads((out / "rejection.json").read_text())
    assert [r["prepared"] for r in document["rows"]] == ["zero", "one"]
    by_state = {r["prepared"]: r["first_order"] for r in document["rows"]}
    assert by_state["zero"] == pytest.approx(0.0976, abs=1e-12)
    assert by_state["one"] == pytest.approx(0.0525, abs=1e-12)


def test_bias_scan_command(tmp_path):
    out = tmp_path / "bias"
    code = cli.main([
        "bias-scan", "--family", "metastable-zero", "--t-grid", "0.8,1.0",
        "--shots", "4000", "--seed", "6", "--out", str(out),
    ])
    assert code == 0
    lines = (out / "bias_metastable-zero.csv").read_text().splitlines()
    assert lines[0] == "t_ratio,duration,gamma,predicted_bias,measured_bias,std_error,accepted,shots"
    assert len(lines) == 3
    last = lines[2].split(",")
    assert float(last[0]) == 1.0
    # Calibrated duration: no bias within a generous statistical margin.
    assert abs(float(last[4])) < 6.0 * float(last[5])


@pytest.mark.parametrize("grid, message", [
    *[pytest.param(grid, "duration ratio must be finite and > 0", id=grid)
      for grid in ["nan", "0.8,inf", "1.0,-0.5", "0.8,nan"]],
    pytest.param("abc", "--t-grid must be a comma-separated float list, got 'abc'", id="abc"),
    pytest.param(",", "--t-grid must contain at least one ratio", id=","),
])
def test_bias_scan_rejects_bad_ratios(tmp_path, capsys, grid, message):
    out = tmp_path / "bias"
    code = cli.main([
        "bias-scan", "--family", "all", "--t-grid", grid,
        "--shots", "1000", "--seed", "6", "--out", str(out),
    ])
    assert code == 2
    assert message in capsys.readouterr().err
    # Every family's scan runs before --out is made.
    assert not out.exists()


def test_bias_scan_with_no_accepted_shot_is_a_usage_error(tmp_path, model, capsys):
    # Above every count, the threshold reads each detection dark, so the
    # flags reject every shot and the point has no bias to measure.
    document = sp.model_to_config(model)
    document["detection"]["threshold"] = 100000
    config = tmp_path / "dark.json"
    config.write_text(json.dumps(document))
    out = tmp_path / "bias"
    code = cli.main(["bias-scan", "--config", str(config), "--family", "metastable-zero",
                     "--t-grid", "1.0", "--shots", "1000", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: no shots accepted at t/t_pi = 1.0")
    assert not out.exists()


def test_bias_scan_unknown_family(tmp_path):
    # argparse enforces the family choices itself.
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["bias-scan", "--family", "bogus", "--out", str(tmp_path / "x")])
    assert excinfo.value.code == 2


def test_lifetime_fit_command(tmp_path):
    rng = np.random.default_rng(12)
    samples = sp.sample_decay_events([5.0, 10.0, 20.0, 30.0], 2000, 27.2, rng)
    csv = tmp_path / "decay.csv"
    rows = "delay_s,decayed,trials\n" + "\n".join(f"{d},{k},{n}" for d, k, n in samples) + "\n"
    # The header is the first non-blank row, with or without blank lines before it.
    for lead in ("", "\n"):
        csv.write_text(lead + rows)
        out = tmp_path / f"fit{len(lead)}"
        code = cli.main(["lifetime-fit", str(csv), "--out", str(out)])
        assert code == 0
        document = validate(out / "lifetime.json", "lifetime.schema.json")
        assert abs(document["lifetime"] - 27.2) < 5.0 * document["std_error"]


def test_lifetime_fit_rejects_unusable_input(tmp_path, capsys):
    csv = tmp_path / "flat.csv"
    csv.write_text("delay_s,decayed,trials\n5.0,0,100\n10.0,0,100\n")
    assert cli.main(["lifetime-fit", str(csv), "--out", str(tmp_path / "x")]) == 2
    assert cli.main(["lifetime-fit", str(tmp_path / "missing.csv"),
                     "--out", str(tmp_path / "y")]) == 3
    # Delays 600 decades apart leave no finite lifetime and error.
    csv.write_text("delay_s,decayed,trials\n1e-300,999,1000\n1e300,1,1000\n")
    capsys.readouterr()
    assert cli.main(["lifetime-fit", str(csv), "--out", str(tmp_path / "z")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: lifetime is unidentifiable from these rows")
    assert len(err.splitlines()) == 1, err
    # Only the first non-blank row may be a header, and some row must hold data.
    for rows, message in [("5.0,167,1000\nx,308,1000\n", "non-numeric row 3"),
                          ("\n", "no decay samples found")]:
        csv.write_text("delay_s,decayed,trials\n" + rows)
        assert cli.main(["lifetime-fit", str(csv), "--out", str(tmp_path / "w")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {csv}: {message}")
    assert not any((tmp_path / name).exists() for name in ("w", "x", "y", "z"))


@pytest.mark.parametrize("row", ["nan,10,100", "1.0,150,100", "1.0,15,100,7", "1.0"])
def test_lifetime_fit_rejects_bad_rows(tmp_path, capsys, row):
    csv = tmp_path / "decay.csv"
    csv.write_text(f"delay_s,decayed,trials\n5.0,167,1000\n10.0,308,1000\n{row}\n")
    out = tmp_path / "fit"
    assert cli.main(["lifetime-fit", str(csv), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: decay row") and "Traceback" not in err
    assert not out.exists()


def test_version_and_unknown_command():
    with pytest.raises(SystemExit):
        cli.main(["--version"])
    with pytest.raises(SystemExit):
        cli.main(["definitely-not-a-command"])


def test_main_reads_sys_argv_and_runs_as_a_module(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["spamsim", "predict-rejection", "--encoding", "M"])
    assert cli.main() == 0
    table = capsys.readouterr().out
    assert table.startswith("M zero  first-order")
    # python -m spamsim.cli runs main on sys.argv and exits with its code.
    monkeypatch.delitem(sys.modules, "spamsim.cli")  # run afresh, as python -m does
    with pytest.raises(SystemExit) as excinfo:
        runpy.run_module("spamsim.cli", run_name="__main__")
    assert excinfo.value.code == 0
    assert capsys.readouterr().out == table


def test_config_with_removed_exposure_field_is_rejected(tmp_path, model, capsys):
    # detection.exposure was parsed but never simulated; it is no longer a field.
    document = sp.model_to_config(model)
    document["detection"]["exposure"] = 400e-6
    with pytest.raises(sp.ConfigError):
        sp.model_from_config(document)
    bad = tmp_path / "old.json"
    bad.write_text(json.dumps(document))
    code = cli.main(["run-spam", "--shots", "10", "--config", str(bad),
                     "--out", str(tmp_path / "x")])
    assert code == 2
    assert "exposure" in capsys.readouterr().err
