"""spamsim runs without scipy, and loads jsonschema only to validate.

scipy is a test dependency: no spamsim call imports it, and the three calls
that once did (``fit_lifetime``, least-squares ``calibrate_threshold`` and
``optical_error_rates``) run in an interpreter where it cannot be imported.
jsonschema is imported when a document is validated: a configuration read by
``load_error_model`` or ``model_from_config`` (``--config``), and every JSON
file the CLI writes.  Loading it at start-up made up most of a cold ``import
spamsim`` plus ``default_model()``, which every CLI command pays.  For the
same reason ``fractions`` (which loads ``decimal``) is imported only by the
exact propagator.  No call imports ``concurrent.futures`` or ``logging``: a
run with more than one worker starts plain ``threading`` threads, and
``threading`` is loaded with numpy.  Each case runs in a fresh interpreter
with this run's ``sys.path``, because this test process has them all loaded
already.
"""

import inspect
import json
import subprocess
import sys
import textwrap
from importlib import resources

import jsonschema
import numpy as np
import pytest

import spamsim as sp
from spamsim.detection import sample_counts


def _loaded(package: str) -> str:
    """Source of an expression: the sorted names of ``package``'s loaded modules."""
    return f'sorted(m for m in sys.modules if m.split(".")[0] == "{package}")'


SCIPY_MODULES = _loaded("scipy")
JSONSCHEMA_MODULES = _loaded("jsonschema")

# Every call path of the benchmark workloads, on small sizes.
WORKLOAD_PATHS = f"""
import contextlib, io, json, os, sys
import spamsim, spamsim.cli
from spamsim import ExperimentConfig, Mode, Prepare

model = spamsim.default_model()
post = spamsim.run_experiment(
    ExperimentConfig(model=model, encoding="M", shots=2000, seed=1), workers=2
)
assert post.histograms
spamsim.run_experiment(
    ExperimentConfig(model=model, encoding="O", shots=2000, seed=2,
                     mode=Mode.REPEAT_UNTIL_SUCCESS, max_attempts=3),
    collect_histograms=False,
)
spamsim.spam_summary(post)
for prepare in (Prepare.ZERO, Prepare.ONE):
    sequence = spamsim.build_sequence("M", prepare)
    spamsim.predict_rejection_exact(sequence, model)
    spamsim.rejection_contributions(sequence, model)
spamsim.bias_scan(spamsim.bias_family("metastable-zero"), [0.8, 1.0], 2000,
                  model=model, seed=3)
with contextlib.redirect_stdout(io.StringIO()):
    code = spamsim.cli.main(["run-spam", "--paper-defaults", "--shots", "2000",
                             "--seed", "4", "--records", "--out", sys.argv[1]])
assert code == 0 and os.path.exists(os.path.join(sys.argv[1], "records_zero.csv"))
print(json.dumps({SCIPY_MODULES}))
"""


def _fresh(source: str, *args: str, stdin: str = ""):
    """Run ``source`` in a new interpreter; return its last stdout line as JSON."""
    script = f"import sys\nsys.path[:] = {sys.path!r}\n{source}"
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        input=stdin, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_workload_paths_load_no_scipy(tmp_path):
    assert _fresh(WORKLOAD_PATHS, str(tmp_path / "run")) == []


# The default model and calls that validate no document.
MODEL_PATHS = f"""
import json
import spamsim, spamsim.cli
from spamsim import ExperimentConfig, Prepare

model = spamsim.default_model()
spamsim.predict_rejection_exact(spamsim.build_sequence("M", Prepare.ZERO), model)
spamsim.run_experiment(ExperimentConfig(model=model, encoding="M", shots=2000, seed=1))
spamsim.bias_scan(spamsim.bias_family("metastable-zero"), [0.8, 1.0], 2000,
                  model=model, seed=3)
print(json.dumps({JSONSCHEMA_MODULES}))
"""


def test_default_model_paths_load_no_jsonschema():
    assert _fresh(MODEL_PATHS) == []


DEFERRED_STDLIB = ("fractions", "decimal", "concurrent.futures", "logging")

COLD_START = f"""
import json, sys
import spamsim

spamsim.default_model()
print(json.dumps([name for name in {DEFERRED_STDLIB!r} if name in sys.modules]))
"""


def test_cold_start_loads_no_deferred_stdlib_module():
    assert _fresh(COLD_START) == []


# Runs of two chunks or more at two workers, so each starts a helper thread.
MULTI_WORKER = """
import contextlib, io, json, sys
import spamsim, spamsim.cli
from spamsim import ExperimentConfig

model = spamsim.default_model()
spamsim.run_experiment(ExperimentConfig(model=model, encoding="M", shots=2000, seed=1),
                       workers=2)
spamsim.bias_scan(spamsim.bias_family("metastable-zero"), [0.8, 1.0], 20000,
                  model=model, seed=3, workers=2)
with contextlib.redirect_stdout(io.StringIO()):
    code = spamsim.cli.main(["run-spam", "--shots", "2000", "--seed", "4",
                             "--threads", "2", "--out", sys.argv[1]])
assert code == 0
print(json.dumps([name for name in ("concurrent.futures", "logging") if name in sys.modules]))
"""


def test_multi_worker_runs_load_no_executor_or_logging(tmp_path):
    assert _fresh(MULTI_WORKER, str(tmp_path / "run")) == []


LOAD_CONFIG = f"""
import json, sys
import spamsim

model = spamsim.default_model()
spamsim.save_error_model(model, sys.argv[1])
before = {JSONSCHEMA_MODULES}
loaded = spamsim.load_error_model(sys.argv[1])
print(json.dumps({{"before": before, "after": bool({JSONSCHEMA_MODULES}),
                  "same": loaded == model}}))
"""


def test_load_error_model_validates_with_jsonschema(tmp_path):
    child = _fresh(LOAD_CONFIG, str(tmp_path / "model.json"))
    assert child == {"before": [], "after": True, "same": True}


INVALID_CONFIG = """
import contextlib, io, json, sys
import spamsim.cli

err = io.StringIO()
with contextlib.redirect_stderr(err):
    code = spamsim.cli.main(["run-spam", "--shots", "10", "--config", sys.argv[1],
                             "--out", sys.argv[2]])
print(json.dumps({"code": code, "err": err.getvalue()}))
"""


def test_invalid_config_still_fails_with_the_jsonschema_message(model, tmp_path):
    document = sp.model_to_config(model)
    document["decay"]["lifetime"] = -1.0
    schema = json.loads(resources.files("spamsim.schemas")
                        .joinpath("config.schema.json").read_text())
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(document, schema)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(document))
    child = _fresh(INVALID_CONFIG, str(bad), str(tmp_path / "run"))
    assert child == {"code": 2, "err": f"error: invalid configuration: "
                                        f"{expected.value.message}\n"}


def _former_scipy_user(sp, name, inputs):
    """The result of one call that used scipy, as JSON-ready floats."""
    if name == "fit_lifetime":
        fit = sp.fit_lifetime([tuple(row) for row in inputs["samples"]])
        return [fit.lifetime, fit.std_error]
    if name == "calibrate_threshold":
        dark, bright = (sp.CountHistogram.from_samples(inputs[label], label=label)
                        for label in ("dark", "bright"))
        result = sp.calibrate_threshold(dark, bright, method="least-squares")
        return [result.crossing, *result.dark_fit, *result.bright_fit]
    return list(sp.optical_error_rates(sp.default_model().detection))


@pytest.fixture(scope="module")
def former_scipy_inputs(model):
    rng = np.random.default_rng(12)
    return {
        "samples": sp.sample_decay_events([5.0, 10.0, 20.0, 30.0], 2000, 27.2, rng),
        "dark": sample_counts(np.zeros(4000), model.detection, rng).tolist(),
        "bright": sample_counts(np.ones(4000), model.detection, rng).tolist(),
    }


@pytest.mark.parametrize("name", ["fit_lifetime", "calibrate_threshold", "optical_error_rates"])
def test_former_scipy_users_run_without_scipy(former_scipy_inputs, name):
    source = textwrap.dedent("""
        import json, sys
        sys.modules["scipy"] = None  # any import of scipy now raises ImportError
        import spamsim as sp
        result = _former_scipy_user(sp, sys.argv[1], json.loads(sys.stdin.read()))
        print(json.dumps(result))
    """)
    # The child runs the same helper as this process, so the results compare.
    source = inspect.getsource(_former_scipy_user) + source
    child = _fresh(source, name, stdin=json.dumps(former_scipy_inputs))
    expected = _former_scipy_user(sp, name, former_scipy_inputs)
    assert child == json.loads(json.dumps(expected))
