"""End-to-end command line runs in temporary directories."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hartreebox
from hartreebox.cli import main
from hartreebox.config import _SCHEMA, RunConfig, load_config
from hartreebox.errors import ConfigError, DomainError
from hartreebox.spectral import Grid, TraceField, field_to_csv

BASE_CONFIG = """\
# small ground-state instance
sigma = 0.5
m = 1.0
N = 1
L = 10.0
n = 64
theta = 2.5
nonlinearity.kind = log_linear
potential.V_inf = 1.0
potential.A = 0.3
potential.w = 2.0
kernel.b = 1.0
kernel.w2 = 2.0
seed = 3
"""


def write_config(tmp_path, text=BASE_CONFIG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def assert_phase_times(out, *work_phases):
    manifest = json.loads((out / "manifest.json").read_text())
    phases = manifest["phase_s"]
    assert set(phases) == {"config", "profile", *work_phases, "write"}
    assert all(v >= 0.0 for v in phases.values())
    assert sum(phases.values()) <= manifest["wall_time_s"]


def test_profile_command(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["profile", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "profile.csv").exists()
    fit = json.loads((out / "asymptotics.json").read_text())
    assert abs(fit["sigma"] - 0.5) < 1e-15
    assert abs(fit["kappa"] - 1.0) < 1e-6
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["config_sha256"]) == 64
    assert "profile.csv" in manifest["outputs"]
    assert_phase_times(out)


def test_solve_command(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "level=" in printed and "margin=" in printed
    report = json.loads((out / "report.json").read_text())
    assert report["level"] > 0
    assert report["min_value"] > 0
    assert 0 < report["c_star"] < report["c_inf"]
    assert report["multistart_spread"] < 1e-4
    assert (out / "ground_state.csv").exists()
    assert (out / "iterations.csv").exists()
    assert_phase_times(out, "solve")


def test_verify_command_after_solve(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    vout = tmp_path / "verify"
    rc = main(["verify", "--config", cfg, "--out", str(vout),
               "--field", str(out / "ground_state.csv")])
    printed = capsys.readouterr().out
    assert rc == 0
    report = (vout / "verify_report.csv").read_text()
    for check in ("energy_identity", "dtn", "decay", "trace_inequality"):
        assert f"{check},pass" in report
        assert check in printed
    assert (vout / "decay.csv").exists()
    assert (vout / "dtn.csv").exists()
    assert_phase_times(vout, "checks")


def test_verify_runs_trace_check_when_m_not_one(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG.replace("m = 1.0", "m = 1.3"))
    grid = Grid(1, 10.0, 64)
    h = TraceField(grid, np.exp(-grid.axis ** 2 / 4.0))
    field = tmp_path / "field.csv"
    field_to_csv(h, str(field))
    vout = tmp_path / "verify"
    rc = main(["verify", "--config", cfg, "--out", str(vout),
               "--field", str(field)])
    assert rc == 0
    report = (vout / "verify_report.csv").read_text()
    assert "trace_inequality,pass" in report
    assert "energy_identity,pass" in report
    capsys.readouterr()


def test_sigma_out_of_range_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path,
                       BASE_CONFIG.replace("sigma = 0.5", "sigma = 1.5"))
    rc = main(["profile", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "sigma out of" in capsys.readouterr().err


def test_missing_config_exits_1(tmp_path, capsys):
    rc = main(["profile", "--config", str(tmp_path / "nope.cfg"),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "cannot read config" in capsys.readouterr().err


def test_unknown_key_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG + "wells = 3\n")
    rc = main(["profile", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "unknown key" in err and "line" in err


def test_huge_dimension_exits_2(tmp_path, capsys):
    # the grid check runs before the theta window, whose N / (N - 2 sigma)
    # cannot convert an integer this large to float
    cfg = write_config(tmp_path,
                       BASE_CONFIG.replace("N = 1", "N = 1" + "0" * 400))
    rc = main(["profile", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "dim must be 1, 2 or 3" in capsys.readouterr().err


def test_user_table_kind_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG.replace(
        "kind = log_linear", "kind = user_table"))
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "user_table" in err and "line 8" in err
    assert "log_linear" in err and "pure_power" in err


@pytest.mark.parametrize("key,value", [
    ("L", "nan"), ("L", "inf"), ("theta", "nan"), ("solver.step", "nan"),
    ("solver.tol", "nan"), ("m", "nan"), ("potential.A", "-inf")])
def test_non_finite_value_exits_1(tmp_path, capsys, key, value):
    lines = [line for line in BASE_CONFIG.splitlines()
             if not line.startswith(key + " ")] + [f"{key} = {value}"]
    cfg = write_config(tmp_path, "\n".join(lines) + "\n")
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"non-finite value for '{key}'" in err
    assert f"(line {len(lines)}, col " in err


def test_default_x_max_overflow_exits_1(tmp_path, capsys):
    # a subnormal m is admissible, but extension.x_max = 10/m is not finite
    cfg = write_config(tmp_path, BASE_CONFIG.replace("m = 1.0", "m = 1e-310"))
    rc = main(["profile", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "extension.x_max" in err and "(line 3, col " in err


@pytest.mark.parametrize("flag", ["--seed", "--threads"])
@pytest.mark.parametrize("command", ["profile", "verify"])
def test_solve_flags_are_usage_errors_elsewhere(tmp_path, capsys, command,
                                                 flag):
    argv = [command, "--config", write_config(tmp_path), flag, "2"]
    if command == "verify":
        argv += ["--field", str(tmp_path / "field.csv")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err


BASE_PAIRS = dict(line.split(" = ") for line in BASE_CONFIG.splitlines()[1:])

# value texts: any float (nan, inf, subnormals, -0.0), admissible-looking
# floats, overflowing literals, integers of any size, and arbitrary text
VALUE_TEXTS = st.one_of(
    st.floats().map(repr),
    st.floats(0.01, 10.0).map(repr),
    st.sampled_from(["1e999", "-1e999", "Infinity", "NaN", "5e-324", "1_0"]),
    st.integers(-2, 10).map(str),
    st.integers().map(str),
    st.text(max_size=12))


@st.composite
def config_texts(draw):
    """The base configuration with some keys set to drawn values, some
    removed, and some junk lines, in a drawn order."""
    pairs = dict(BASE_PAIRS)
    for key in draw(st.lists(st.sampled_from(sorted(_SCHEMA)), max_size=4,
                             unique=True)):
        pairs[key] = draw(VALUE_TEXTS)
    for key in draw(st.lists(st.sampled_from(sorted(pairs)), max_size=1)):
        del pairs[key]
    lines = [f"{k} = {v}" for k, v in pairs.items()]
    lines += draw(st.lists(st.text(max_size=20), max_size=1))
    return "\n".join(draw(st.permutations(lines)))


def dataclass_floats(obj):
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        if dataclasses.is_dataclass(value):
            yield from dataclass_floats(value)
        elif isinstance(value, float):
            yield field.name, value


@settings(max_examples=300)
@given(text=config_texts())
def test_config_parser_fuzz(tmp_path_factory, text):
    # every input gives a RunConfig with finite floats, or a ConfigError or
    # DomainError (exit 1 or 2), never another exception
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_bytes(text.encode())
    try:
        cfg = load_config(path)
    except (ConfigError, DomainError):
        return
    assert isinstance(cfg, RunConfig)
    for name, value in dataclass_floats(cfg):
        assert math.isfinite(value), name


def test_iteration_budget_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG + "solver.max_iter = 2\n")
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "no convergence" in capsys.readouterr().err
    # the failed solve's trace: the start and two iterations
    rows = (tmp_path / "o" / "iterations.csv").read_text().splitlines()
    assert rows[0] == "iter,energy,nehari_residual,grad_residual,step"
    assert [r.split(",")[0] for r in rows[1:]] == ["0", "1", "2"]


def test_corrupted_field_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path)
    bad = tmp_path / "field.csv"
    bad.write_text("not,a,field\n1,2,3\n")
    rc = main(["verify", "--config", cfg, "--out", str(tmp_path / "o"),
               "--field", str(bad)])
    assert rc == 1
    capsys.readouterr()


def test_solve_outputs_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", cfg, "--out", str(a)]) == 0
    assert main(["solve", "--config", cfg, "--out", str(b)]) == 0
    capsys.readouterr()
    for name in ("ground_state.csv", "iterations.csv", "report.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


NO_SCIPY_SCRIPT = """\
import sys
import hartreebox
from hartreebox.cli import main
cfg, out = sys.argv[1:]
assert main(["profile", "--config", cfg, "--out", out + "/p"]) == 0
assert main(["solve", "--config", cfg, "--out", out + "/s"]) == 0
assert main(["verify", "--config", cfg, "--out", out + "/v",
             "--field", out + "/s/ground_state.csv"]) == 0
print(sorted(k for k in sys.modules if k.startswith("scipy")))
"""


def test_runtime_loads_no_scipy(tmp_path):
    # scipy is a test-only dependency: a fresh interpreter running the
    # commands must not load it
    src = str(Path(hartreebox.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, write_config(tmp_path),
         str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
