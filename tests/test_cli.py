"""End-to-end command line runs in temporary directories."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hartreebox
from hartreebox import cli, solver
from hartreebox.cli import build_parser, main
from hartreebox.config import _SCHEMA, RunConfig, load_config
from hartreebox.errors import (BracketError, ConfigError, ConvergenceError,
                               DiagnosticError, DomainError, HartreeboxError,
                               NumericError, VerificationError)
from hartreebox.spectral import Grid, TraceField, field_to_csv

from oracles import field_to_binary

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


def test_solve_solves_each_problem_once(tmp_path, capsys, monkeypatch):
    # three starts with the well, then the A = 0 problem from the best; the
    # best start's level is c_star itself
    wells, solve_ground = [], solver.solve_ground

    def counted(params, *args):
        wells.append(params.potential.A)
        return solve_ground(params, *args)
    monkeypatch.setattr(solver, "solve_ground", counted)
    out = tmp_path / "out"
    assert main(["solve", "--config", write_config(tmp_path), "--out",
                 str(out)]) == 0
    capsys.readouterr()
    assert wells == [0.3, 0.3, 0.3, 0.0]
    report = json.loads((out / "report.json").read_text())
    assert report["c_star"] == report["level"]
    assert report["margin"] == ((report["c_inf"] - report["level"])
                                / report["c_inf"])


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


def test_verify_manifest_lists_only_the_files_written(tmp_path, capsys):
    # a high mode over a constant of 1e-12: the decay fit fails (its fitted
    # rate is about -3.5), so the command writes no decay.csv
    cfg = write_config(tmp_path, BASE_CONFIG.replace("L = 10.0", "L = 5.0"))
    grid = Grid(1, 5.0, 64)
    h = TraceField(grid, 1e-12 + np.cos(2.0 * np.pi * 12.0 * grid.axis
                                        / (2.0 * grid.L)))
    field = tmp_path / "field.csv"
    field_to_csv(h, str(field))
    vout = tmp_path / "verify"
    rc = main(["verify", "--config", cfg, "--out", str(vout),
               "--field", str(field)])
    assert rc == 4
    assert "decay,fail" in (vout / "verify_report.csv").read_text()
    assert not (vout / "decay.csv").exists()
    manifest = json.loads((vout / "manifest.json").read_text())
    assert manifest["outputs"] == ["dtn.csv", "verify_report.csv"]
    assert all((vout / name).exists() for name in manifest["outputs"])
    capsys.readouterr()


def test_sigma_out_of_range_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path,
                       BASE_CONFIG.replace("sigma = 0.5", "sigma = 1.5"))
    rc = main(["profile", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "sigma out of" in capsys.readouterr().err


def test_s_max_beyond_the_shooting_range_exits_2(tmp_path, capsys):
    # the shooting from s_max = 4000 used to overflow, printing numpy
    # warnings before it failed at the pivot
    cfg = write_config(tmp_path, BASE_CONFIG + "profile.s_max = 4000.0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["profile", "--config", cfg, "--out",
                   str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err == \
        "error: s_max must lie in [20, 600]\n"


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


@pytest.mark.parametrize("kind", ["user_table", "cubic"])
def test_unknown_kind_exits_2(tmp_path, capsys, kind):
    # a config file takes log_linear or pure_power; any other kind is
    # rejected by NonlinearitySpec like an inadmissible value
    cfg = write_config(tmp_path, BASE_CONFIG.replace(
        "kind = log_linear", f"kind = {kind}"))
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"unknown nonlinearity kind {kind!r}" in capsys.readouterr().err


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


@pytest.mark.parametrize("flag", ["--seed"])
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


@pytest.mark.parametrize("flag,value,bound", [("--seed", "-1", ">= 0")])
def test_solve_flag_out_of_range_is_usage_error(tmp_path, capsys, flag,
                                                value, bound):
    argv = ["solve", "--config", write_config(tmp_path), "--out",
            str(tmp_path / "o"), flag, value]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}: must be {bound}: {value}" \
        in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    args = build_parser().parse_args(["solve", "--config", "c", "--seed", "0"])
    assert args.seed == 0


def test_threads_is_a_usage_error(tmp_path, capsys):
    # the starts run in order; there is no threaded path to select
    argv = ["solve", "--config", write_config(tmp_path), "--out",
            str(tmp_path / "o"), "--threads", "2"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_negative_config_seed_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG.replace("seed = 3", "seed = -1"))
    line = BASE_CONFIG.splitlines().index("seed = 3") + 1
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "seed must be nonnegative" in err and f"(line {line}, col " in err


def test_verify_field_on_another_grid_exits_2(tmp_path, capsys):
    # the config grid is L = 10, n = 64
    grid = Grid(1, 5.0, 64)
    field = tmp_path / "field.csv"
    field_to_csv(TraceField(grid, np.exp(-grid.axis ** 2)), str(field))
    rc = main(["verify", "--config", write_config(tmp_path), "--out",
               str(tmp_path / "o"), "--field", str(field)])
    assert rc == 2
    assert "does not match config grid" in capsys.readouterr().err


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
    removed, and some junk lines, in a drawn order; in about a fifth of the
    examples only the seed changes, to a small signed integer."""
    pairs, junk = dict(BASE_PAIRS), []
    if draw(st.integers(0, 4)) == 0:
        pairs["seed"] = str(draw(st.integers(-3, 3)))
    else:
        for key in draw(st.lists(st.sampled_from(sorted(_SCHEMA)),
                                 max_size=4, unique=True)):
            pairs[key] = draw(VALUE_TEXTS)
        for key in draw(st.lists(st.sampled_from(sorted(pairs)), max_size=1)):
            del pairs[key]
        junk = draw(st.lists(st.text(max_size=20), max_size=1))
    lines = [f"{k} = {v}" for k, v in pairs.items()] + junk
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
    # every input gives a RunConfig with finite floats and a seed numpy
    # accepts, or a ConfigError or DomainError (exit 1 or 2), never another
    # exception
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_bytes(text.encode())
    try:
        cfg = load_config(path)
    except (ConfigError, DomainError):
        return
    assert isinstance(cfg, RunConfig)
    assert cfg.seed >= 0
    for name, value in dataclass_floats(cfg):
        assert math.isfinite(value), name
    for name, value in {**cfg.profile_kw, **cfg.lift_kw}.items():
        assert isinstance(value, int) or math.isfinite(value), name


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


@pytest.mark.parametrize("name", ["field.csv", "field.bin"])
@pytest.mark.parametrize("where", ["L", "value"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_field_file_exits_1(tmp_path, capsys, name, where, value):
    # a field file whose half-length L or last value is not finite
    path = str(tmp_path / name)
    h = TraceField(Grid(1, 10.0, 64), np.ones(64))
    if name.endswith(".bin"):
        field_to_binary(h, path)
        raw = bytearray(Path(path).read_bytes())
        at = 24 if where == "L" else len(raw) - 8
        raw[at:at + 8] = np.array([value], dtype="<f8").tobytes()
        Path(path).write_bytes(bytes(raw))
    else:
        field_to_csv(h, path)
        rows = Path(path).read_text().splitlines()
        if where == "L":
            rows[1] = f"1,64,{value!r}"
        else:
            rows[-1] = repr(value)
        Path(path).write_text("\n".join(rows) + "\n")
    rc = main(["verify", "--config", write_config(tmp_path), "--out",
               str(tmp_path / "o"), "--field", path])
    assert rc == 1
    err = capsys.readouterr().err
    assert path in err and "finite" in err


@pytest.mark.parametrize("error,code", [
    (ConfigError("e"), 1), (FileNotFoundError("e"), 1),
    (DomainError("e"), 2), (DiagnosticError("e"), 2), (BracketError("e"), 2),
    (NumericError("e"), 2), (HartreeboxError("e"), 2),
    (ConvergenceError("e"), 3), (VerificationError("e"), 4)])
def test_exit_code_of_each_error(tmp_path, capsys, monkeypatch, error, code):
    def failing(args):
        raise error
    monkeypatch.setattr(cli, "cmd_profile", failing)
    assert main(["profile", "--config", "c"]) == code
    assert capsys.readouterr().err == "error: e\n"


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
