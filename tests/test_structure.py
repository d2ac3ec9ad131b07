"""Layout guards: decisions that belong to one module stay there."""

import argparse
import ast
import collections
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import hartreebox
from hartreebox.cli import build_parser, main
from hartreebox.config import _REQUIRED, _SCHEMA, load_config
from hartreebox.extension import MIN_DECAY_LENGTHS, lift
from hartreebox import model
from hartreebox.model import (KernelSpec, ModelParams, NonlinearitySpec,
                              PotentialSpec)

PACKAGE = Path(hartreebox.__file__).resolve().parent
README = PACKAGE.parents[1] / "README.md"

# numpy's FFT by attribute (np.fft.rfftn, numpy.fft) or by import
FFT_USE = re.compile(r"\b(?:np|numpy)\.fft\b|from\s+numpy\s+import[^\n]*\bfft\b")


def test_only_spectral_calls_numpy_fft():
    # spectral owns the rfftn half lattice: every transform, the |k|^2 mesh
    # and the mode weight; other modules go through its functions
    modules = sorted(PACKAGE.glob("*.py"))
    assert "spectral.py" in [p.name for p in modules]
    offenders = [f"{p.name}:{n}" for p in modules if p.name != "spectral.py"
                 for n, line in enumerate(p.read_text().splitlines(), 1)
                 if FFT_USE.search(line)]
    assert offenders == []


# a mode of open() that writes
WRITE_MODE = re.compile(r"[wax+]")


def file_output_lines(tree):
    """Lines that import csv or json, or call open() with a write mode (or
    one not written out) or Path.write_text/write_bytes."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = ({node.module} if isinstance(node, ast.ImportFrom)
                     else {alias.name for alias in node.names})
            if names & {"csv", "json"}:
                lines.append(node.lineno)
        elif isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in ("write_text", "write_bytes")
                or isinstance(node.func, ast.Name) and node.func.id == "open"
                and any(not isinstance(mode, ast.Constant)
                        or WRITE_MODE.search(mode.value)
                        for mode in node.args[1:2] + [
                            kw.value for kw in node.keywords
                            if kw.arg == "mode"])):
            lines.append(node.lineno)
    return lines


def test_only_cli_and_spectral_write_files():
    # cli owns the format of every report file: the library returns data.
    # spectral keeps the field CSV, an input format it also reads back
    offenders = [f"{p.name}:{n}" for p in sorted(PACKAGE.glob("*.py"))
                 if p.name not in ("cli.py", "spectral.py")
                 for n in file_output_lines(ast.parse(p.read_text()))]
    assert offenders == []


# numpy calls that reduce through BLAS, and the @ operator
BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "einsum"}


def test_solver_and_model_sum_products_without_blas():
    # at 3D n = 32 OpenBLAS runs np.dot on two threads (cpu time 1.96 times
    # wall time), and a solver pairing spectra with it took the 3D
    # pure_power command's cpu_s from 0.83 to 1.97 s; pairings there are
    # (a * b).sum()
    offenders = []
    for name in ("solver.py", "model.py"):
        for node in ast.walk(ast.parse((PACKAGE / name).read_text())):
            if (isinstance(node, (ast.BinOp, ast.AugAssign))
                    and isinstance(node.op, ast.MatMult)
                    or isinstance(node, ast.Attribute)
                    and node.attr in BLAS_NAMES
                    or isinstance(node, ast.Name) and node.id in BLAS_NAMES):
                offenders.append(f"{name}:{node.lineno}")
    assert offenders == []


def referenced_names(tree):
    """Every name the module reads, as a bare name or as an attribute."""
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)})


def definitions(path):
    """module.name of every module-level function and class."""
    return {f"{path.stem}.{node.name}"
            for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def test_every_exported_name_is_used_by_the_package():
    # a name the package exports or defines at module level, public or
    # private, but never reads itself serves only the tests; such helpers
    # belong in tests/oracles.py
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in ast.walk(init)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    modules = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    used = set().union(*(referenced_names(ast.parse(p.read_text()))
                         for p in modules))
    defined = set().union(*(definitions(p) for p in modules))
    assert sorted(exported - used) == []
    assert sorted(d for d in defined if d.partition(".")[2] not in used) == []


def class_members(tree):
    """Class.name of every method, property, class-level alias and
    annotated field (a dataclass field) of the module's classes and of
    every attribute a method sets on self; dunder methods, which Python
    calls itself, aside."""
    members = set()
    for cls in (node for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef)):
        names = {node.name for node in cls.body
                 if isinstance(node, ast.FunctionDef)}
        names |= {target.id for node in cls.body
                  if isinstance(node, ast.Assign)
                  for target in node.targets if isinstance(target, ast.Name)}
        names |= {node.target.id for node in cls.body
                  if isinstance(node, ast.AnnAssign)
                  and isinstance(node.target, ast.Name)}
        names |= {node.attr for node in ast.walk(cls)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Store)
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "self"}
        members |= {f"{cls.name}.{name}" for name in names
                    if not name.startswith("__")}
    return members


def test_every_class_member_is_read_by_the_package():
    # a method, property, alias, field or attribute that the package never
    # reads as obj.name serves only the tests
    trees = [ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    members = set().union(*(class_members(tree) for tree in trees))
    assert sorted(m for m in members if m.partition(".")[2] not in read) == []


def test_config_imports_only_errors_and_model():
    # config hands each key to its owner; a bound the owner checks, such
    # as lift's x_max >= 10/m, is not decided again here
    tree = ast.parse((PACKAGE / "config.py").read_text())
    imported = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level}
    assert imported == {"errors", "model"}


def test_no_module_imports_inside_a_function():
    # the cli calls the library as module attributes, looked up at call
    # time, so a patched module function binds without a local import
    offenders = [f"{p.name}:{node.lineno}"
                 for p in sorted(PACKAGE.glob("*.py"))
                 for fn in ast.walk(ast.parse(p.read_text()))
                 if isinstance(fn, ast.FunctionDef)
                 for node in ast.walk(fn)
                 if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert offenders == []


# The owner of each config section: a key `section.name` is the keyword
# argument `name` of it.  The top-level keys are ModelParams arguments, but
# for those RENAMED redirects and the config's own seed.
OWNERS = {"": ModelParams, "nonlinearity": NonlinearitySpec,
          "potential": PotentialSpec, "kernel": KernelSpec, "extension": lift}
RENAMED = {"N": "dim", "theta": "nonlinearity.theta", "solver.tol": "tol"}
MINIMAL_CONFIG = "sigma = 0.5\nm = 1.0\nN = 1\nL = 10.0\nn = 64\n"


def owner_parameter(key):
    section, _, name = RENAMED.get(key, key).rpartition(".")
    return section, name, inspect.signature(OWNERS[section]).parameters


def loaded_value(cfg, key):
    section, name, _ = owner_parameter(key)
    if section == "extension":
        return cfg.lift_kw[name]
    return getattr(getattr(cfg.params, section) if section else cfg.params,
                   name)


def load_text(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return load_config(path)


def test_every_config_key_reaches_a_parameter_of_its_owner(tmp_path):
    # every optional key set to an admissible value off its default
    texts = {key: value for key, value in (
        line.split(" = ") for line in MINIMAL_CONFIG.splitlines())}
    for key in set(_SCHEMA) - set(texts) - {"seed"}:
        _, name, parameters = owner_parameter(key)
        default = parameters[name].default
        if default is None:             # lift's x_max, 10/m
            texts[key] = "12.5"
        elif isinstance(default, str):
            texts[key] = "pure_power"
        else:
            texts[key] = repr(default + (1 if _SCHEMA[key] is int else 0.25))
    cfg = load_text(tmp_path, "".join(f"{k} = {v}\n"
                                      for k, v in texts.items()))
    for key, text in texts.items():
        _, name, parameters = owner_parameter(key)
        assert name in parameters, key
        assert loaded_value(cfg, key) == _SCHEMA[key](text), key


def readme_key_defaults():
    """{key: default text} from the first column of the README key table."""
    text = README.read_text()
    start = text.index("| Key | Meaning |")
    rows = text[start:text.index("\n\n", start)].splitlines()[2:]
    return dict(pair for row in rows for pair in
                re.findall(r"`([\w.]+)` \(([^)]*)\)", row.split(" | ")[0]))


def test_readme_key_defaults_are_the_library_defaults(tmp_path):
    documented = readme_key_defaults()
    assert set(documented) == set(_SCHEMA) - set(_REQUIRED)
    for key, text in documented.items():
        if key == "seed":               # the config's own value
            assert int(text) == load_text(tmp_path, MINIMAL_CONFIG).seed == 0
            continue
        _, name, parameters = owner_parameter(key)
        default = parameters[name].default
        if key == "extension.x_max":    # lift's None stands for 10/m
            assert default is None
            assert text == f"{MIN_DECAY_LENGTHS}/m"
        else:
            assert type(default)(text.strip("`")) == default, key


def test_required_keys_alone_take_every_library_default(tmp_path):
    cfg = load_text(tmp_path, MINIMAL_CONFIG)
    assert cfg.params == ModelParams(sigma=0.5, m=1.0, dim=1, L=10.0, n=64)
    assert cfg.lift_kw == {}


def registered_options(parser):
    """Option strings of the parser and of every subcommand, but help."""
    options = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                options |= registered_options(sub)
        elif not isinstance(action, argparse._HelpAction):
            options |= set(action.option_strings)
    return options


def test_readme_names_exactly_the_cli_options():
    text = README.read_text()
    start = text.index("## Command line")
    section = text[start:text.index("\n## ", start + 1)]
    named = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", section))
    assert registered_options(build_parser()) == named


def test_readme_names_every_solve_output(tmp_path, capsys):
    # each iterations.csv column and report.json key that `solve` writes is
    # named in backticks where the README describes the output files
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MINIMAL_CONFIG)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    columns = (out / "iterations.csv").read_text().splitlines()[0].split(",")
    keys = json.loads((out / "report.json").read_text())
    text = README.read_text()
    section = text[text.index("## File formats"):]
    named = set(re.findall(r"`(\w+)`", section))
    assert sorted(set(columns) - named) == []
    assert sorted(set(keys) - named) == []


def test_readme_names_every_csv_header(tmp_path, capsys):
    # every header row of a CSV that a command writes is named in the File
    # formats section as one span in backticks, its columns joined by ", "
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MINIMAL_CONFIG)
    field = tmp_path / "solve" / "ground_state.csv"
    for command in (["solve"], ["verify", "--field", str(field)],
                    ["profile"]):
        assert main([*command, "--config", str(cfg), "--out",
                     str(tmp_path / command[0])]) == 0
    capsys.readouterr()
    text = README.read_text()
    named = set(re.findall(r"`([^`]*)`", text[text.index("## File formats"):]))
    for name, row in (("solve/ground_state.csv", 0),
                      ("solve/ground_state.csv", 2),
                      ("solve/iterations.csv", 0),
                      ("verify/verify_report.csv", 0),
                      ("verify/dtn.csv", 0), ("verify/decay.csv", 0),
                      ("profile/profile.csv", 0), ("profile/profile.csv", 2)):
        header = (tmp_path / name).read_text().splitlines()[row]
        assert header.replace(",", ", ") in named, (name, header)


def test_readme_library_layout_has_one_row_per_module():
    # every module but __init__ and errors, whose exit codes the Command
    # line section covers, has exactly one row
    text = README.read_text()
    start = text.index("## Library layout")
    section = text[start:text.index("\n## ", start + 1)]
    rows = re.findall(r"^\| `hartreebox\.(\w+)` \|", section, flags=re.M)
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__", "errors"}
    assert sorted(rows) == sorted(modules)


def test_solve_path_takes_no_profile_table():
    # the solve path reads kappa from the closed form profile.flux_constant;
    # the tabulated kernel serves only the profile and verify commands
    for name in ("model.py", "solver.py"):
        tree = ast.parse((PACKAGE / name).read_text())
        from_profile = {alias.name for node in ast.walk(tree)
                        if isinstance(node, ast.ImportFrom)
                        and node.module == "profile" for alias in node.names}
        assert from_profile <= {"flux_constant"}, name
        assert not ({"BesselProfile", "build_profile"}
                    & referenced_names(tree)), name


def test_cli_import_leaves_numpy_polynomial_unloaded():
    # numpy.polynomial adds 1.4-1.8 MB to every command's resident memory;
    # the package writes the one rule it needed from it as literals
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, hartreebox.cli; "
         "print('numpy.polynomial' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_log_linear_quadrature_is_leggauss_7():
    # the literals are leggauss(7)'s nodes and weights bit for bit, mapped
    # to [0, 1] as model maps them
    x, w = np.polynomial.legendre.leggauss(7)
    nodes = 0.5 * (x[:, None] + 1.0)
    assert model._F_QUAD_NODES.shape == model._F_QUAD_WEIGHTS.shape == (7, 1)
    assert model._F_QUAD_NODES.tobytes() == nodes.tobytes()
    assert model._F_QUAD_WEIGHTS.tobytes() == (
        0.5 * w[:, None] * nodes).tobytes()


# modules whose defaulted parameters the package itself must pass
DEFAULT_OWNERS = ("model", "solver", "extension", "spectral", "profile",
                  "config")


def decorator_names(node):
    """Names of the decorators of a def, called (@dataclass(...)) or not."""
    decorators = [d.func if isinstance(d, ast.Call) else d
                  for d in node.decorator_list]
    return {d.id for d in decorators if isinstance(d, ast.Name)}


def defaulted_parameters(tree):
    """(callee name, position or None, name) of every parameter that has a
    default: of each function and method, the position counted as a call
    passes it (a method's past self, None for keyword-only), and of each
    dataclass, its defaulted fields in field order."""
    out = []

    def function(fn, bound):
        args = fn.args.posonlyargs + fn.args.args
        out.extend((fn.name, i - bound, a.arg) for i, a in
                   enumerate(args) if i >= len(args) - len(fn.args.defaults))
        out.extend((fn.name, None, a.arg) for a, d in
                   zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d)
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            function(node, 0)
        elif isinstance(node, ast.ClassDef):
            fields = [f for f in node.body if isinstance(f, ast.AnnAssign)
                      and isinstance(f.target, ast.Name)]
            if "dataclass" in decorator_names(node):
                out.extend((node.name, i, f.target.id)
                           for i, f in enumerate(fields) if f.value)
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):
                    function(fn, "staticmethod" not in decorator_names(fn))
    return out


def passes(call, position, name):
    """Whether the call passes the parameter at `position` (None: keyword
    only) named `name`; *args passes every position, **kw every name."""
    if position is not None and (
            position < len(call.args)
            or any(isinstance(a, ast.Starred) for a in call.args)):
        return True
    return any(kw.arg in (None, name) for kw in call.keywords)


def test_every_defaulted_parameter_is_passed_by_the_package():
    # a default that no call inside the package overrides serves only the
    # tests: the parameter is a constant, or public API only they use
    calls = collections.defaultdict(list)
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                callee = (func.id if isinstance(func, ast.Name) else
                          func.attr if isinstance(func, ast.Attribute)
                          else None)
                calls[callee].append(node)
    params = [(f"{module}.{callee}", position, name)
              for module in DEFAULT_OWNERS
              for callee, position, name in defaulted_parameters(
                  ast.parse((PACKAGE / f"{module}.py").read_text()))]
    assert params
    assert sorted(f"{qualified}({name})"
                  for qualified, position, name in params
                  if not any(passes(call, position, name) for call in
                             calls[qualified.partition(".")[2]])) == []
