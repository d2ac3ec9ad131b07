"""Layout guards: decisions that belong to one module stay there."""

import argparse
import ast
import inspect
import re
from pathlib import Path

import hartreebox
from hartreebox.cli import build_parser
from hartreebox.config import _REQUIRED, _SCHEMA, load_config
from hartreebox.extension import MIN_DECAY_LENGTHS, lift
from hartreebox.model import (KernelSpec, ModelParams, NonlinearitySpec,
                              PotentialSpec, SolverSettings)
from hartreebox.profile import build_profile

PACKAGE = Path(hartreebox.__file__).resolve().parent
README = PACKAGE.parents[1] / "README.md"

# numpy's FFT by attribute (np.fft.rfftn, numpy.fft) or by import
FFT_USE = re.compile(r"\b(?:np|numpy)\.fft\b|from\s+numpy\s+import[^\n]*\bfft\b")


def test_only_spectral_calls_numpy_fft():
    # spectral owns the rfftn half lattice: every transform, the |k|^2 mesh
    # and the partner-count rule; other modules go through its functions
    modules = sorted(PACKAGE.glob("*.py"))
    assert "spectral.py" in [p.name for p in modules]
    offenders = [f"{p.name}:{n}" for p in modules if p.name != "spectral.py"
                 for n, line in enumerate(p.read_text().splitlines(), 1)
                 if FFT_USE.search(line)]
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


def public_definitions(path):
    """module.name of every public module-level function and class."""
    return {f"{path.stem}.{node.name}"
            for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def test_every_exported_name_is_used_by_the_package():
    # a name the package exports or defines in public but never reads
    # itself serves only the tests; such helpers belong in tests/oracles.py
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in ast.walk(init)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    modules = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    used = set().union(*(referenced_names(ast.parse(p.read_text()))
                         for p in modules))
    defined = set().union(*(public_definitions(p) for p in modules))
    assert sorted(exported - used) == []
    assert sorted(d for d in defined if d.partition(".")[2] not in used) == []


# The owner of each config section: a key `section.name` is the keyword
# argument `name` of it.  The top-level keys are ModelParams arguments, but
# for those RENAMED redirects and the config's own seed.
OWNERS = {"": ModelParams, "nonlinearity": NonlinearitySpec,
          "potential": PotentialSpec, "kernel": KernelSpec,
          "solver": SolverSettings, "profile": build_profile,
          "extension": lift}
RENAMED = {"N": "dim", "theta": "nonlinearity.theta"}
MINIMAL_CONFIG = "sigma = 0.5\nm = 1.0\nN = 1\nL = 10.0\nn = 64\n"


def owner_parameter(key):
    section, _, name = RENAMED.get(key, key).rpartition(".")
    return section, name, inspect.signature(OWNERS[section]).parameters


def loaded_value(cfg, key):
    section, name, _ = owner_parameter(key)
    if section == "profile":
        return cfg.profile_kw[name]
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
    assert cfg.profile_kw == {} and cfg.lift_kw == {}


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
