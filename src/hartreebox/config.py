"""Flat `key = value` run configuration with dotted section keys.

Example::

    # ground-state run
    sigma = 0.5
    m = 1.0
    N = 1
    L = 20.0
    n = 256
    theta = 2.5
    nonlinearity.kind = log_linear
    potential.V_inf = 1.0
    potential.A = 0.3
    potential.w = 4.0
    kernel.b = 1.0
    kernel.w2 = 3.0
    solver.tol = 1e-8
    seed = 7

A key the file sets reaches its owner's parameter unchanged (see _SCHEMA); a
key it omits takes the owner's default.  Unknown keys and non-finite numbers
(nan, inf) are hard errors, found before any domain check; every diagnostic
carries the 1-based line (and column for value errors) of the offending token.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

from .errors import ConfigError
from .model import KernelSpec, ModelParams, NonlinearitySpec, PotentialSpec

# key -> type.  A dotted key is the keyword argument after the dot of its
# section's owner: NonlinearitySpec, PotentialSpec, KernelSpec or lift
# (extension).  `seed` (default 0) is the config's own; the other keys are
# ModelParams arguments, or as _RENAMED says.
_SCHEMA = {
    "sigma": float, "m": float, "N": int, "L": float, "n": int,
    "theta": float, "seed": int,
    "nonlinearity.kind": str,
    "potential.V_inf": float, "potential.A": float, "potential.w": float,
    "kernel.a": float, "kernel.mu": float, "kernel.R_c": float,
    "kernel.b": float, "kernel.w2": float,
    "solver.tol": float,
    "extension.x_max": float, "extension.K_x": int,
}

_RENAMED = {"N": "dim", "theta": "nonlinearity.theta", "solver.tol": "tol"}

_REQUIRED = ("sigma", "m", "N", "L", "n")


@dataclass(frozen=True)
class RunConfig:
    params: ModelParams
    seed: int
    lift_kw: dict       # the file's keyword arguments of lift
    raw: bytes          # exact config bytes, for the manifest hash


def parse_pairs(text: str) -> dict:
    """Parse the key = value lines into a {key: (value, line, col)} map."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError("expected `key = value`", line=lineno, col=1)
        key, value = stripped.split("=", 1)
        key, value = key.strip(), value.strip()
        # 1-based column of the value's first character
        after = line[line.index("=") + 1:]
        col = len(line) - len(after.lstrip()) + 1
        if not key:
            raise ConfigError("empty key", line=lineno, col=1)
        if key not in _SCHEMA:
            raise ConfigError(f"unknown key {key!r}", line=lineno, col=1)
        if key in out:
            raise ConfigError(f"duplicate key {key!r}", line=lineno, col=1)
        if not value:
            raise ConfigError(f"missing value for {key!r}",
                              line=lineno, col=col)
        out[key] = (value, lineno, col)
    return out


def _convert(key: str, value: str, lineno: int, col: int):
    typ = _SCHEMA[key]
    if typ is str:
        return value
    try:
        out = typ(value)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}",
                          line=lineno, col=col) from exc
    if typ is float and not math.isfinite(out):
        raise ConfigError(f"non-finite value for {key!r}: {value}",
                          line=lineno, col=col)
    return out


def load_config(path) -> RunConfig:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not valid text: {exc}") from exc

    pairs = parse_pairs(text)
    for key in _REQUIRED:
        if key not in pairs:
            raise ConfigError(f"missing required key {key!r}")

    kw = defaultdict(dict)          # section -> {parameter: value}
    for key, (value, lineno, col) in pairs.items():
        section, _, name = _RENAMED.get(key, key).rpartition(".")
        kw[section][name] = _convert(key, value, lineno, col)
    seed = kw[""].pop("seed", 0)
    if seed < 0:                    # numpy's generators take seeds >= 0
        raise ConfigError(f"seed must be nonnegative, got {seed}",
                          *pairs["seed"][1:])
    params = ModelParams(
        **kw[""], nonlinearity=NonlinearitySpec(**kw["nonlinearity"]),
        potential=PotentialSpec(**kw["potential"]),
        kernel=KernelSpec(**kw["kernel"]))
    return RunConfig(params=params, seed=seed, lift_kw=kw["extension"],
                     raw=raw)
