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

Unknown keys and non-finite numbers (nan, inf) are hard errors; every
diagnostic carries the 1-based line (and column for value errors) of the
offending token.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, DomainError
from .model import (KernelSpec, ModelParams, NonlinearitySpec, PotentialSpec,
                    SolverSettings)

_SCHEMA = {
    "sigma": float, "m": float, "N": int, "L": float, "n": int,
    "theta": float, "seed": int,
    "nonlinearity.kind": str,
    "potential.V_inf": float, "potential.A": float, "potential.w": float,
    "kernel.a": float, "kernel.mu": float, "kernel.R_c": float,
    "kernel.b": float, "kernel.w2": float,
    "solver.tol": float, "solver.max_iter": int, "solver.step": float,
    "profile.s_max": float, "profile.M": int,
    "extension.x_max": float, "extension.K_x": int,
}

_REQUIRED = ("sigma", "m", "N", "L", "n")


@dataclass(frozen=True)
class RunConfig:
    params: ModelParams
    seed: int
    profile_s_max: float
    profile_M: int
    extension_x_max: float
    extension_K_x: int
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
        col = line.index("=") + 2
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


def _convert(pairs: dict, key: str, default=None):
    if key not in pairs:
        return default
    value, lineno, col = pairs[key]
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
        text = raw.decode()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not valid text: {exc}") from exc

    pairs = parse_pairs(text)
    for key in _REQUIRED:
        if key not in pairs:
            raise ConfigError(f"missing required key {key!r}")

    kind = _convert(pairs, "nonlinearity.kind", "log_linear")
    if kind == "user_table":        # no key supplies its samples
        raise ConfigError("nonlinearity.kind user_table is library-only; a "
                          "config file takes log_linear or pure_power",
                          *pairs["nonlinearity.kind"][1:])
    nonlinearity = NonlinearitySpec(kind=kind,
                                    theta=_convert(pairs, "theta", 2.5))
    potential = PotentialSpec(
        V_inf=_convert(pairs, "potential.V_inf", 1.0),
        A=_convert(pairs, "potential.A", 0.0),
        w=_convert(pairs, "potential.w", 1.0))
    kernel = KernelSpec(
        a=_convert(pairs, "kernel.a", 0.0),
        mu=_convert(pairs, "kernel.mu", 0.5),
        R_c=_convert(pairs, "kernel.R_c", 1.0),
        b=_convert(pairs, "kernel.b", 1.0),
        w2=_convert(pairs, "kernel.w2", 1.0))
    solver = SolverSettings(
        tol=_convert(pairs, "solver.tol", 1e-8),
        max_iter=_convert(pairs, "solver.max_iter", 2000),
        step=_convert(pairs, "solver.step", 1.0))
    params = ModelParams(
        sigma=_convert(pairs, "sigma"), m=_convert(pairs, "m"),
        dim=_convert(pairs, "N"), L=_convert(pairs, "L"),
        n=_convert(pairs, "n"), nonlinearity=nonlinearity,
        potential=potential, kernel=kernel, solver=solver)

    x_max = _convert(pairs, "extension.x_max", 10.0 / params.m)
    if not math.isfinite(x_max):
        raise ConfigError("the default extension.x_max = 10/m overflows; "
                          "set extension.x_max", *pairs["m"][1:])
    seed = _convert(pairs, "seed", 0)
    if seed < 0:                    # numpy's generators take seeds >= 0
        raise ConfigError(f"seed must be nonnegative, got {seed}",
                          *pairs["seed"][1:])
    return RunConfig(
        params=params,
        seed=seed,
        profile_s_max=_convert(pairs, "profile.s_max", 40.0),
        profile_M=_convert(pairs, "profile.M", 2000),
        extension_x_max=x_max,
        extension_K_x=_convert(pairs, "extension.K_x", 400),
        raw=raw)
