"""Periodic pseudospectral toolbox on [-L, L)^N, N in {1, 2, 3}.

Transform convention: hat(h)(xi_k) = cell_volume * FFT(h) at the lattice
frequencies xi_k = k/(2L), which discretizes int h(y) e^{-2 pi i xi.y} dy up
to a phase that cancels in every multiplier and convolution used here.  With
that scaling Plancherel reads

    int |h|^2 dy = sum_k |hat(h)(xi_k)|^2 * (1/2L)^N

exactly, and the fractional operator (m^2 - Lap)^sigma is the diagonal
multiplier (m^2 + 4 pi^2 |xi|^2)^sigma.

Fields are real, so every multiplier lives on the rfftn half lattice: the
full lattice with the last axis cut to 0..n/2.  The modes dropped there are
the complex conjugates of modes kept.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, NumericError

_BIN_MAGIC = 0x46584248  # "HBXF" little-endian
# Format 1 stored L as round(L * 1e6), which lost digits (10/3 read back as
# 3.333333) and read L < 5e-7 back as 0; format 2 stores L's float64 bits.
_BIN_FORMAT = 2


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid: `dim` axes, half-length L, n points per axis."""

    dim: int
    L: float
    n: int

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise DomainError("dim must be 1, 2 or 3")
        if self.n < 8 or self.n % 2:
            raise DomainError("n must be even and >= 8")
        if self.L <= 0:
            raise DomainError("L must be positive")

    @property
    def shape(self):
        return (self.n,) * self.dim

    @property
    def cell_volume(self):
        return (2.0 * self.L / self.n) ** self.dim

    @property
    def box_volume(self):
        return (2.0 * self.L) ** self.dim

    @cached_property
    def axis(self):
        """Physical coordinates along one axis, y_i = -L + i * 2L/n."""
        return -self.L + (2.0 * self.L / self.n) * np.arange(self.n)

    @cached_property
    def coords(self):
        """Meshgrid of physical coordinates, one array per axis."""
        return np.meshgrid(*([self.axis] * self.dim), indexing="ij")

    @cached_property
    def radius_sq(self):
        """|y|^2 with the origin at the box center (no wrap)."""
        return sum(c ** 2 for c in self.coords)

    @cached_property
    def displacement_radius(self):
        """Minimal-image |d| indexed by displacement (index 0 = zero shift).

        This is the sampling convention FFT circular convolution expects for
        a kernel: entry i holds the distance of the periodic shift i*2L/n.
        """
        d_ax = (2.0 * self.L / self.n) * np.arange(self.n)
        d_ax = np.minimum(d_ax, 2.0 * self.L - d_ax)
        mesh = np.meshgrid(*([d_ax] * self.dim), indexing="ij")
        return np.sqrt(sum(x ** 2 for x in mesh))

    @cached_property
    def xi_sq(self):
        """|xi|^2 on the rfftn half lattice."""
        d = 2.0 * self.L / self.n
        axes = ([np.fft.fftfreq(self.n, d=d)] * (self.dim - 1)
                + [np.fft.rfftfreq(self.n, d=d)])
        mesh = np.meshgrid(*axes, indexing="ij")
        return sum(x ** 2 for x in mesh)

    @cached_property
    def _multipliers(self) -> dict:
        return {}

    def multiplier(self, m: float, sigma: float) -> np.ndarray:
        """(m^2 + 4 pi^2 |xi|^2)^sigma on the rfftn half lattice.

        Computed once per (m, sigma) and grid; the array is read-only
        because every caller shares it.
        """
        key = (float(m), float(sigma))
        mult = self._multipliers.get(key)
        if mult is None:
            mult = (m ** 2 + 4.0 * np.pi ** 2 * self.xi_sq) ** sigma
            mult.flags.writeable = False
            self._multipliers[key] = mult
        return mult


@dataclass(frozen=True)
class TraceField:
    """Real grid function (a boundary trace u(0, .) or any sampled field)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise DomainError(f"values shape {v.shape} does not match grid "
                              f"{self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise NumericError("field contains non-finite values")
        object.__setattr__(self, "values", v)

    def norm_lq(self, q: float) -> float:
        if q == np.inf:
            return float(np.max(np.abs(self.values)))
        return float((self.grid.cell_volume
                      * np.sum(np.abs(self.values) ** q)) ** (1.0 / q))

    def norm_l2(self) -> float:
        return self.norm_lq(2)

    def inner(self, other: "TraceField") -> float:
        _check_same_grid(self.grid, other.grid)
        return float(self.grid.cell_volume
                     * np.sum(self.values * other.values))

    def __add__(self, other):
        _check_same_grid(self.grid, other.grid)
        return TraceField(self.grid, self.values + other.values)

    def __sub__(self, other):
        _check_same_grid(self.grid, other.grid)
        return TraceField(self.grid, self.values - other.values)

    def __mul__(self, c: float):
        return TraceField(self.grid, self.values * float(c))

    __rmul__ = __mul__


def _check_same_grid(a: Grid, b: Grid) -> None:
    if a != b:
        raise DomainError(f"grid mismatch: {a} vs {b}")


def apply_multiplier(mult: np.ndarray, values: np.ndarray,
                     what: str) -> np.ndarray:
    """Apply the Fourier multiplier `mult` (rfftn half lattice) to a real
    grid array: irfftn(mult * rfftn(values)).

    Every multiplier and periodic convolution in the package goes through
    here or, when rfftn(values) is already at hand, through
    multiply_spectrum.
    """
    return multiply_spectrum(mult, np.fft.rfftn(values), values.shape, what)


def multiply_spectrum(mult: np.ndarray, spectrum: np.ndarray, shape,
                      what: str) -> np.ndarray:
    """irfftn(mult * spectrum) on a grid of the given shape.  `what` names
    the caller in the NumericError raised when `mult` is not on the half
    lattice of `spectrum`."""
    if mult.shape != spectrum.shape:
        raise NumericError(f"{what}: multiplier of shape {mult.shape} is not "
                           f"on the half lattice {spectrum.shape}")
    return np.fft.irfftn(mult * spectrum, s=shape,
                         axes=tuple(range(len(shape))))


def half_lattice_form(grid: Grid, mult: np.ndarray,
                      spectrum: np.ndarray) -> float:
    """sum_k mult |hat(h)(xi_k)|^2 dxi^N over the full lattice, from the
    half-lattice spectrum rfftn(h) and an even multiplier: a mode counts
    twice, for itself and its conjugate partner, except on the last-axis
    planes 0 and n/2, which hold their partners and count once."""
    terms = mult * (spectrum.real ** 2 + spectrum.imag ** 2)
    total = 2.0 * np.sum(terms) - np.sum(terms[..., 0]) \
        - np.sum(terms[..., -1])
    return float(total * grid.box_volume / grid.n ** (2 * grid.dim))


def sobolev_form(h: TraceField, sigma: float, m: float, kappa) -> float:
    """kappa * sum (m^2 + 4 pi^2 |xi|^2)^sigma |hat(h)|^2 dxi^N.

    `kappa` may be the scalar constant or a BesselProfile, in which case its
    sigma must match (mismatch is a DomainError).
    """
    if not 0.0 < sigma < 1.0:
        raise DomainError("sigma out of (0,1)")
    if m <= 0.0:
        raise DomainError("m must be positive")
    kval = _kappa_value(kappa, sigma)
    return kval * half_lattice_form(h.grid, h.grid.multiplier(m, sigma),
                                    np.fft.rfftn(h.values))


def _kappa_value(kappa, sigma: float) -> float:
    from .profile import BesselProfile
    if isinstance(kappa, BesselProfile):
        if abs(kappa.sigma - sigma) > 1e-12:
            raise DomainError(f"profile built for sigma={kappa.sigma}, "
                              f"called with sigma={sigma}")
        return kappa.kappa
    return float(kappa)


# ---------------------------------------------------------------------------
# Field interchange: CSV (row-major flattening) and raw little-endian binary.

def field_to_csv(h: TraceField, path) -> None:
    g = h.grid
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["dim", "n", "L"])
        w.writerow([g.dim, g.n, repr(float(g.L))])
        w.writerow(["value"])
        # one row per value, as csv.writer would write them, in one write
        values = h.values.ravel(order="C").tolist()
        fh.write("\r\n".join(map(repr, values)) + "\r\n")


def field_from_csv(path) -> TraceField:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    try:
        if rows[0] != ["dim", "n", "L"]:
            raise ValueError("bad header row")
        dim, n, L = int(rows[1][0]), int(rows[1][1]), float(rows[1][2])
        if rows[2] != ["value"]:
            raise ValueError("bad column header")
        vals = np.array([float(r[0]) for r in rows[3:]])
        grid = Grid(dim, L, n)
        if vals.size != n ** dim:
            raise ValueError(f"expected {n ** dim} values, got {vals.size}")
    except (ValueError, IndexError) as exc:
        raise DomainError(f"unreadable field CSV {path}: {exc}") from exc
    return TraceField(grid, vals.reshape(grid.shape, order="C"))


def field_to_binary(h: TraceField, path) -> None:
    g = h.grid
    header = np.array([_BIN_MAGIC, g.dim, g.n, 0, _BIN_FORMAT, 0, 0, 0],
                      dtype="<i8")
    header[3:4] = np.array([g.L], dtype="<f8").view("<i8")
    with open(path, "wb") as fh:
        fh.write(header.tobytes())
        fh.write(h.values.astype("<f8").ravel(order="C").tobytes())


def field_from_binary(path) -> TraceField:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 64 or (len(raw) - 64) % 8:
        raise DomainError(f"{path}: truncated field binary")
    header = np.frombuffer(raw[:64], dtype="<i8")
    if header[0] != _BIN_MAGIC:
        raise DomainError(f"{path}: bad magic in field binary header")
    if header[4] == 1:
        raise DomainError(f"{path}: field binary format 1 stores L rounded "
                          "to 1e-6 and is no longer read; write the field "
                          "again")
    if header[4] != _BIN_FORMAT:
        raise DomainError(f"{path}: unsupported format tag {header[4]}")
    L = float(header[3:4].view("<f8")[0])
    grid = Grid(int(header[1]), L, int(header[2]))
    vals = np.frombuffer(raw[64:], dtype="<f8")
    if vals.size != grid.n ** grid.dim:
        raise DomainError(f"{path}: truncated field binary")
    return TraceField(grid, vals.reshape(grid.shape, order="C").copy())
