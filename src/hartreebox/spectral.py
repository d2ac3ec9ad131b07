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

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, NumericError

_BIN_MAGIC = 0x46584248  # "HBXF" little-endian
# the one format read: format 1 stored L rounded to 1e-6, format 2 stores
# L's float64 bits
_BIN_FORMAT = 2
_CSV_BLOCK = 4096  # values per write or parse of a field CSV


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
        if not 0.0 < self.L < np.inf:
            raise DomainError("L must be positive and finite")

    @property
    def shape(self):
        return (self.n,) * self.dim

    @property
    def cell_volume(self):
        return (2.0 * self.L / self.n) ** self.dim

    @cached_property
    def axis(self):
        """Physical coordinates along one axis, y_i = -L + i * 2L/n."""
        return -self.L + (2.0 * self.L / self.n) * np.arange(self.n)

    @cached_property
    def coords(self):
        """Open meshgrid of physical coordinates, one array per axis."""
        return np.meshgrid(*([self.axis] * self.dim), indexing="ij",
                           sparse=True)

    @property
    def radius_sq(self):
        """|y|^2 with the origin at the box center (no wrap)."""
        return sum(c ** 2 for c in self.coords)

    @property
    def displacement_radius(self):
        """Minimal-image |d| indexed by displacement (index 0 = zero shift).

        This is the sampling convention FFT circular convolution expects for
        a kernel: entry i holds the distance of the periodic shift i*2L/n,
        formed from the integer min(i, n - i), so that it is even to the
        last bit and so is every kernel sampled on it.
        """
        j = np.arange(self.n)
        d_sq = ((2.0 * self.L / self.n) * np.minimum(j, self.n - j)) ** 2
        return np.sqrt(sum(np.meshgrid(*([d_sq] * self.dim), indexing="ij",
                                       sparse=True)))

    @cached_property
    def xi(self):
        """Open meshgrid of the rfftn half lattice's frequencies k/(2L)."""
        d = 2.0 * self.L / self.n
        axes = ([np.fft.fftfreq(self.n, d=d)] * (self.dim - 1)
                + [np.fft.rfftfreq(self.n, d=d)])
        return np.meshgrid(*axes, indexing="ij", sparse=True)

    @cached_property
    def k_sq(self) -> np.ndarray:
        """Integer |k|^2 (k = 2L xi) on the rfftn half lattice; read-only."""
        k_ax = np.fft.fftfreq(self.n, 1.0 / self.n).astype(np.int64) ** 2
        k_half = np.arange(self.n // 2 + 1, dtype=np.int64) ** 2
        axes = [k_ax] * (self.dim - 1) + [k_half]
        out = sum(np.meshgrid(*axes, indexing="ij", sparse=True))
        out.flags.writeable = False
        return out

    @cached_property
    def mode_weight(self) -> np.ndarray:
        """count cell_volume / n^N along the last half-lattice axis, count
        1 on the planes 0 and n/2 and 2 elsewhere, the modes each stands
        for: sum |rfftn(h)|^2 mode_weight = int |h|^2; read-only."""
        count = np.where(np.arange(self.n // 2 + 1) % (self.n // 2), 2.0, 1.0)
        out = count * self.cell_volume / self.n ** self.dim
        out.flags.writeable = False
        return out


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

    def norm_l2(self) -> float:
        return float((self.grid.cell_volume * np.sum(self.values ** 2))
                     ** 0.5)


def half_spectrum(values: np.ndarray) -> np.ndarray:
    """rfftn(values) bit for bit, the one forward transform: rfft over the
    last axis, then fft in place over the others, last to first."""
    spectrum = np.fft.rfft(values)
    for ax in range(values.ndim - 2, -1, -1):
        np.fft.fft(spectrum, axis=ax, out=spectrum)
    return spectrum


def apply_multiplier(mult: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Apply the Fourier multiplier `mult` (rfftn half lattice) to a real
    grid array: irfftn(mult * rfftn(values)).

    Every multiplier and periodic convolution in the package goes through
    here; a `mult` off the half lattice of `values` is a NumericError.
    """
    spectrum = half_spectrum(values)
    if mult.shape != spectrum.shape:
        raise NumericError(f"multiplier of shape {mult.shape} is not on the "
                           f"half lattice {spectrum.shape}")
    # mult first, as in mult * spectrum: the product's rounding depends on
    # the operand order when both are complex
    return inverse_spectrum(np.multiply(mult, spectrum, out=spectrum),
                            values.shape, overwrite=True)


def inverse_spectrum(spectrum: np.ndarray, shape, out=None,
                     overwrite: bool = False) -> np.ndarray:
    """irfftn(spectrum) on a grid of the given shape, bit for bit: the one
    inverse transform.

    The ifft passes run over the same axes in the same order as irfftn's,
    but in one complex work array: the spectrum itself when `overwrite`
    lets them destroy it, else a copy.  The last pass, irfft, writes into
    `out` when it is given.
    """
    work = spectrum if overwrite else spectrum.copy()
    for ax, n in enumerate(shape[:-1]):
        np.fft.ifft(work, n, ax, out=work)
    return np.fft.irfft(work, shape[-1], -1, out=out)


def phase_ramp(grid: Grid, shift) -> np.ndarray:
    """exp(-2 pi i xi . shift) on the rfftn half lattice, the factor of
    h -> h(. - shift); its real part on an axis's Nyquist entry, so that
    the spectrum of a real field stays one."""
    factor = 1.0
    for xi, s in zip(grid.xi, shift):
        ramp = np.exp(-2j * np.pi * s * xi)
        ramp.flat[grid.n // 2] = ramp.flat[grid.n // 2].real
        factor = factor * ramp
    return factor


def half_lattice_form(grid: Grid, mult: np.ndarray,
                      spectrum: np.ndarray) -> float:
    """sum_k mult |hat(h)(xi_k)|^2 dxi^N over the full lattice, from the
    half-lattice spectrum rfftn(h) and an even multiplier."""
    terms = mult * (spectrum.real ** 2 + spectrum.imag ** 2)
    return float((terms * grid.mode_weight).sum())


# ---------------------------------------------------------------------------
# Field interchange: CSV (row-major flattening) both ways, and a reader of
# raw little-endian binary, an input format no command writes: eight int64
# (magic, dim, n, the float64 bits of L, format tag, three zeros), then the
# values as float64 in row-major order.

def field_to_csv(h: TraceField, path) -> None:
    g = h.grid
    values = h.values.ravel(order="C")
    with open(path, "w", newline="") as fh:
        # the rows csv.writer would write, one per value, a block per write
        fh.write(f"dim,n,L\r\n{g.dim},{g.n},{float(g.L)!r}\r\nvalue\r\n")
        for i in range(0, values.size, _CSV_BLOCK):
            block = values[i:i + _CSV_BLOCK].tolist()
            fh.write("\r\n".join(map(repr, block)) + "\r\n")


def field_from_csv(path) -> TraceField:
    with open(path) as fh:
        try:
            head = [fh.readline() for _ in range(3)]
            if head[0] != "dim,n,L\n" or head[2] != "value\n":
                raise ValueError("bad header rows")
            dim, n, L = head[1].split(",")
            grid = Grid(int(dim), float(L), int(n))
            # a block of rows per parse; a blank row fails it.  A header
            # grid too large to allocate is a MemoryError, raised at once
            vals = np.empty(grid.n ** grid.dim)
            for i in range(0, vals.size, _CSV_BLOCK):
                part = vals[i:i + _CSV_BLOCK]
                block = list(itertools.islice(fh, part.size))
                if len(block) < part.size:
                    raise ValueError(f"fewer than {vals.size} values")
                part[:] = block
            if fh.readline():
                raise ValueError(f"more than {vals.size} values")
            return TraceField(grid, vals.reshape(grid.shape))
        except (ValueError, NumericError, MemoryError) as exc:
            raise DomainError(f"unreadable field CSV {path}: {exc}") from exc


def field_from_binary(path) -> TraceField:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 64 or (len(raw) - 64) % 8:
        raise DomainError(f"{path}: truncated field binary")
    header = np.frombuffer(raw[:64], dtype="<i8")
    if header[0] != _BIN_MAGIC:
        raise DomainError(f"{path}: bad magic in field binary header")
    if header[4] != _BIN_FORMAT:
        raise DomainError(f"{path}: unsupported format tag {header[4]}")
    L = float(header[3:4].view("<f8")[0])
    vals = np.frombuffer(raw[64:], dtype="<f8")
    try:
        grid = Grid(int(header[1]), L, int(header[2]))
        if vals.size != grid.n ** grid.dim:
            raise DomainError("truncated field binary")
        return TraceField(grid, vals.reshape(grid.shape, order="C").copy())
    except (DomainError, NumericError) as exc:
        raise DomainError(f"{path}: {exc}") from exc
