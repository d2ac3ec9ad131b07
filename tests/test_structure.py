"""Layout guards: decisions that belong to one module stay there."""

import re
from pathlib import Path

import hartreebox

PACKAGE = Path(hartreebox.__file__).resolve().parent

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
