"""Spectral ground states and extension diagnostics for fractional
Hartree-type equations on periodic boxes."""

__version__ = "0.1.0"

from .errors import (ConfigError, ConvergenceError, DiagnosticError,
                     DomainError, HartreeboxError, NumericError,
                     VerificationError)
from .profile import BesselProfile, build_profile
from .spectral import (Grid, TraceField, field_from_binary, field_from_csv,
                       field_to_csv)
from .model import KernelSpec, ModelParams, NonlinearitySpec, PotentialSpec
from .solver import (GroundStateResult, compare_levels, gaussian_bump,
                     multistart, solve_ground)
from .extension import (DecayFitReport, ExtensionField, decay_fit, dtn_check,
                        energy_identity_check, lift, trace_inequality_check)
from .config import RunConfig, load_config
