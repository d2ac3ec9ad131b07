"""Spectral ground states and extension diagnostics for fractional
Hartree-type equations on periodic boxes."""

__version__ = "0.1.0"

from .errors import (BracketError, ConfigError, ConvergenceError,
                     DiagnosticError, DomainError, HartreeboxError,
                     NumericError, VerificationError)
from .profile import (BesselProfile, build_profile, eval_profile,
                      ode_residual, profile_from_csv, profile_to_csv)
from .spectral import (Grid, TraceField, convolve, field_from_binary,
                       field_from_csv, field_to_binary, field_to_csv,
                       frac_apply, refine, sobolev_form)
from .model import (EnergyReport, KernelSpec, ModelParams, NonlinearitySpec,
                    PotentialSpec, SolverSettings, F_eval, df_eval, energy,
                    f_eval, gradient, nehari_scale, quadratic_form)
from .solver import (GroundStateResult, compare_levels, gaussian_bump,
                     linf_refinement_check, multistart, solve_asymptotic,
                     solve_ground)
from .extension import (DecayFitReport, ExtensionField, decay_fit, dtn_check,
                        energy_identity_check, lift, trace_inequality_check)
from .config import RunConfig, load_config
