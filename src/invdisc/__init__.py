"""Projective-invariant difference schemes for third- to fifth-order ODEs,
with their difference/differential invariants, a Runge-Kutta baseline, and
continuous-limit probes."""

from .core import (ConstantS, Constant, DEGENERACY_RTOL, DegenerateCoefficientError,
                   DomainError, ForcingTerm, FunctionOfX, IdentityInY, Jet,
                   LatticeRule, NonFiniteError, Point, RhsEvalPolicy, RootPolicy,
                   RootSelection, SchemeKind, SchemeSpec, Stencil, StopReason,
                   Trajectory, Uniform, seed_stencil_from_function,
                   stencil_from_sequences)
from .differential import (InvariantTriple, compose_jet, h5_differential, jtilde5,
                           jy_invariants, kx_invariants, mobius_jet)
from .discrete import (CrossRatioWindow, QTriple, cross_ratio, h5_discrete,
                       h5_uniform, l3, l4, l5, m3, m4, m5, q_triple,
                       w_coefficient, wx_coefficient)
from .lattice import extend_constant_s, extend_lattice, uniform_lattice, w0_sol2
from .limits import LimitProbe, LimitReport, probe_limit, target_value
from .reference import (EXACT_SOLUTIONS, ExactSolution, OdeSystem, arctanh_solution,
                        chi, fifth_order_invariant_system, general_arctanh,
                        log_abs, one_over_one_minus_exp, rk4_integrate,
                        scaled_schwarzian_system, schwarzian_rate_system,
                        tan_reciprocal)
from .schemes import (PolyCoeffs, StepOutcome, extrapolate, h5_step, integrate,
                      select_root, slx3_step, sly4_step, solve_poly)

__all__ = [name for name in dir() if not name.startswith("_")]
