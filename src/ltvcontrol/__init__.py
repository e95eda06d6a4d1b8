"""Controllability and observability toolkit for linear time-varying systems
x'(t) + A(t) x(t) = B(t) u(t), y(t) = C(t) x(t) on a finite horizon."""

from .duality import (
    DualityReport,
    admissibility_constant,
    exact_controllability_test,
    input_map,
    input_map_adjoint,
    key_identity_residual,
    null_controllability_test,
)
from .gramian import (
    GramianResult,
    ctrl_gramian_cross,
    ctrl_gramian_lyapunov,
    ctrl_gramian_quadrature,
    obs_gramian,
    observability_constant,
)
from .hautus import (
    FrozenComparison,
    HautusGrid,
    HautusReport,
    averaging_identity_residual,
    default_hautus_grid,
    find_witness_time,
    frozen_observability_constant,
    frozen_vs_ltv_report,
    hautus_sweep,
    nonautonomous_hautus_margin,
    russell_weiss_margin,
    russell_weiss_min_margin,
)
from .propagate import NumericalRangeError, Propagator, cocycle_defect
from .synth import (
    NotControllableError,
    NotNullControllableError,
    SynthesisResult,
    min_norm_control,
    null_control,
)
from .sysmodel import (
    CoeffMatrixFn,
    ControlSignal,
    LtvSystem,
    SpecFormatError,
    TimeGrid,
    eval_coeff,
    l2_inner,
    l2_norm,
    parse_system,
)

__version__ = "0.1.0"
