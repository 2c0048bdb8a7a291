"""Spectral-Galerkin toolkit for the nonlinear string (Kirchhoff) equation.

The operator is carried as its eigenvalue sequence; the package integrates
the truncated mode system, verifies conserved quantities, computes weighted
spectral norms along shrinking scales, checks modulus/weight compatibility
conditions, evaluates uniqueness conditions, reparametrizes trajectories,
and constructs spectral-gap decompositions.
"""

__version__ = "0.1.0"

from .spectrum import (  # noqa: F401
    SpectralVector,
    Spectrum,
    a_half_norm_sq,
    a_inner,
    a_norm_sq,
    basis_vector,
    power_spectrum,
    zero_vector,
)
from .functions import (  # noqa: F401
    FunctionSpec,
    affine,
    antiderivative,
    constant,
    load_table_csv,
    modulus_inv_log,
    modulus_power,
    modulus_sigma_log,
    offset,
    pohozaev,
    power,
    table,
    weight_power_log,
    weight_scaled_modulus,
)
from .norms import GevreyParams, gevrey_norm, sobolev_norm  # noqa: F401
from .conditions import (  # noqa: F401
    ConditionReport,
    check_phi_condition,
    default_sigma_grid,
    estimate_continuity_constant,
)
from .dynamics import (  # noqa: F401
    IntegratorConfig,
    SpectralState,
    Trajectory,
    coefficient_trace,
    evolve,
    hamiltonian,
    hamiltonian_series,
    higher_order_series,
    pohozaev_series,
    relative_drift,
)
from .analysis import (  # noqa: F401
    Degeneracy,
    ScaleTraceConfig,
    UniquenessReport,
    classify_degeneracy,
    continuous_dependence_study,
    hamiltonian_reachable_sigma,
    scale_norm_trace,
    uniqueness_condition,
)
from .spectral_gap import (  # noqa: F401
    Decomposition,
    GMParams,
    gm_membership,
    sum_decompose,
)
from .reparametrize import (  # noqa: F401
    PsiTrace,
    SCurve,
    psi_initial_derivatives,
    psi_trace,
    reparametrization_check,
    solve_parametrization,
    solve_trajectory_system,
)
from .presets import PresetBundle, get_preset, list_presets  # noqa: F401
from .scenario import RunManifest, run_scenario, validate_scenario  # noqa: F401
