"""omx: truncated Fock-space simulation and analytics for multimode
optomechanical systems with single-photon/single-phonon nonlinearities.

Layers:
    hilbert    truncated bosonic mode spaces, operators, states
    dynamics   Lindblad engine (steady states, propagation, spectra)
    models     Hamiltonian/master-equation builders for every frame
    analytics  closed-form predictions paired with numeric oracles
    cli        deterministic scenario runner (CSV/JSON output)
"""

__version__ = "0.1.0"

from .hilbert import (  # noqa: F401
    DensityMatrix,
    FockState,
    ModeSpace,
    Operator,
    annihilator,
    coherent_dim,
    fock_density,
    identity,
    number_op,
    tensor_embed,
    thermal_dim,
    thermal_state,
    thermal_weights,
)
from .params import SystemParams, parse_quantity, thermal_occupation  # noqa: F401
from .dynamics import (  # noqa: F401
    LabeledEigenvalue,
    LindbladModel,
    SolverError,
    SteadyStateReport,
    evolve,
    g2_zero,
    liouvillian,
    nonhermitian_eigs,
    null_space_gap,
    population_sector,
    reflection_spectrum,
    steady_state,
)
from .models import (  # noqa: F401
    HybridFrame,
    build_displaced,
    build_effective_phonon,
    build_full,
    build_hybrid_decomposition,
    build_nonhermitian,
    build_rwa,
    build_transistor,
    coupling_spectrum,
    default_truncations,
    fock_shift,
    hybrid_rotation,
    hybridize,
)
from .analytics import (  # noqa: F401
    GateBudget,
    SixStateResult,
    eigenvalue_prediction,
    min_g2_scan,
    phase_gate_error,
    phonon_nonlinearity,
    six_state_g2,
    transistor_error,
)
from .scan import CompareReport, ScanResult, compare  # noqa: F401
