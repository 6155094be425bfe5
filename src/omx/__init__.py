"""omx: truncated Fock-space simulation and analytics for multimode
optomechanical systems with single-photon/single-phonon nonlinearities.

Layers:
    hilbert    truncated bosonic mode spaces, operators, states
    dynamics   Lindblad engine (steady states, spectra, eigenvalues)
    models     Hamiltonian/master-equation builders for every frame
    analytics  closed-form predictions paired with numeric oracles
    cli        deterministic scenario runner (CSV/JSON output)

It exports what the CLI's scenarios and the acceptance suite call; the
oracles that tests compare against are in tests/oracles.py.

numpy is the only import-time dependency: no module imports a scipy
submodule at the top, so scipy's sparse and linear-algebra stack loads at
the first call that needs it, and the closed-form analytics never load it.
"""

__version__ = "0.1.0"

from .hilbert import (  # noqa: F401
    DensityMatrix,
    ModeSpace,
    Operator,
    annihilator,
    number_op,
    thermal_dim,
    thermal_weights,
)
from .params import SystemParams, parse_quantity, thermal_occupation  # noqa: F401
from .dynamics import (  # noqa: F401
    LabeledEigenvalue,
    LindbladModel,
    SolverError,
    SteadyStateReport,
    g2_zero,
    liouvillian,
    nonhermitian_eigs,
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
    six_state_spectrum,
    transistor_error,
)
from .scan import ScanResult  # noqa: F401
