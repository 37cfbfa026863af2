"""Spectral and dynamical analysis of PT-symmetric tight-binding superlattices.

The package covers the infinite lattice (Bloch bands, reality of the
spectrum, symmetry-breaking thresholds and growth rates), the semi-infinite
lattice (transfer matrices, edge-state detection and classification,
localization lengths) and time-domain propagation on truncated chains, with
a CLI exposing each analysis as a reproducible command.
"""

__version__ = "0.1.0"

from .bloch import (
    BandStructure,
    PhaseDiagnosis,
    SweepRow,
    ThresholdResult,
    band_gaps,
    band_structure,
    bloch_matrix,
    breaking_threshold,
    diagnose_pt_phase,
    max_growth_rate,
    sweep,
)
from .dynamics import (
    PropagationResult,
    boundary_growth_rate,
    default_site_count,
    growth_rate_estimate,
    propagate,
    single_site_excitation,
)
from .edge import (
    Classification,
    EdgeStateRecord,
    RealityReport,
    RouteMismatchError,
    edge_candidate_matrix,
    edge_spectrum,
    localization_length,
    psi_witness,
    spectrum_reality,
)
from .lattice import (
    HarperParams,
    LatticeError,
    ParametricLattice,
    PTSymmetryReport,
    SuperlatticeSpec,
    build_harper,
    check_pt_symmetry,
    family_from_json,
    harper_family,
    spec_from_json,
)
from .numerics import (
    NumericsError,
    eig_complex,
    poly_roots,
)
from .transfer import (
    TransferMatrix,
    period_matrix,
    site_matrix,
    symbolic_period_matrix,
    transfer_power,
)

__all__ = [
    "__version__",
    "BandStructure",
    "Classification",
    "EdgeStateRecord",
    "HarperParams",
    "LatticeError",
    "NumericsError",
    "ParametricLattice",
    "PhaseDiagnosis",
    "PropagationResult",
    "PTSymmetryReport",
    "RealityReport",
    "RouteMismatchError",
    "SuperlatticeSpec",
    "SweepRow",
    "ThresholdResult",
    "TransferMatrix",
    "band_gaps",
    "band_structure",
    "bloch_matrix",
    "boundary_growth_rate",
    "breaking_threshold",
    "build_harper",
    "check_pt_symmetry",
    "default_site_count",
    "diagnose_pt_phase",
    "edge_candidate_matrix",
    "edge_spectrum",
    "eig_complex",
    "family_from_json",
    "growth_rate_estimate",
    "harper_family",
    "localization_length",
    "max_growth_rate",
    "period_matrix",
    "poly_roots",
    "propagate",
    "psi_witness",
    "single_site_excitation",
    "site_matrix",
    "spec_from_json",
    "spectrum_reality",
    "sweep",
    "symbolic_period_matrix",
    "transfer_power",
]
