"""Forward Dirichlet-to-Neumann maps of resistor networks and
log-linear recovery of edge conductivities from the boundary response.
"""

from .errors import (
    AllRowsDegenerate,
    ExpansionMismatch,
    InconsistentDataWarning,
    InteriorNotGrounded,
    NetworkError,
    NetworkFormatError,
    NotPositiveDefinite,
    NotSparseDifference,
    RankDeficient,
    RoundTripFailure,
    TooManySystems,
)
from .forward import (
    BoundaryPair,
    DtNMap,
    dtn,
    dtn_subdet,
    harmonic_extension,
    kirchhoff_subdet,
)
from .inverse import (
    LogLinearSystem,
    RecoveryPlan,
    RecoveryReport,
    compile_topology,
    difference_rows,
    recover,
)
from .network import (
    Edge,
    Network,
    grid_fixture,
    kirchhoff,
    lattice_fixture,
    parse_network,
    serialize_network,
)
from .paths import (
    AdmissibleRow,
    PathSystem,
    PathTerm,
    enumerate_path_systems,
    expand_det,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
