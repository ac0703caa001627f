"""Random Anderson-type operators on canopy trees and Cayley-type graphs,
with finitely-supported eigenvector certificates of spectral multiplicity
and the automorphism-group characterization showing the multiplicity does
not come from graph symmetry."""

from .anderson import (
    DisorderRealization,
    DisorderSpec,
    SiteOperator,
    assemble_canopy_operator,
    assemble_cayley_operator,
    covariance_check,
    sample_disorder,
    shift_disorder,
)
from .automorphism import (
    AutGroup,
    anderson_automorphisms,
    automorphisms,
    brute_anderson_automorphisms,
    theta,
)
from .canopy import (
    PatchSet,
    TruncatedCanopy,
    build_truncated_canopy,
    forward_neighbors,
    potential_roots,
    subtree,
)
from .cayley import (
    CayleyGraph,
    CayleyTemplate,
    GroupSpec,
    build_cayley_graph,
    build_group,
    cyclic_group,
    free_group_ball,
    product_of_cyclics,
    zd_box,
)
from .dos import BandCount, Histogram, certified_band_count, eigenvalue_histogram
from .graph_core import (
    FiniteGraph,
    GluedGraph,
    GluedGraphSpec,
    adjacency_matrix,
    bfs_distance,
    glue_subgraphs,
    path_graph,
    prime_paths_graph,
)
from .spectral import (
    AlphaBasis,
    EigenSystem,
    EigenvectorCertificate,
    alpha_basis,
    canopy_certificates,
    cayley_certificates,
    cluster_multiplicities,
    eig_sym,
    junction_kernel_basis,
    operator_spectrum,
    subtree_eigenpairs,
)

__version__ = "0.1.0"
