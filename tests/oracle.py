"""The dense operator, the oracle that tests compare the program's sparse
and reduced computations against, and scipy's CSR, the oracle of the
program's own CSR type."""

import numpy as np
import scipy.sparse as sp

from multispec.graph_core import CSRMatrix


def dense_operator(op) -> np.ndarray:
    """H = adjacency + diag(potential) of a SiteOperator as a dense array."""
    return op.adjacency.toarray() + np.diag(op.potential)


def scipy_csr(m: CSRMatrix) -> sp.csr_matrix:
    """The program's CSRMatrix as a scipy csr_matrix on the same arrays."""
    return sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)


def from_scipy(matrix) -> CSRMatrix:
    """A dense or scipy sparse matrix as a CSRMatrix, through the canonical
    CSR arrays scipy builds for it."""
    m = sp.csr_matrix(matrix)
    return CSRMatrix(m.data, m.indices, m.indptr, m.shape)
