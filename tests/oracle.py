"""The dense operator, the oracle that tests compare the program's sparse
and reduced computations against."""

import numpy as np


def dense_operator(op) -> np.ndarray:
    """H = adjacency + diag(potential) of a SiteOperator as a dense array."""
    return op.adjacency.toarray() + np.diag(op.potential)
