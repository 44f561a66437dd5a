"""Data containers and Gram-matrix prefix sums.

The segmentation cost of any gene block depends on the data only through
the double sum of the empirical Gram matrix over that block. A 2-D prefix
sum over G turns every such query into four lookups, which is what makes
the O(K p^2) dynamic program practical: one (p+1)^2 float64 array, no p^2 temporaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstantColumn, InvalidMatrix, NotStandardized


@dataclass(frozen=True)
class ExpressionMatrix:
    """n patients by p ordered genes, optionally column-standardized.

    ``values[i, j]`` is the signal of patient i for the j-th gene in
    chromosome order.
    """

    values: np.ndarray
    gene_ids: tuple[str, ...]
    standardized: bool = False
    patient_ids: tuple[str, ...] = ()

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise InvalidMatrix(f"expected a 2-D matrix, got shape {v.shape}")
        n, p = v.shape
        if p < 1:
            raise InvalidMatrix("need at least one gene")
        if n < 3:
            # the test statistic needs n-1 >= 2 degrees of freedom
            raise InvalidMatrix(f"need at least 3 patients, got {n}")
        if not np.isfinite(v).all():
            raise InvalidMatrix("matrix contains non-finite values")
        if len(self.gene_ids) != p:
            raise InvalidMatrix(f"{len(self.gene_ids)} gene ids for {p} columns")
        if self.patient_ids and len(self.patient_ids) != n:
            raise InvalidMatrix(f"{len(self.patient_ids)} patient ids for {n} rows")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]


def standardize(matrix: ExpressionMatrix) -> ExpressionMatrix:
    """Center and scale every column to mean 0, variance 1 (divisor n).

    The n divisor (not n-1) makes the empirical Gram diagonal exactly 1,
    which the closed-form segment likelihood assumes. Idempotent.
    """
    v = matrix.values
    centered = v - v.mean(axis=0)
    sd = np.sqrt((centered * centered).mean(axis=0))
    zero = np.flatnonzero(sd == 0.0)
    if zero.size:
        raise ConstantColumn(matrix.gene_ids[zero[0]])
    return ExpressionMatrix(
        values=centered / sd,
        gene_ids=matrix.gene_ids,
        standardized=True,
        patient_ids=matrix.patient_ids,
    )


def build_gram_prefix(matrix: ExpressionMatrix) -> np.ndarray:
    """Zero-padded 2-D prefix sums of G_jk = n^-1 sum_i Y_ij Y_ik.

    Returns the (p+1) x (p+1) array whose entry [a, b] is the sum of G
    over the leading a x b submatrix; `block_sums` reads any block sum
    out of it. The matrix must be standardized. One (p+1)^2 float64 array,
    no p^2 temporaries: G and both cumsums are written into its interior.
    """
    if not matrix.standardized:
        raise NotStandardized("standardize the matrix before building Gram prefix sums")
    Y = matrix.values
    prefix = np.zeros((matrix.p + 1, matrix.p + 1))
    G = prefix[1:, 1:]
    np.matmul(Y.T, Y, out=G)
    G /= matrix.n
    np.cumsum(G, axis=0, out=G)
    np.cumsum(G, axis=1, out=G)
    return prefix


def block_sums(prefix: np.ndarray, starts, stops) -> np.ndarray:
    """Sum of G_jk over j, k in [start, stop), half-open 0-based.

    ``starts`` and ``stops`` are integer arrays that broadcast against
    each other, so one call serves a list of segments or the whole grid.
    Each sum is four prefix entries combined by inclusion-exclusion.
    Bounds are not checked; callers derive them from p themselves.
    """
    P = prefix
    return P[stops, stops] - P[starts, stops] - P[stops, starts] + P[starts, starts]
