"""Shared generators for the test suite.

Monte Carlo checks run with fixed seeds so the suite is deterministic;
the seeds were not tuned beyond avoiding pathological draws, and the
statistical tolerances leave wide margins at the chosen replicate counts.
"""

from __future__ import annotations

import numpy as np
import pytest

from corrseg.core import ExpressionMatrix, block_sums, build_gram_prefix
from corrseg.segment import _closed_form_cost


def cs_block(n: int, p: int, rho: float, rng: np.random.Generator) -> np.ndarray:
    """Exact compound-symmetry Gaussian draws with unit variance.

    For rho >= 0 the one-factor construction is used; negative rho falls
    back to a Cholesky factor of the explicit covariance.
    """
    if rho >= 0:
        w = rng.standard_normal(n)
        e = rng.standard_normal((n, p))
        return np.sqrt(rho) * w[:, None] + np.sqrt(1.0 - rho) * e
    sigma = (1.0 - rho) * np.eye(p) + rho * np.ones((p, p))
    chol = np.linalg.cholesky(sigma)
    return rng.standard_normal((n, p)) @ chol.T

def blocked_matrix(
    n: int,
    p: int,
    blocks: list[tuple[int, int]],
    rho0: float,
    rho1: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Background correlation rho0 everywhere, rho1 inside each block."""
    w = rng.standard_normal(n)
    e = rng.standard_normal((n, p))
    y = np.sqrt(rho0) * w[:, None] + np.sqrt(1.0 - rho0) * e
    for a, b in blocks:
        u = rng.standard_normal(n)
        y[:, a:b] = (
            np.sqrt(rho0) * w[:, None]
            + np.sqrt(rho1 - rho0) * u[:, None]
            + np.sqrt(1.0 - rho1) * e[:, a:b]
        )
    return y

def as_matrix(values: np.ndarray, standardized: bool = False) -> ExpressionMatrix:
    n, p = values.shape
    return ExpressionMatrix(
        values=values,
        gene_ids=tuple(f"g{j + 1}" for j in range(p)),
        standardized=standardized,
    )

def cost_grid(m: ExpressionMatrix) -> np.ndarray:
    """C[a, b] = closed-form cost of genes [a, b) of a standardized matrix.

    Every segment of the grid comes from one vectorized call, as in the
    DP's tiles; entries with b <= a are meaningless.
    """
    idx = np.arange(m.p + 1)
    S = block_sums(build_gram_prefix(m), idx[:, None], idx[None, :])
    return _closed_form_cost(S, idx[None, :] - idx[:, None], m.n)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
