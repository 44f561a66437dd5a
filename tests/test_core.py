"""Expression matrix container, standardization, and Gram prefix sums."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from corrseg.core import ExpressionMatrix, block_sums, build_gram_prefix, standardize
from corrseg.errors import (
    ConstantColumn,
    InvalidMatrix,
    NotStandardized,
)
from conftest import as_matrix


def test_standardize_three_point_column():
    # column (1, 2, 3): mean 2, sd sqrt(2/3) with divisor n
    m = as_matrix(np.array([[1.0], [2.0], [3.0]]))
    s = standardize(m)
    r = np.sqrt(1.5)
    assert np.allclose(s.values[:, 0], [-r, 0.0, r], atol=1e-12)
    assert s.standardized

def test_standardize_unit_diagonal_and_idempotence(rng):
    m = as_matrix(rng.normal(5.0, 3.0, size=(40, 12)))
    s = standardize(m)
    g = s.values.T @ s.values / s.n
    assert np.allclose(np.diag(g), 1.0, atol=1e-12)
    s2 = standardize(s)
    assert np.allclose(s.values, s2.values, atol=1e-12)

def test_standardize_constant_column_rejected():
    vals = np.ones((5, 3))
    vals[:, 0] = [1.0, 2.0, 3.0, 4.0, 5.0]
    vals[:, 2] = [0.0, 1.0, 0.0, 1.0, 0.5]
    with pytest.raises(ConstantColumn) as exc:
        standardize(as_matrix(vals))
    assert "g2" in str(exc.value)

def test_matrix_shape_contracts():
    with pytest.raises(InvalidMatrix):
        as_matrix(np.zeros((2, 4)))  # n >= 3
    with pytest.raises(InvalidMatrix):
        ExpressionMatrix(values=np.zeros((5, 0)), gene_ids=())
    with pytest.raises(InvalidMatrix):
        ExpressionMatrix(values=np.zeros(5), gene_ids=("a",))
    bad = np.zeros((4, 2))
    bad[1, 1] = np.nan
    with pytest.raises(InvalidMatrix):
        as_matrix(bad)

def test_gram_prefix_requires_standardized(rng):
    with pytest.raises(NotStandardized):
        build_gram_prefix(as_matrix(rng.standard_normal((10, 4))))

@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(3, 60),
    p=st.integers(1, 300),
    strength=st.floats(0.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=3, p=1, strength=0.0, seed=0)
@example(n=5, p=2, strength=1.0, seed=1)
def test_gram_prefix_bits_equal_out_of_place_cumsums(n, p, strength, seed):
    # the prefix is built in place; its bits must equal the plain
    # matmul-divide-cumsum-cumsum chain the recorded digests were made with
    rng = np.random.default_rng(seed)
    shared = rng.standard_normal((n, 1))
    m = standardize(as_matrix(rng.standard_normal((n, p)) + strength * shared))
    Y = m.values
    ref = np.zeros((p + 1, p + 1))
    ref[1:, 1:] = ((Y.T @ Y) / n).cumsum(axis=0).cumsum(axis=1)
    assert np.array_equal(build_gram_prefix(m), ref)

def test_block_sum_matches_brute_force(rng):
    m = standardize(as_matrix(rng.standard_normal((25, 18))))
    prefix = build_gram_prefix(m)
    g = m.values.T @ m.values / m.n
    for _ in range(200):
        a = int(rng.integers(0, m.p))
        b = int(rng.integers(a + 1, m.p + 1))
        assert abs(block_sums(prefix, a, b) - g[a:b, a:b].sum()) < 1e-9

def test_block_sum_singleton_is_one(rng):
    m = standardize(as_matrix(rng.standard_normal((30, 6))))
    prefix = build_gram_prefix(m)
    for j in range(m.p):
        assert abs(block_sums(prefix, j, j + 1) - 1.0) < 1e-12

def test_block_sum_duplicated_pair():
    rng = np.random.default_rng(3)
    col = rng.standard_normal(20)
    m = standardize(as_matrix(np.column_stack([col, col])))
    prefix = build_gram_prefix(m)
    # both correlations are 1, so the 2x2 block sums to 4
    assert abs(block_sums(prefix, 0, 2) - 4.0) < 1e-10

def test_block_sum_independent_pair_near_two():
    rng = np.random.default_rng(11)
    m = standardize(as_matrix(rng.standard_normal((10_000, 2))))
    prefix = build_gram_prefix(m)
    assert abs(block_sums(prefix, 0, 2) - 2.0) < 0.1
