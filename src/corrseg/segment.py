"""Segment likelihoods, optimal segmentation, and choice of segment count.

Under the block model, every segment of genes shares one pairwise
correlation rho, so its maximized log-likelihood has a closed form in the
block sum of the Gram matrix. The dynamic program then finds the exact
optimum over all segmentations into K contiguous segments, and the number
of segments is chosen where the penalized, normalized likelihood curve
shows its largest slope change.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import ExpressionMatrix, block_sums, build_gram_prefix
from .errors import DegenerateNormalizationWarning, KTooLarge

RHO_EPS = 1e-8
LOG_EPS = 1e-12
# end points per column tile of the DP kernel
TILE = 32


def rho_hat(block_sum: float, p_k: int) -> float:
    """Maximum-likelihood common correlation of a segment of p_k genes.

    block_sum is the double sum of the Gram matrix over the segment. The
    estimate (block_sum - p_k) / (p_k^2 - p_k) is clamped into the open
    interval where the compound-symmetry covariance stays positive
    definite, so downstream log terms remain finite.
    """
    if p_k < 2:
        raise ValueError(f"rho_hat needs a segment of at least 2 genes, got {p_k}")
    raw = (block_sum - p_k) / (p_k * p_k - p_k)
    lo = -1.0 / (p_k - 1) + RHO_EPS
    hi = 1.0 - RHO_EPS
    return float(min(max(raw, lo), hi))


def _closed_form_cost(S: np.ndarray, L: np.ndarray, n: int) -> np.ndarray:
    """Closed-form -2 * max log-likelihood of segments of L genes, block sum S.

    For L >= 2 the cost is
    n * [L + (L-1) log((L^2 - S)/(L^2 - L)) + log(S / L)], and
    n * (1 + log S) for singletons. Log arguments are floored at 1e-12
    so empirically singular blocks yield finite (strongly negative) costs
    instead of NaN. S and L broadcast elementwise.
    """
    den = np.maximum(L * L - L, 1)
    with np.errstate(invalid="ignore"):
        r1 = np.clip((L * L - S) / den, LOG_EPS, None)
        r2 = np.clip(S / np.maximum(L, 1), LOG_EPS, None)
        cost = n * (L + (L - 1) * np.log(r1) + np.log(r2))
        single = n * (1.0 + np.log(np.clip(S, LOG_EPS, None)))
    return np.where(L == 1, single, cost)


@dataclass(frozen=True)
class Segmentation:
    """Breakpoints 0 = t_0 < t_1 < ... < t_K = p with per-segment estimates.

    Segment k covers genes [t_{k-1}, t_k) in 0-based half-open convention.
    rho is 0 by convention for singleton segments.
    """

    breakpoints: tuple[int, ...]
    rho: tuple[float, ...]
    segment_loglik: tuple[float, ...]
    total_loglik: float

    def __post_init__(self):
        bps = self.breakpoints
        if len(bps) < 2 or bps[0] != 0:
            raise ValueError(f"breakpoints must start at 0, got {bps}")
        if any(b <= a for a, b in zip(bps, bps[1:])):
            raise ValueError(f"breakpoints must be strictly increasing, got {bps}")
        if len(self.rho) != self.K or len(self.segment_loglik) != self.K:
            raise ValueError("per-segment lists must have length K")

    @property
    def K(self) -> int:
        return len(self.breakpoints) - 1

    @property
    def p(self) -> int:
        return self.breakpoints[-1]

    def segments(self) -> list[tuple[int, int]]:
        """Half-open (start, stop) pairs, one per segment."""
        return list(zip(self.breakpoints[:-1], self.breakpoints[1:]))


# Memory of one `_expression_dp` pass: 8*(p+1)^2 bytes for the Gram prefix
# plus 16*k_max*p for D and B, with the tile's strips on top.
def _dp_kernel(cost, m: int, k_max: int, min_seg_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Optimal segmentations of m points into 1..k_max segments, one pass.

    cost(starts, stops) returns the cost of the half-open segments
    [start, stop), broadcasting its integer arguments; segments shorter
    than min_seg_len cost +inf. The end point b is walked in tiles of
    TILE columns, and each tile's segment costs come from one cost call.
    D[k-1, b] = min cost of splitting points 0..b into k segments;
    B[k-1, b] = last point of the (k-1)-th segment at that optimum (ties
    go to the lowest), defined only where D is finite. Rows k <= K do not
    depend on k_max, so any K up to k_max backtracks from the same B.
    """
    # E[k, s] = D[k, s - 1]; its +inf column 0 lets a segment start s index
    # the row it extends, so each add reads whole contiguous rows
    E = np.full((k_max, m + 1), np.inf)
    B = np.zeros((k_max, m), dtype=np.intp)
    for b0 in range(0, m, TILE):
        b1 = min(b0 + TILE, m)
        starts = np.arange(b1)[None, :]
        stops = np.arange(b0 + 1, b1 + 1)[:, None]
        # c[b - b0, s] = cost of segment s..b inclusive
        c = np.where(stops - starts < max(1, min_seg_len), np.inf, cost(starts, stops))
        E[0, b0 + 1 : b1 + 1] = c[:, 0]
        # Row k of the tile needs row k-1 only at end points before b, so
        # each row is filled for the whole tile at once. At p = 2000, c and
        # M are 0.5 MB each and stay in a core's own cache.
        M = np.empty_like(c)
        ends = np.arange(b1 - b0)
        for k in range(1, k_max):
            # M[b - b0, s] = best k segments of 0..s-1, then segment s..b;
            # s = 0 and s > b are +inf, in E and in c
            np.add(c, E[k - 1, :b1], out=M)
            s = M.argmin(axis=1)
            E[k, b0 + 1 : b1 + 1] = M[ends, s]
            B[k, b0:b1] = s - 1
    return E[:, 1:], B

def _backtrack(B: np.ndarray, k: int, p: int) -> list[int]:
    """Recover breakpoints [0, ..., p] for the optimum with k segments."""
    bps = [p]
    b = p - 1
    for kk in range(k - 1, 0, -1):
        t = int(B[kk, b])
        bps.append(t + 1)
        b = t
    bps.append(0)
    return bps[::-1]


def segmentation_from_breakpoints(
    prefix: np.ndarray, n: int, breakpoints: list[int]
) -> Segmentation:
    """Segmentation with per-segment rho and log-likelihood estimates.

    prefix and n come from `build_gram_prefix` on the standardized matrix;
    breakpoints run 0 = t_0 < ... < t_K = p.
    """
    bps = tuple(int(t) for t in breakpoints)
    starts = np.array(bps[:-1])
    stops = np.array(bps[1:])
    S = block_sums(prefix, starts, stops)
    lengths = stops - starts
    seg_ll = tuple(-0.5 * float(c) for c in _closed_form_cost(S, lengths, n))
    rho = tuple(
        0.0 if p_k == 1 else rho_hat(float(s), int(p_k)) for s, p_k in zip(S, lengths)
    )
    return Segmentation(
        breakpoints=bps,
        rho=rho,
        segment_loglik=seg_ll,
        total_loglik=float(sum(seg_ll)),
    )

def _expression_dp(std: ExpressionMatrix, k_max: int, min_seg_len: int):
    """Gram prefix plus the kernel's D and B under the closed-form cost."""
    prefix = build_gram_prefix(std)
    n = std.n

    def cost(starts, stops):
        return _closed_form_cost(block_sums(prefix, starts, stops), stops - starts, n)

    return (prefix, *_dp_kernel(cost, std.p, k_max, min_seg_len))


def dp_segment(std: ExpressionMatrix, K: int, min_seg_len: int = 1) -> Segmentation:
    """Globally optimal segmentation of a standardized matrix into exactly K segments."""
    p = std.p
    if K < 1 or K * max(1, min_seg_len) > p:
        raise KTooLarge(f"K={K} infeasible for p={p} (min segment {min_seg_len})")
    prefix, _, B = _expression_dp(std, K, min_seg_len)
    return segmentation_from_breakpoints(prefix, std.n, _backtrack(B, K, p))


def default_k_max(p: int) -> int:
    """Default ceiling on the segment count: min(p, max(20, p // 10))."""
    return min(p, max(20, p // 10))


@dataclass(frozen=True)
class SelectionTrace:
    """Diagnostics of the segment-count choice.

    L[k-1] is the maximized log-likelihood with k segments. Ltilde is the
    displayed normalization of that curve onto the penalty scale: it spans
    [1, Ktilde_max - Ktilde_1 + 1] downward as K grows. The decision itself
    compares consecutive slopes of the curve rescaled per unit of penalty;
    second_diffs[i] is that slope change centered at K = i + 2, and
    chosen_K is the largest (or smallest, per rule) K whose slope change
    exceeds threshold_S, falling back to 1. segmentation is the optimum
    with chosen_K segments, backtracked from the same DP pass as L.
    """

    L: tuple[float, ...]
    Ltilde: tuple[float, ...]
    Ktilde: tuple[float, ...]
    second_diffs: tuple[float, ...]
    chosen_K: int
    threshold_S: float
    segmentation: Segmentation
    rule: str = "largest"
    degenerate: bool = False


def penalty(K: np.ndarray | int, p: int) -> np.ndarray:
    """Segmentation penalty 5K + 2K log(p / K)."""
    K = np.asarray(K, dtype=float)
    return 5.0 * K + 2.0 * K * np.log(p / K)

def slope_change_choice(
    L: np.ndarray, Ktilde: np.ndarray, S: float, rule: str = "largest"
) -> tuple[int, np.ndarray, bool]:
    """Pick a segment count from a likelihood curve by its largest slope change.

    The curve is normalized so the full likelihood range maps onto
    K_max - 1 units, converted to slopes per unit of penalty, and the
    drop between consecutive slopes is compared against S. Returns
    (chosen K, slope changes indexed from K=2, degenerate flag).
    """
    k_max = len(L)
    if k_max < 3:
        return 1, np.zeros(0), False
    span = L[-1] - L[0]
    if span == 0.0:
        # perfectly flat likelihood curve carries no elbow signal
        return 1, np.zeros(k_max - 2), True
    Lt = (L[-1] - L) / span * (k_max - 1) + 1.0
    slopes = (Lt[:-1] - Lt[1:]) / np.diff(Ktilde)
    d = slopes[:-1] - slopes[1:]
    qualifying = np.flatnonzero(d > S)
    if qualifying.size == 0:
        return 1, d, False
    if rule == "largest":
        return int(qualifying[-1]) + 2, d, False
    if rule == "smallest":
        return int(qualifying[0]) + 2, d, False
    raise ValueError(f"unknown selection rule {rule!r}")

def select_k(
    std: ExpressionMatrix,
    k_max: int | None = None,
    S: float = 0.7,
    rule: str = "largest",
    min_seg_len: int = 1,
) -> SelectionTrace:
    """Choose the number of segments of a standardized matrix by slope change.

    Runs one DP pass up to k_max, normalizes the likelihood curve, scans
    the slope changes, and backtracks the chosen K from the same pass. A
    flat curve (no likelihood gain from segmenting at all) triggers a
    warning and returns K = 1.
    """
    p = std.p
    if k_max is None:
        k_max = default_k_max(p)
    if min_seg_len > p:
        raise KTooLarge(f"min_seg_len={min_seg_len} (--min-seg) exceeds p={p}")
    if min_seg_len > 1:
        k_max = min(k_max, p // min_seg_len)
    if k_max < 1 or k_max > p:
        raise KTooLarge(f"k_max={k_max} (--kmax) out of range for p={p}")
    prefix, D, B = _expression_dp(std, k_max, min_seg_len)
    L = -0.5 * D[:, -1]
    Kt = penalty(np.arange(1, k_max + 1), p)
    chosen, d, degenerate = slope_change_choice(L, Kt, S, rule)
    if degenerate:
        warnings.warn(
            "likelihood curve is flat across K; falling back to a single segment",
            DegenerateNormalizationWarning,
            stacklevel=2,
        )
    span = L[-1] - L[0]
    if k_max == 1 or span == 0.0:
        Ltilde = np.ones(k_max)
    else:
        Ltilde = (L[-1] - L) / span * (Kt[-1] - Kt[0]) + 1.0
    return SelectionTrace(
        L=tuple(float(v) for v in L),
        Ltilde=tuple(float(v) for v in Ltilde),
        Ktilde=tuple(float(v) for v in Kt),
        second_diffs=tuple(float(v) for v in d),
        chosen_K=chosen,
        threshold_S=S,
        segmentation=segmentation_from_breakpoints(prefix, std.n, _backtrack(B, chosen, p)),
        rule=rule,
        degenerate=degenerate,
    )
