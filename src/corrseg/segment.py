"""Segment likelihoods, optimal segmentation, and choice of segment count.

Under the block model, every segment of genes shares one pairwise
correlation rho, so its maximized log-likelihood has a closed form in the
block sum of the Gram matrix. The dynamic program then finds the exact
optimum over all segmentations into K contiguous segments, and the number
of segments is chosen where the penalized, normalized likelihood curve
shows its largest slope change.
"""

from __future__ import annotations

import math
import mmap
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .core import ExpressionMatrix, block_sums, build_gram_prefix
from .errors import DegenerateNormalizationWarning, DPBandFailed, KTooLarge

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


def _closed_form_cost(S: np.ndarray, L: np.ndarray, n: int, work=None) -> np.ndarray:
    """Closed-form -2 * max log-likelihood of segments of L genes, block sum S.

    For L >= 2 the cost is
    n * [L + (L-1) log((L^2 - S)/(L^2 - L)) + log(S / L)], and
    n * (1 + log S) for singletons. Log arguments are floored at 1e-12
    so empirically singular blocks yield finite (strongly negative) costs
    instead of NaN. S is a float64 array and L a length array of its
    shape. The costs overwrite S, which is returned; work is two scratch
    arrays of S's shape, allocated when not given.
    """
    T, A = np.empty((2, *S.shape)) if work is None else work
    single = L == 1
    with np.errstate(invalid="ignore"):
        S_single = n * (1.0 + np.log(np.maximum(S[single], LOG_EPS)))
        # T = log r2, r2 = S / L
        np.maximum(L, 1, out=T)
        np.divide(S, T, out=T)
        np.maximum(T, LOG_EPS, out=T)
        np.log(T, out=T)
        # S = log r1, r1 = (L^2 - S) / (L^2 - L)
        np.multiply(L, L, out=A)
        np.subtract(A, S, out=S)
        np.subtract(A, L, out=A)
        np.maximum(A, 1, out=A)
        np.divide(S, A, out=S)
        np.maximum(S, LOG_EPS, out=S)
        np.log(S, out=S)
        # S = n * (L + (L-1) log r1 + log r2)
        np.subtract(L, 1, out=A)
        np.multiply(A, S, out=S)
        np.add(L, S, out=S)
        np.add(S, T, out=S)
        np.multiply(S, n, out=S)
    S[single] = S_single
    return S


def _tile_views(scratch: np.ndarray, shape: tuple[int, ...]) -> list[np.ndarray]:
    """One C-contiguous array of `shape` at the front of each row of scratch."""
    size = np.prod(shape)
    return [row[:size].reshape(shape) for row in scratch]


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


def pass_size(m: int, k_max: int, batch: int = 1) -> tuple[int, int, int]:
    """(cells, table_bytes, tile_bytes) of one `_dp_kernel` pass over m points.

    cells, batch*k_max*m^2, is the unit of the benchmark's correction.dp_cells
    (the kernel visits about half). The tables are E (float64, with its +inf
    column) and the int32 B. A pass allocates its tile buffers once: the
    kernel's M, and four in the expression cost closure or two in `_rss_cost`'s;
    a cost call adds one transient. An expression pass adds its Gram prefix.
    """
    return batch * k_max * m * m, batch * k_max * (8 * (m + 1) + 4 * m), batch * 8 * TILE * m

# DP cells (`pass_size`'s) a worker process must get to pay for its start-up:
# on 2 CPUs pooled covariate fits broke even with inline ones between 24 and
# 64 million cells (about 50 ms of fits), and two bands of an expression pass
# between 12.5 and 34 million, so two workers need 64 million
WORKER_CELLS = 32_000_000
# the DP tables of the batches the workers hold at once stay within this, or
# within one batch where one batch is larger
POOL_TABLE_BYTES = 512 * 2**20
# where Linux lists this process's cgroups and mounts their controllers
PROC_CGROUP = "/proc/self/cgroup"
CGROUP_ROOT = "/sys/fs/cgroup"


def _cpu_quota(directory: str, v2: bool) -> float:
    """CPUs the quota of one cgroup directory allows; inf if it sets none."""
    fields = []
    try:
        for name in ["cpu.max"] if v2 else ["cpu.cfs_quota_us", "cpu.cfs_period_us"]:
            with open(os.path.join(directory, name)) as f:
                fields += f.read().split()
        quota, period = map(int, fields)
    except (OSError, ValueError):  # no such file, or v2's "max"
        return math.inf
    return quota / period if quota > 0 else math.inf  # v1 writes -1 for none


def usable_cpus() -> int:
    """CPUs this process may use: its affinity mask, capped by the CPU quota
    of its cgroup or of any cgroup above it (cgroup v2 or v1's cpu)."""
    cpus = len(os.sched_getaffinity(0))
    try:
        with open(PROC_CGROUP) as f:
            entries = [line.rstrip("\n").split(":", 2) for line in f]
    except OSError:
        return cpus
    quota = math.inf
    for _, controllers, path in entries:
        v2 = controllers == ""
        if v2 or "cpu" in controllers.split(","):
            root = CGROUP_ROOT if v2 else os.path.join(CGROUP_ROOT, "cpu")
            parts = [part for part in path.split("/") if part]
            # a quota above the process's cgroup binds it too, and a
            # container may see its own cgroup at the root, not at path
            for depth in range(len(parts) + 1):
                quota = min(quota, _cpu_quota(os.path.join(root, *parts[:depth]), v2))
    return cpus if quota >= cpus else math.ceil(quota)


def _workers(batches: int, cells: int, table_bytes: int) -> int:
    """Worker processes (1: inline) for work in `batches` parts: cells are the
    whole work's, table_bytes the tables of the largest part a worker holds."""
    if sys.platform != "linux":
        # fork is unsafe under macOS system libraries and absent on Windows
        return 1
    workers = min(batches, cells // WORKER_CELLS, POOL_TABLE_BYTES // max(1, table_bytes))
    if workers < 2:
        return 1
    import multiprocessing

    if multiprocessing.current_process().daemon:
        return 1  # a daemonic process may not have children
    return min(workers, usable_cpus())


def _dp_kernel(cost, m: int, k_max: int, min_seg_len: int, batch: int | None = None,
               bands: int = 1):
    """Optimal segmentations of m points into 1..k_max segments, one pass.

    cost(starts, stops) returns the cost of the half-open segments
    [start, stop), broadcasting its integer arguments; the kernel may
    overwrite the array it returns. Segments shorter than min_seg_len
    cost +inf. The end point b is walked in tiles of TILE columns, and
    each tile's segment costs come from one cost call.
    D[k-1, b] = min cost of splitting points 0..b into k segments;
    B[k-1, b] = last point of the (k-1)-th segment at that optimum (ties
    go to the lowest), defined only where D is finite. Rows k <= K do not
    depend on k_max, so any K up to k_max backtracks from the same B.
    With a batch, the tiles, D and B lead with a series axis that long.
    With bands > 1, contiguous bands of rows run in forked processes on
    shared tables (`_run_bands`); D and B are the same bits.
    """
    shape = (*(() if batch is None else (batch,)), k_max, m + 1)
    if bands == 1:
        # E[k, s] = D[k, s - 1]; its +inf column 0 lets a segment start s
        # index the row it extends, so each add reads whole contiguous rows
        E = np.full(shape, np.inf)
        B = np.zeros((*shape[:-1], m), dtype=np.int32)
        _band(cost, E, B, min_seg_len, 0, k_max)
    else:
        # one anonymous shared mapping holds E, then B
        tables = mmap.mmap(-1, pass_size(m, k_max, batch or 1)[1])
        E = np.frombuffer(tables, count=math.prod(shape)).reshape(shape)
        E.fill(np.inf)
        B = np.frombuffer(tables, np.int32, offset=E.nbytes).reshape(*shape[:-1], m)
        _run_bands(cost, E, B, min_seg_len, bands)
    return E[..., 1:], B


def _band(cost, E, B, min_seg_len: int, k0: int, k1: int, up=None, down=None) -> None:
    """Rows k0..k1-1 of E and B in a `_dp_kernel` pass, tile by tile.

    Row k of a tile needs row k-1 only at end points up to that tile, so
    with up, a band waits for one byte from the band above before it fills
    its rows of a tile, and with down, it sends one after.
    """
    *lead, k_max, m = B.shape
    msl = max(1, min_seg_len)
    # M, which takes the add's stores, starts on a 64-byte boundary: off it,
    # a chr-2000 pass ran 20-30% slower, as the heap happened to place M
    M_flat = np.empty(TILE * m * math.prod(lead) + 8)
    M_flat = M_flat[(-M_flat.ctypes.data % 64) // 8 :]
    # short[r, j]: the segment from s = b0 + 1 - msl + j to end point b0 + r
    # has fewer than msl points
    short = ~np.tri(TILE, TILE + msl - 1, dtype=bool)
    for b0 in range(0, m, TILE):
        b1 = min(b0 + TILE, m)
        w = b1 - b0
        # c[..., b - b0, s] = cost of segment s..b inclusive
        c = cost(np.arange(b1)[None, :], np.arange(b0 + 1, b1 + 1)[:, None])
        s0 = b0 + 1 - msl
        lo = max(s0, 0)
        np.copyto(c[..., lo:], np.inf, where=short[:w, lo - s0 : w + msl - 1])
        if k0 == 0:
            E[..., 0, b0 + 1 : b1 + 1] = c[..., 0]
        # Each row is filled for the whole tile at once. At p = 2000, c and
        # M are 0.5 MB each and stay in a core's own cache. M is the front of
        # the flat buffer: argmin reads it uncopied, the minima come at rows + s.
        M = M_flat[: c.size].reshape(c.shape)
        rows = np.arange(0, c.size, b1).reshape(c.shape[:-1])
        if up is not None:
            _handoff(up, read=True)
        for k in range(max(k0, 1), k1):
            # M[..., b - b0, s] = best k segments of 0..s-1, then segment
            # s..b; s = 0 and s > b are +inf, in E and in c
            np.add(c, E[..., k - 1, None, :b1], out=M)
            s = M.argmin(axis=-1)
            E[..., k, b0 + 1 : b1 + 1] = M_flat[rows + s]
            B[..., k, b0:b1] = s - 1
        if down is not None:
            _handoff(down, read=False)


def _handoff(fd: int, read: bool) -> None:
    """Take (read) or send one finished tile's byte on a band pipe; EOFError
    or BrokenPipeError means the band at the other end has ended."""
    if not read:
        os.write(fd, b"\0")
    elif not os.read(fd, 1):
        raise EOFError("a band of a DP pass ended before the pass did")


def _run_bands(cost, E, B, min_seg_len: int, bands: int) -> None:
    """Fill shared E and B in bands of rows: the top band here, each other
    band in a forked child, pipelined over tiles.

    Pipe i carries band i's finished tiles to band i + 1, and the last
    band's back here. Every process closes the pipe ends it does not use,
    so a band's end reaches the bands next to it, and this process, on its
    pipes. The children are gone when this returns or raises; DPBandFailed
    names the first child to end by its rows and exit status.
    """
    import multiprocessing

    k_max, m = B.shape[-2:]
    bounds = [k_max * i // bands for i in range(bands + 1)]
    pipes = [os.pipe() for _ in range(bands)]
    fds, mine = {fd for pipe in pipes for fd in pipe}, {pipes[0][1], pipes[-1][0]}
    fork, children, ended = multiprocessing.get_context("fork"), [], False
    try:
        for i in range(1, bands):
            args = (cost, E, B, min_seg_len, bounds[i], bounds[i + 1], pipes[i - 1][0], pipes[i][1])
            children.append(fork.Process(target=_child_band, args=(fds, *args), daemon=True))
            children[-1].start()
        for fd in fds - mine:
            os.close(fd)
        fds = mine
        _band(cost, E, B, min_seg_len, 0, bounds[1], down=pipes[0][1])
        for _ in range(0, m, TILE):
            _handoff(pipes[-1][0], read=True)
    except (EOFError, BrokenPipeError):
        ended = True
    finally:
        # once this process's pipe ends close, every child finishes or ends
        for fd in fds:
            os.close(fd)
        for child in children:
            child.join()
    if ended:
        # a child that ended because a neighbour did exits 0
        i, child = next((i, child) for i, child in enumerate(children, 1) if child.exitcode)
        rows = f"rows K = {bounds[i] + 1}-{bounds[i + 1]}"
        raise DPBandFailed.ended(f"the process filling {rows} of a DP pass", child.exitcode)


def _child_band(fds: set[int], cost, E, B, min_seg_len, k0, k1, up, down) -> None:
    """A forked band: close the pipe ends it does not use, then fill its rows.
    It exits 0 if a band next to it ended first, else 1 on an exception."""
    for fd in fds - {up, down}:
        os.close(fd)
    try:
        _band(cost, E, B, min_seg_len, k0, k1, up, down)
    except (EOFError, BrokenPipeError):
        pass
    except BaseException:
        sys.exit(1)

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
    rho = tuple(
        0.0 if p_k == 1 else rho_hat(float(s), int(p_k)) for s, p_k in zip(S, lengths)
    )
    seg_ll = tuple(-0.5 * float(c) for c in _closed_form_cost(S, lengths, n))
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
    # the tile's block sums (then costs), lengths and two work arrays
    scratch = np.empty((4, TILE * std.p))

    def cost(starts, stops):
        S, L, *work = _tile_views(scratch, (stops.size, starts.size))
        np.subtract(stops, starts, out=L)
        return _closed_form_cost(block_sums(prefix, starts, stops, out=S), L, n, work)

    # a band per row at most; the bands share one pass's tables
    bands = _workers(k_max, pass_size(std.p, k_max)[0], 0)
    return (prefix, *_dp_kernel(cost, std.p, k_max, min_seg_len, bands=bands))


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
