"""Critical-line |zeta| evaluation and windowed moment quadrature.

Two evaluation routes for |zeta(1/2 + it)|:

* Euler-Maclaurin: truncated Dirichlet series plus Bernoulli corrections.
  Near machine precision for small t; cost grows linearly with t, so it is
  the default only below ``t_switch``.  The truncation N is fixed per bucket
  of width 8 in |t| (N = max(16, 16 ceil(|t|/8) + 8), never below 2|t| + 8).
* Riemann-Siegel: main sum of length floor(sqrt(t/2pi)) with the theta phase
  from its Stirling expansion, plus 0-2 correction terms built from the
  classical psi(p) = cos(2pi(p^2 - p - 1/16))/cos(2pi p).

Both routes take their Dirichlet sums sum_{n<=N} n^(-1/2-it) from one kernel.
n^(-it) is completely multiplicative, so only a prime n costs a cos and a
sin; a composite row is one complex product of two earlier rows.  Nodes go
through the kernel in blocks whose stored rows fit a fixed byte budget, so
memory is bounded for any t, and every step is elementwise, so a value
depends on its own t alone, not on the grid it was evaluated in.

Windowed moments of |zeta|^k (k = 2 or 4) use composite Simpson quadrature
with a built-in step-halving convergence record.  The tail report discretizes
xi = H |zeta|^2 / integral(|zeta|^2) over the quadrature nodes, giving a unit
mean by construction, and checks the tail inequality on that finite
distribution, where it is exact.
"""

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .moments import CHECK_TOL, EmpiricalDistribution, moment, tail_second_moment
from .numutil import chunked_map, compensated_dot

EULER_GAMMA = 0.5772156649015329

#: candidate coefficients for the large-value cutoff c * log^{3/2}(T) on
#: |zeta|.  COEFF_HIGH is the value at which that cutoff coincides with
#: xi > b (b = log^2(T)/(4 pi^2)) in a window whose mean of |zeta|^2 is
#: log T; COEFF_LOW is the weaker face-value alternative.  Both are carried
#: in every report and neither is declared canonical.
COEFF_LOW = 1.0 / (4.0 * math.pi**2)
COEFF_HIGH = 1.0 / (2.0 * math.pi)

# B_{2k}, k = 1..12, exact rationals rounded once
_B2K = [
    1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510,
    43867 / 798, -174611 / 330, 854513 / 138, -236364091 / 2730,
]

# Nodes per evaluation chunk: bounds the per-node temporaries of the
# correction terms (about ten arrays of the chunk's size) for any grid.
_EVAL_CHUNK = 8192

# Bytes of the complex128 rows that one _dirichlet block keeps as factors
# (rows n <= N/2 of every node in the block), so the Dirichlet-sum working
# set is bounded for every t and t_switch: about 2460 nodes per block at
# N = 424 (t <= 200), 430 at N = 2408 (t <= 1200).  Halving it costs 1.6x
# in time at N = 2408, where blocks get short.
DIRICHLET_BYTES = 8 << 20

#: width in |t| of the buckets that share one Euler-Maclaurin truncation
EM_BUCKET = 8


def _require_finite(**values: float):
    """Reject NaN and +-inf flags before they reach a grid or a report."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class ZetaEvalConfig:
    """Evaluation strategy knobs.

    Below t_switch the Euler-Maclaurin route is used; above it Riemann-Siegel.
    rs_correction_terms defaults to 2: with a single term the crossover-band
    disagreement between the two routes peaks near 6e-3, which fails the 2e-3
    agreement target, while two terms stay near 5e-4.
    """

    t_switch: float = 50.0
    rs_correction_terms: int = 2

    def __post_init__(self):
        _require_finite(t_switch=self.t_switch)
        if not self.t_switch > 0:
            raise ValueError("t_switch must be positive")
        if self.rs_correction_terms not in (0, 1, 2):
            raise ValueError("rs_correction_terms must be 0, 1 or 2")


DEFAULT_CONFIG = ZetaEvalConfig()


def _least_prime_factors(limit: int) -> list[int]:
    """lpf[n] = least prime factor of a composite n <= limit; 0 for 0, 1 and primes."""
    lpf = np.zeros(limit + 1, dtype=np.int64)
    for p in range(2, math.isqrt(limit) + 1):
        if not lpf[p]:
            multiples = lpf[p * p :: p]
            multiples[multiples == 0] = p
    return lpf.tolist()


def _dirichlet(ts, N) -> np.ndarray:
    """S_j = sum_{n <= N_j} n^(-1/2 - i t_j) for each node; N is a scalar or
    one bound per node (a bound of 0 gives 0).

    Rows are n^(-1/2 - it) over the nodes, formed in ascending n.  A prime
    row costs one cos and one sin of t * (-log n); a composite row is the
    product of the rows of p and n // p, p its least prime factor (n^(-s) is
    completely multiplicative).  Only rows n <= N/2 are kept as factors.
    Nodes are sorted by N once, and row n covers only the suffix of nodes
    with N_j >= n.  Every step is elementwise, so S_j depends on t_j and N_j
    alone.  Nodes go in blocks whose kept rows stay within DIRICHLET_BYTES.
    """
    ts = np.asarray(ts, dtype=float)
    bounds = np.broadcast_to(np.asarray(N, dtype=np.int64), ts.shape)
    out = np.zeros(ts.shape, dtype=complex)
    if ts.size == 0:
        return out
    order = np.argsort(bounds, kind="stable")
    top = int(bounds[order[-1]])
    lpf = _least_prime_factors(top)
    size = max(1, DIRICHLET_BYTES // (16 * (top // 2 + 1)))
    for lo in range(0, ts.size, size):
        idx = order[lo : lo + size]
        out[idx] = _dirichlet_block(ts[idx], bounds[idx], lpf)
    return out


def _dirichlet_block(ts: np.ndarray, bounds: np.ndarray, lpf: list[int]) -> np.ndarray:
    """_dirichlet on nodes sorted by their bounds."""
    top = int(bounds[-1])
    # starts[n]: the first node whose bound reaches n
    starts = np.searchsorted(bounds, np.arange(top + 1)).tolist()
    total = (bounds >= 1).astype(complex)  # row 1 is 1
    rows = [None] * (top // 2 + 1)
    for n in range(2, top + 1):
        start = starts[n]
        p = lpf[n]
        if p:
            q = n // p
            row = rows[p][start - starts[p] :] * rows[q][start - starts[q] :]
        else:
            phase = ts[start:] * -math.log(n)
            row = np.empty(phase.size, dtype=complex)
            row.real = np.cos(phase)
            row.imag = np.sin(phase)
            row *= n**-0.5
        total[start:] += row
        if n < len(rows):
            rows[n] = row
    return total


def _em_terms(ts: np.ndarray) -> np.ndarray:
    """EM truncation per bucket of width EM_BUCKET in |t|: never fewer terms
    than ceil(2|t|) + 8, and the same N for every t in one bucket."""
    buckets = np.ceil(np.abs(ts) / EM_BUCKET).astype(np.int64)
    return np.maximum(16, 2 * EM_BUCKET * buckets + 8)


def zeta_abs_euler_maclaurin(ts, n_terms: int | None = None) -> np.ndarray:
    """|zeta(1/2+it)| for an array of t by Euler-Maclaurin summation.

    Each node takes N terms from its own bucket of |t| (see _em_terms), so a
    value depends on t alone; n_terms forces one N for every node.  Absolute
    error is far below 1e-6 for t <= ~100; cost is O(N) per point, so keep t
    moderate.
    """
    if n_terms is not None and n_terms < 1:
        raise ValueError("n_terms must be positive")
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if ts.size == 0:
        return np.empty(0)
    N = _em_terms(ts) if n_terms is None else np.full(ts.shape, n_terms, dtype=np.int64)
    s = 0.5 + 1j * ts
    total = _dirichlet(ts, N)
    # N^{-s} once; the other powers of N are real multiples of it
    n_s = np.exp(-s * np.log(N))
    total += N * n_s / (s - 1) - 0.5 * n_s
    # Bernoulli corrections B_{2k}/(2k)! * s(s+1)...(s+2k-2) * N^{1-s-2k}
    inv_n2 = 1.0 / (N * N)
    power = n_s / N
    poch = s.copy()
    fact = 1.0
    for k in range(1, 13):
        fact *= (2 * k - 1) * (2 * k)
        total += (_B2K[k - 1] / fact) * poch * power
        poch = poch * (s + (2 * k - 1)) * (s + 2 * k)
        power *= inv_n2
    return np.abs(total)


def riemann_siegel_theta(ts) -> np.ndarray:
    """theta(t) from the Stirling expansion; accurate to ~1e-12 for t >= 10."""
    ts = np.asarray(ts, dtype=float)
    return (
        ts / 2 * np.log(ts / (2 * math.pi))
        - ts / 2
        - math.pi / 8
        + 1 / (48 * ts)
        + 7 / (5760 * ts**3)
        + 31 / (80640 * ts**5)
    )


def _psi(p) -> np.ndarray:
    """psi(p) = cos(2pi(p^2-p-1/16))/cos(2pi p) for p in [0,1], entire in p.

    Evaluated through sin-quotient rearrangements centered on the removable
    zeros of the denominator at p = 1/4 (used on [0, 1/2]) and p = 3/4
    (used on (1/2, 1]), so no cancellation occurs anywhere in [0, 1].
    """
    p = np.asarray(p, dtype=float)
    u = p - 0.25
    with np.errstate(invalid="ignore", divide="ignore"):
        low = ((1 - 2 * u) / 2) * np.sinc(u - 2 * u * u) / np.sinc(2 * u)
    v = p - 0.75
    with np.errstate(invalid="ignore", divide="ignore"):
        high = ((1 + 2 * v) / 2) * np.sinc(v + 2 * v * v) / np.sinc(2 * v)
    return np.where(p <= 0.5, low, high)


@cache
def _c1_series():
    """Chebyshev form of the second correction term -psi'''(p)/(96 pi^2)."""
    cheb = np.polynomial.chebyshev.Chebyshev.interpolate(_psi, 80, domain=[0.0, 1.0])
    return cheb.deriv(3) * (-1.0 / (96.0 * math.pi**2))


def zeta_abs_riemann_siegel(ts, correction_terms: int = 2) -> np.ndarray:
    """|zeta(1/2+it)| via the Riemann-Siegel main sum plus correction terms.

    Main sum length floor(sqrt(t/2pi)).  With 2 correction terms the absolute
    error stays below ~6e-4 for t >= 40 and shrinks like t^(-5/4); with 1 term
    expect a few 1e-3 near t = 50.  Intended for t above the crossover; below
    ~2pi the main sum is empty and accuracy degrades.
    """
    if correction_terms not in (0, 1, 2):
        raise ValueError("correction_terms must be 0, 1 or 2")
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if ts.size == 0:
        return np.empty(0)
    if np.any(ts <= 0):
        raise ValueError("Riemann-Siegel route needs t > 0")
    a = np.sqrt(ts / (2 * math.pi))
    N = np.floor(a).astype(np.int64)
    p = a - N
    th = riemann_siegel_theta(ts)
    # 2 sum_{n<=N} cos(theta - t log n) / sqrt(n) = 2 Re(e^{i theta} S)
    S = _dirichlet(ts, N)
    z = 2.0 * (np.cos(th) * S.real - np.sin(th) * S.imag)
    if correction_terms >= 1:
        corr = _psi(p)
        if correction_terms >= 2:
            corr = corr + _c1_series()(p) / a
        z += np.where(N % 2 == 1, 1.0, -1.0) * corr / np.sqrt(a)
    return np.abs(z)


def _eval_grid(ts: np.ndarray, cfg: ZetaEvalConfig) -> np.ndarray:
    out = np.empty_like(ts)
    small = ts <= cfg.t_switch
    if small.any():
        out[small] = zeta_abs_euler_maclaurin(ts[small])
    if (~small).any():
        out[~small] = zeta_abs_riemann_siegel(ts[~small], cfg.rs_correction_terms)
    return out


def zeta_abs_grid(
    ts, cfg: ZetaEvalConfig = DEFAULT_CONFIG, threads: int | None = None
) -> np.ndarray:
    """|zeta(1/2+it)| on an array of points, routed by cfg.t_switch.

    Every value depends only on its own t and cfg, so it does not change with
    the chunking, the neighbouring points or threads (validated, then unused:
    chunks run serially).
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if np.any(ts < 0):
        raise ValueError("t must be non-negative")
    chunks = [(ts[i : i + _EVAL_CHUNK], cfg) for i in range(0, ts.size, _EVAL_CHUNK)]
    parts = chunked_map(_eval_grid, chunks, threads)
    return np.concatenate(parts) if parts else np.empty_like(ts)


def zeta_abs(t: float, cfg: ZetaEvalConfig = DEFAULT_CONFIG) -> float:
    """|zeta(1/2+it)| at a single point t >= 0."""
    return float(zeta_abs_grid(np.array([float(t)]), cfg)[0])


def ingham_main_term(T: float) -> float:
    """Main term of the second moment on [0, T]: T log(T/2pi) + (2g-1) T."""
    if not T > 0:
        raise ValueError("T must be positive")
    return T * math.log(T / (2 * math.pi)) + (2 * EULER_GAMMA - 1) * T


def fourth_moment_leading_term(T: float) -> float:
    """Leading term of the fourth moment on [0, T]: T log^4(T) / (2 pi^2).

    Leading order only; the full degree-4 polynomial in log T is not modeled,
    so use this as a comparator, not a prediction.
    """
    if not T > 1:
        raise ValueError("T must exceed 1")
    return T * math.log(T) ** 4 / (2 * math.pi**2)


@dataclass(frozen=True)
class MomentEstimate:
    """One Simpson estimate of the k-th moment over [T, T+H]."""

    T: float
    H: float
    k: int
    value: float
    nodes: int
    step: float
    halved_value: float | None = None
    convergence_delta: float | None = None
    coarse_step_warning: bool = False

    def __post_init__(self):
        if self.k not in (2, 4):
            raise ValueError("k must be 2 or 4")
        if not self.H > 0:
            raise ValueError("H must be positive")
        if self.nodes < 2:
            raise ValueError("need at least 2 nodes")
        if self.value < 0:
            raise ValueError("moment cannot be negative")


def _simpson_grid(T: float, H: float, step: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Nodes, weights and actual step of composite Simpson on [T, T+H]."""
    n_int = max(2, int(math.ceil(H / step)))
    if n_int % 2:
        n_int += 1
    h = H / n_int
    ts = T + h * np.arange(n_int + 1, dtype=float)
    w = np.full(n_int + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    w *= h / 3.0
    return ts, w, h


def moment_integral(
    T: float,
    H: float,
    k: int,
    step: float = 0.05,
    cfg: ZetaEvalConfig = DEFAULT_CONFIG,
    convergence_check: bool = True,
    threads: int | None = None,
) -> MomentEstimate:
    """Simpson quadrature of |zeta(1/2+it)|^k over [T, T+H], k in {2, 4}.

    When convergence_check is on, the integral is recomputed at half the step
    and the relative change recorded.  The integrand oscillates on unit scale,
    so steps above 0.25 set a warning flag instead of failing.
    """
    _require_finite(T=T, H=H, step=step)
    if T < 0:
        raise ValueError("T must be non-negative")
    if not H > 0:
        raise ValueError("H must be positive")
    if not 0 < step <= H / 10:
        raise ValueError("step must satisfy 0 < step <= H/10")
    if k not in (2, 4):
        raise ValueError("k must be 2 or 4")

    ts, w, h = _simpson_grid(T, H, step)
    z = zeta_abs_grid(ts, cfg, threads)
    value = compensated_dot(w, z**k)

    halved = delta = None
    if convergence_check:
        ts2, w2, _ = _simpson_grid(T, H, step / 2)
        z2 = zeta_abs_grid(ts2, cfg, threads)
        halved = compensated_dot(w2, z2**k)
        delta = abs(value - halved) / max(abs(halved), 1e-300)

    return MomentEstimate(
        T=T,
        H=H,
        k=k,
        value=value,
        nodes=ts.size,
        step=h,
        halved_value=halved,
        convergence_delta=delta,
        coarse_step_warning=step > 0.25,
    )


@dataclass(frozen=True)
class TailMomentReport:
    """Large-value restriction of the fourth moment over one window [T, T+H].

    xi is the discretized H|zeta|^2 / integral(|zeta|^2); a its second moment;
    b = log^2(T)/(4 pi^2).  holds records the finite-support tail inequality
    tail(b) >= a - b, which can only fail through an implementation bug.
    Restricted fourth moments and set measures are carried for both candidate
    cutoff coefficients as well as the one actually requested.
    """

    T: float
    H: float
    c_threshold: float
    threshold: float
    restricted_fourth: float
    measure_of_set: float
    a: float
    b: float
    bound: float
    tail: float
    holds: bool
    degenerate: bool
    e_xi: float
    second_moment: float
    fourth_moment: float
    restricted_fourth_low: float
    measure_low: float
    restricted_fourth_high: float
    measure_high: float
    fourth_leading_target: float
    restricted_to_target_ratio: float
    h_at_least_t23: bool
    nodes: int
    step: float
    coeff_low: float = COEFF_LOW
    coeff_high: float = COEFF_HIGH

    def __post_init__(self):
        if self.restricted_fourth > self.fourth_moment * (1 + 1e-9):
            raise ValueError("restricted fourth moment exceeds the full moment")
        if self.measure_of_set > self.H * (1 + 1e-9):
            raise ValueError("restricted set measure exceeds the window length")


def _restricted(w, z, z4, cutoff) -> tuple[float, float]:
    mask = z > cutoff
    if not mask.any():
        return 0.0, 0.0
    return compensated_dot(w[mask], z4[mask]), float(np.sum(w[mask]))


def tail_moment_report(
    T: float,
    H: float,
    c_threshold: float | None = None,
    step: float = 0.05,
    cfg: ZetaEvalConfig = DEFAULT_CONFIG,
    threads: int | None = None,
) -> TailMomentReport:
    """Build the unit-mean xi from |zeta|^2 on [T, T+H] and check its tail.

    c_threshold scales the |zeta| cutoff c * log^{3/2}(T) for the restricted
    fourth moment; None uses COEFF_LOW = 1/(4 pi^2).  The results under both
    candidate coefficients are reported alongside either way.
    """
    _require_finite(T=T, H=H, step=step)
    if c_threshold is not None:
        _require_finite(c_threshold=c_threshold)
    if T < 10:
        raise ValueError("T must be at least 10")
    if not H > 0:
        raise ValueError("H must be positive")
    if not 0 < step <= H / 10:
        raise ValueError("step must satisfy 0 < step <= H/10")

    ts, w, h = _simpson_grid(T, H, step)
    z = zeta_abs_grid(ts, cfg, threads)
    z2 = z**2
    z4 = z2**2
    i2 = compensated_dot(w, z2)
    i4 = compensated_dot(w, z4)
    if i2 <= 0:
        raise ValueError("second moment vanished; window too degenerate to scale")

    xi_values = H * z2 / i2
    # Simpson weights are positive, so (xi, w) is a valid finite distribution
    dist = EmpiricalDistribution(np.column_stack((xi_values, w)))
    e_xi = dist.mean  # = moment(dist, 1), as pow(v, 1.0) is v
    a = moment(dist, 2)
    b = COEFF_LOW * math.log(T) ** 2
    tail = tail_second_moment(dist, b)
    degenerate = a <= 1.0 + 1e-12
    holds = tail >= a - b - CHECK_TOL

    log32 = math.log(T) ** 1.5
    cutoff_low = COEFF_LOW * log32
    cutoff_high = COEFF_HIGH * log32
    r4_low, meas_low = _restricted(w, z, z4, cutoff_low)
    r4_high, meas_high = _restricted(w, z, z4, cutoff_high)

    c_used = COEFF_LOW if c_threshold is None else float(c_threshold)
    if c_used == COEFF_LOW:
        r4, meas = r4_low, meas_low
    elif c_used == COEFF_HIGH:
        r4, meas = r4_high, meas_high
    else:
        r4, meas = _restricted(w, z, z4, c_used * log32)

    target = COEFF_LOW * T * math.log(T) ** 4

    return TailMomentReport(
        T=T,
        H=H,
        c_threshold=c_used,
        threshold=c_used * log32,
        restricted_fourth=r4,
        measure_of_set=meas,
        a=a,
        b=b,
        bound=a - b,
        tail=tail,
        holds=holds,
        degenerate=degenerate,
        e_xi=e_xi,
        second_moment=i2,
        fourth_moment=i4,
        restricted_fourth_low=r4_low,
        measure_low=meas_low,
        restricted_fourth_high=r4_high,
        measure_high=meas_high,
        fourth_leading_target=target,
        restricted_to_target_ratio=r4 / target,
        h_at_least_t23=H >= T ** (2.0 / 3.0),
        nodes=ts.size,
        step=h,
    )
