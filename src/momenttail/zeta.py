"""Critical-line |zeta| evaluation and windowed moment quadrature.

Two evaluation routes for |zeta(1/2 + it)|:

* Euler-Maclaurin: truncated Dirichlet series plus Bernoulli corrections.
  Near machine precision for small t; cost grows linearly with t, so it is
  the default only below ``t_switch``.  The truncation N is fixed per bucket
  of width 8 in |t| (N = max(16, 4 ceil(|t|/8) + 8), never below |t|/2 + 8),
  where Backlund's remainder bound is below 5.6e-13 up to EM_MAX_T.
* Riemann-Siegel: main sum of length floor(sqrt(t/2pi)) with the theta phase
  from its Stirling expansion, plus 0-2 correction terms built from the
  classical psi(p) = cos(2pi(p^2 - p - 1/16))/cos(2pi p) and its third
  derivative, each a polynomial fitted once in s = (2p - 1)^2 and within
  3e-16 of its term.

Both routes take their Dirichlet sums sum_{n<=N} n^(-1/2-it) from one kernel.
n^(-it) is completely multiplicative, so only a prime n costs a transcendental
call, one tangent of the half phase (_cis); a composite row n = q p, p its
largest prime factor, is one complex product of the rows of q and p, formed
in a depth-first walk over the composites that keeps one row per depth.  So
the kernel stores the prime rows p <= N/2 and at most floor(log2 N) more.
Nodes go through the kernel in blocks whose stored rows fit a fixed byte
budget, so memory is bounded for any t, and every step is elementwise, so a
value depends on its own t alone, not on the grid it was evaluated in.

Windowed moments of |zeta|^k (k = 2 or 4) use composite Simpson quadrature
with a built-in step-halving convergence record: the check halves every
interval, so only the halved grid is evaluated and its even nodes are the
full-step nodes.  The tail report discretizes
xi = H |zeta|^2 / integral(|zeta|^2) over the quadrature nodes, giving a unit
mean by construction, and checks the tail inequality on that finite
distribution with moments.check_tail_inequality, where it is exact.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .moments import EmpiricalDistribution, check_tail_inequality
from .numutil import compensated_dot, exact_sums, resolve_threads

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
# correction terms (about ten arrays of the chunk's size) for any grid.  One
# _eval_grid call per grid was measured worse (2 CPUs, in-process with
# cli.main's heap policy, best of 3 in two runs): tracemalloc peak at the
# Simpson cap 75 -> 145 MiB for tail T = 100, H = 1, step 2^-20, and
# 52 -> 169 MiB for moments T = 10, H = 1, k = 2, step 2^-19; that tail
# request 0.40-0.49 -> 0.53-0.62 s and that moments request 0.29-0.40 ->
# 0.62-0.71 s.  An EM-heavy window (8001 nodes) is one chunk either way.
_EVAL_CHUNK = 8192

# Bytes of the complex128 rows that one _dirichlet block may store (the
# prime rows p <= N/2 and one row per depth of the walk, pi(N/2) +
# floor(log2 N) per node), so the Dirichlet-sum working set is bounded for
# every t and t_switch: 23,831 nodes per block (more than one _EVAL_CHUNK) at
# N = 108 (Euler-Maclaurin, t <= 200), 7384 at N = 608 (t <= 1200) and 1680
# at N = 3988 (t <= EM_MAX_T).  Halving it costs 1.33-1.37x in time at
# N = 2412 and 1.2-1.5x at N = 3988 (8192 nodes, 2 CPUs, with cli.main's heap
# policy, best of 7 in two rounds).
DIRICHLET_BYTES = 8 << 20

#: width in |t| of the buckets that share one Euler-Maclaurin truncation
EM_BUCKET = 8

#: longest Dirichlet sum either route may ask for.  Riemann-Siegel takes
#: floor(sqrt(t/2pi)) terms, so it accepts t < 2pi * 3990^2 (about 1.0003e8);
#: Euler-Maclaurin takes _em_terms(t), so it accepts t <= 7960.  The cost per
#: node grows like N, so far larger t would run for hours, and near t = 1e30
#: the prime sieve alone would need petabytes.
DIRICHLET_MAX_TERMS = 3989
#: the routes' limits within DIRICHLET_MAX_TERMS terms: Euler-Maclaurin with
#: its own truncation accepts |t| <= EM_MAX_T, Riemann-Siegel t < RS_MAX_T
EM_MAX_T = EM_BUCKET * ((DIRICHLET_MAX_TERMS - 8) // (EM_BUCKET // 2))
RS_MAX_T = 2 * math.pi * (DIRICHLET_MAX_TERMS + 1) ** 2

#: most nodes of a Simpson grid (2^20 intervals; a tail report holds about 90
#: bytes per node), the half step of a convergence check included: H = 1000 at
#: step 0.05, the largest documented window, needs 40,001.
SIMPSON_MAX_NODES = (1 << 20) + 1


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


def _primes(limit: int) -> list[int]:
    """The primes p <= limit, ascending."""
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve).tolist()


def _cis(phase: np.ndarray, scale=1.0) -> np.ndarray:
    """scale * e^(i phase) elementwise, from u = tan(phase / 2):
    cos = (1 - u^2) / (1 + u^2) and sin = 2u / (1 + u^2).

    numpy's float64 tan is vectorised where its cos and sin may be scalar
    libm calls, so one tangent costs far less than the pair.  The halving is
    exact for a normal phase, and no double lies within 4.6e-19 of an odd
    multiple of pi/2 (Muller, Elementary Functions, ch. 11), so |u| < 2.2e18
    (1.6e18 at phase = 29 pi) and u^2 cannot overflow.
    """
    u = np.tan(0.5 * phase)
    u2 = u * u
    w = scale / (1.0 + u2)
    out = np.empty(u.shape, dtype=complex)
    out.real = (1.0 - u2) * w
    out.imag = (2.0 * u) * w
    return out


def _dirichlet(ts, N) -> np.ndarray:
    """S_j = sum_{n <= N_j} n^(-1/2 - i t_j) for each node; N is a scalar or
    one bound per node (a bound of 0 gives 0).

    Rows are n^(-1/2 - it) over the nodes.  A prime row costs one tangent of
    t * (-log n) / 2 (_cis); a composite row n = q p, p = P(n) its largest
    prime factor, is the product of the rows of q and p (n^(-s) is completely
    multiplicative), formed in the depth-first order of _smooth_walk.  So a
    block stores only the prime rows p <= N/2 and at most floor(log2 N)
    more, one per depth of the walk.  Nodes are sorted by N once, and
    row n covers only the suffix of nodes with N_j >= n.  Each S_j adds its
    primes in ascending order, then its composites in walk order, and every
    step is elementwise, so S_j depends on t_j and N_j alone.  Nodes go in
    blocks whose stored rows fit in DIRICHLET_BYTES.
    """
    ts = np.asarray(ts, dtype=float)
    bounds = np.broadcast_to(np.asarray(N, dtype=np.int64), ts.shape)
    out = np.zeros(ts.shape, dtype=complex)
    order = np.argsort(bounds, kind="stable")
    top = int(bounds[order[-1]])
    primes = _primes(top)
    walk = _smooth_walk(primes, top)
    # rows a block may store: pi(top/2) + floor(log2 top), none for top <= 1
    stored = sum(2 * p <= top for p in primes) + top.bit_length() - 1
    size = max(1, DIRICHLET_BYTES // (16 * max(1, stored)))
    for lo in range(0, ts.size, size):
        idx = order[lo : lo + size]
        out[idx] = _dirichlet_block(ts[idx], bounds[idx], primes, walk)
    return out


def _smooth_walk(primes: list[int], top: int) -> list[tuple[int, int, int, int, bool]]:
    """Every composite n <= top once, depth first from the primes, as a flat
    list of (n, q, p, depth, keep): n = q p with p = P(n), the children of q
    are q p' for the primes p' >= P(q) in ascending order, depth is the
    number of prime factors of n, and keep says that n has a child
    (n P(n) <= top), so its row is read after it."""
    walk = []

    def visit(q: int, first: int, depth: int):
        for i in range(first, len(primes)):
            p = primes[i]
            n = q * p
            if n > top:
                return
            keep = n * p <= top
            walk.append((n, q, p, depth, keep))
            if keep:
                visit(n, i, depth + 1)

    for i, p in enumerate(primes):
        if p * p > top:
            break
        visit(p, i, 2)
    return walk


def _dirichlet_block(ts: np.ndarray, bounds: np.ndarray, primes: list[int],
                     walk: list[tuple[int, int, int, int, bool]]) -> np.ndarray:
    """_dirichlet on nodes sorted by their bounds; walk from _smooth_walk."""
    top = int(bounds[-1])
    # starts[n]: the first node whose bound reaches n
    starts = np.searchsorted(bounds, np.arange(top + 1)).tolist()
    total = (bounds >= 1).astype(complex)  # row 1 is 1
    factors = {}  # the prime rows p <= top/2
    for p in primes:
        if p > top:
            break
        start = starts[p]
        row = _cis(ts[start:] * -math.log(p), p**-0.5)
        total[start:] += row
        if 2 * p <= top:
            factors[p] = row
        del row  # a row not stored is freed before the next one is formed
    # slots[d]: the last kept row at depth d, read until its subtree is done
    slots = [None] * top.bit_length()
    for n, q, p, depth, keep in walk:
        if n > top:
            continue
        start = starts[n]
        parent = factors[q] if depth == 2 else slots[depth - 1]
        row = parent[start - starts[q] :] * factors[p][start - starts[p] :]
        total[start:] += row
        if keep:
            slots[depth] = row
        del row
    return total


def _em_terms(ts: np.ndarray) -> np.ndarray:
    """EM truncation per bucket of width EM_BUCKET in |t|: never fewer terms
    than ceil(|t|/2) + 8, and the same N for every t in one bucket."""
    # Backlund (Edwards, Riemann's Zeta Function, ch. 6): after the 12
    # Bernoulli terms the remainder is at most |s+25|/(sigma+25) |B_26|/26!
    # prod_{j=0}^{24} |s+j| N^(-sigma-25).  At the top of a bucket (mpmath)
    # that is at most 1.42e-14 at t = 200 (N = 108), 2.4e-13 at t = 1984
    # (N = 1000) and 5.6e-13 at t = 7960 (N = 3988), the largest of all.
    buckets = np.ceil(np.abs(ts) / EM_BUCKET).astype(np.int64)
    return np.maximum(16, EM_BUCKET // 2 * buckets + 8)


def _check_em(ts: np.ndarray, n_terms: int | None = None):
    """Reject a non-finite t, then with the route's own truncation a t past
    EM_MAX_T, and with n_terms given an n_terms below the ceil(|t|/2) + 8 that
    _em_terms keeps, before any node is evaluated; ts is not empty."""
    if not np.isfinite(ts).all():
        raise ValueError("t must be finite")
    top = np.abs(ts).max().item()
    if n_terms is None and top > EM_MAX_T:
        raise ValueError(
            f"t = {top!r} is too large for the Euler-Maclaurin "
            f"route: it accepts t <= {EM_MAX_T} (lower t_switch to use Riemann-Siegel)"
        )
    if n_terms is not None:
        need = math.ceil(Fraction(top) / 2) + 8  # exact for every finite |t|
        if n_terms < need:
            raise ValueError(
                f"n_terms = {n_terms} is too few for t = {top!r}: the Euler-Maclaurin "
                f"route needs at least ceil(|t|/2) + 8 = {need} terms"
            )


def zeta_abs_euler_maclaurin(ts, n_terms: int | None = None) -> np.ndarray:
    """|zeta(1/2+it)| for an array of t by Euler-Maclaurin summation.

    Each node takes N ~ |t|/2 + 8 terms from its own bucket of |t| (see
    _em_terms), so a value depends on t alone; n_terms forces one N for every
    node.  Backlund's remainder bound is at most 5.6e-13 up to EM_MAX_T; the
    rounding of the phases t log n dominates instead: against mpmath the
    absolute error reached 2.2e-14 on [0, 50], 1.6e-13 on [50, 200], 3.2e-12
    on [200, 1984] and 8.8e-12 on [1984, 7960] (random t).  Cost is O(N) per
    point.  t must be finite, and |t| <= EM_MAX_T unless n_terms is given;
    n_terms is at least ceil(max|t|/2) + 8 and at most DIRICHLET_MAX_TERMS.
    """
    if n_terms is not None and n_terms < 1:
        raise ValueError("n_terms must be positive")
    if n_terms is not None and n_terms > DIRICHLET_MAX_TERMS:
        raise ValueError(f"n_terms must be at most {DIRICHLET_MAX_TERMS}")
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if ts.size == 0:
        return np.empty(0)
    _check_em(ts, n_terms)
    N = _em_terms(ts) if n_terms is None else np.full(ts.shape, n_terms, dtype=np.int64)
    total = _dirichlet(ts, N)
    s = 0.5 + 1j * ts
    # N^{-s} once; the other powers of N are real multiples of it
    n_s = _cis(-ts * np.log(N), N**-0.5)
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
    """theta(t) from the Stirling expansion through t^-5, its tail by Horner
    in 1/t; the truncation error is 3e-11 at t = 10 and falls like t^-7."""
    ts = np.asarray(ts, dtype=float)
    r = 1.0 / ts
    r2 = r * r
    return (
        ts / 2 * np.log(ts / (2 * math.pi))
        - ts / 2
        - math.pi / 8
        + r * (1 / 48 + r2 * (7 / 5760 + r2 * (31 / 80640)))
    )


# The Riemann-Siegel corrections are pure functions of p = frac(sqrt(t/2pi))
# (Gabcke, thesis, Goettingen 1979).  psi(p) = cos(2pi(p^2-p-1/16))/cos(2pi p)
# is even about p = 1/2 and psi''' is odd, so with y = 2p - 1 and s = y^2,
# psi(p) = P(s) and -psi'''(p)/(96 pi^2) = y Q(s).  P and Q are Chebyshev
# interpolants in s on [0, 1] at degree + 1 Chebyshev points, solved for in
# monomials once in mpmath at 40 digits (psi''' by mpmath.diff) and rounded
# once; tests/oracles.py re-fits them.  Largest |error| against mpmath at 50
# digits, over the 200 midpoints of (0, 1) and p in {1e-6, 1e-3, 0.999,
# 1 - 1e-6}:
#   degree   9        10       11       12
#   P        3.4e-14  1.1e-14  2.2e-16  1.1e-16
#   y Q      1.9e-13  1.1e-14  2.9e-16  1.4e-17
# P takes degree 12 and Q degree 11, the first degrees at the rounding of
# their terms; no coefficient exceeds 0.44 in magnitude.
_PSI_EVEN = (
    0.3826834323650898, 0.43724046807752187, 0.13237657548026333,
    -0.013605026045915401, -0.01356762199010657, -0.0016237251880640525,
    0.0002970529535571673, 7.94346923849386e-05, 4.6225811028998447e-07,
    -1.428319167927862e-06, -1.074473700503142e-07, 1.4501716654003737e-08,
    1.1732667371643235e-09,
)
_C1_ODD = (
    -0.02682510262837566, 0.013784773426442406, 0.038491250477916246,
    0.009871066379766293, -0.0033107605403268525, -0.0014647764135823067,
    -1.3224014763821265e-05, 5.926579220682624e-05, 5.919276361209359e-06,
    -8.999403898240696e-07, -2.262884042829333e-07, 2.0972855736941923e-08,
)


def _horner(coeffs: tuple[float, ...], x: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] x^k elementwise by Horner's rule, in one array."""
    out = np.full(x.shape, coeffs[-1])
    for c in coeffs[-2::-1]:
        out *= x
        out += c
    return out


def _check_rs(ts: np.ndarray):
    """Reject a t that is not in (0, RS_MAX_T), nan and inf included, before
    any node is evaluated; ts is not empty."""
    if not np.all(ts > 0):
        raise ValueError("Riemann-Siegel route needs t > 0")
    top = ts.max()
    if top >= RS_MAX_T:
        raise ValueError(
            f"t = {top.item()!r} is too large for the Riemann-Siegel "
            f"route: it accepts t < {RS_MAX_T:.6g} ({DIRICHLET_MAX_TERMS} Dirichlet terms)"
        )


def zeta_abs_riemann_siegel(ts, correction_terms: int = 2) -> np.ndarray:
    """|zeta(1/2+it)| via the Riemann-Siegel main sum plus correction terms.

    Main sum length floor(sqrt(t/2pi)).  With 2 correction terms the absolute
    error stays below ~6e-4 for t >= 40 and shrinks like t^(-5/4); with 1 term
    expect a few 1e-3 near t = 50.  Intended for t above the crossover; below
    ~2pi the main sum is empty and accuracy degrades.  Every t must satisfy
    0 < t < RS_MAX_T.
    """
    if correction_terms not in (0, 1, 2):
        raise ValueError("correction_terms must be 0, 1 or 2")
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if ts.size == 0:
        return np.empty(0)
    _check_rs(ts)
    a = np.sqrt(ts / (2 * math.pi))
    N = np.floor(a).astype(np.int64)
    p = a - N
    th = riemann_siegel_theta(ts)
    # 2 sum_{n<=N} cos(theta - t log n) / sqrt(n) = 2 Re(e^{i theta} S)
    S = _dirichlet(ts, N)
    z = 2.0 * (_cis(th) * S).real
    if correction_terms >= 1:
        y = 2.0 * p - 1.0
        s = y * y
        corr = _horner(_PSI_EVEN, s)
        if correction_terms >= 2:
            c1 = _horner(_C1_ODD, s)
            c1 *= y
            c1 /= a
            corr += c1
        z += np.where(N % 2 == 1, 1.0, -1.0) * corr / np.sqrt(a)
    return np.abs(z)


def _check_terms(ts: np.ndarray, cfg: ZetaEvalConfig):
    """Reject a grid whose Dirichlet sums would exceed DIRICHLET_MAX_TERMS,
    by each route's own check on the nodes it gets.

    Both term counts grow with t, so each route's largest t is compared with
    the largest t it accepts; a huge t meets no int64 cast on the way.
    """
    small = ts <= cfg.t_switch
    if small.any():
        _check_em(ts[small])
    if (~small).any():
        _check_rs(ts[~small])


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
    chunks run serially).  A negative or nan t, or one whose route would need
    more than DIRICHLET_MAX_TERMS Dirichlet terms, raises ValueError before any
    node is evaluated.
    """
    resolve_threads(threads)
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if not np.all(ts >= 0):  # nan fails this too
        raise ValueError("t must be non-negative")
    _check_terms(ts, cfg)
    parts = [_eval_grid(ts[i : i + _EVAL_CHUNK], cfg) for i in range(0, ts.size, _EVAL_CHUNK)]
    return np.concatenate(parts) if parts else np.empty_like(ts)


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


def _simpson_intervals(H: float, step: float) -> int:
    """Even Simpson interval count on a window H at about step; ValueError
    past SIMPSON_MAX_NODES nodes, before any allocation."""
    ratio = H / step
    if not ratio <= SIMPSON_MAX_NODES - 1:  # an inf ratio too
        raise ValueError(
            f"a Simpson grid of step {step!r} on a window of {H!r} needs more than "
            f"{SIMPSON_MAX_NODES} nodes: use a larger step or a shorter window")
    n_int = max(2, math.ceil(ratio))
    return n_int + n_int % 2


def _simpson_grid(T: float, H: float, n_int: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Nodes, weights and step of composite Simpson on [T, T+H] with n_int
    (even) intervals."""
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

    When convergence_check is on, the integral is recomputed on the grid with
    every interval halved, at exactly half the reported step, and the relative
    change recorded; only that grid is evaluated, and its even nodes give the
    full-step values.  The integrand oscillates on unit scale, so steps above
    0.25 set a warning flag instead of failing.  Grids past SIMPSON_MAX_NODES
    nodes, the half-step one included, raise ValueError.
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
    n_int = _simpson_intervals(H, step)
    if convergence_check and 2 * n_int + 1 > SIMPSON_MAX_NODES:
        raise ValueError(
            f"a Simpson grid of step {step!r} on a window of {H!r} needs more than "
            f"{SIMPSON_MAX_NODES} nodes at the half step: use a larger step or a shorter window")
    if convergence_check and not H / n_int / 2:
        raise ValueError(f"the grid step {H / n_int!r} for step {step!r} halves to 0: "
                         "use a larger step or --no-convergence-check")

    ts, w, h = _simpson_grid(T, H, n_int)
    halved = delta = None
    if not convergence_check:
        z = zeta_abs_grid(ts, cfg, threads)
    else:
        # H / (2 n_int) is h / 2, so node 2i of the halved grid is T + h i bit
        # for bit, and |zeta| depends on t alone
        ts2, w2, _ = _simpson_grid(T, H, 2 * n_int)
        z2 = zeta_abs_grid(ts2, cfg, threads)
        z = z2[::2]
        halved = compensated_dot(w2, z2**k)
    value = compensated_dot(w, z**k)
    if halved is not None:
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
    tail(b) >= a - b; a violation is a bug and raises TheoremViolationError.
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
        # both are exactly rounded sums of one set of non-negative terms, and
        # rounding is monotone, so the subset sum is never larger
        if self.restricted_fourth > self.fourth_moment:
            raise ValueError("restricted fourth moment exceeds the full moment")
        if self.measure_of_set > self.H * (1 + 1e-9):
            raise ValueError("restricted set measure exceeds the window length")


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
    fourth moment; None uses COEFF_LOW = 1/(4 pi^2).  A c_threshold whose
    cutoff overflows float64 raises ValueError before any node is evaluated.
    The results under both candidate coefficients are reported alongside
    either way.
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
    log32 = math.log(T) ** 1.5
    c_used = COEFF_LOW if c_threshold is None else float(c_threshold)
    threshold = c_used * log32
    if not math.isfinite(threshold):
        raise ValueError(f"c_threshold {c_used!r} makes the cutoff c * log(T)**1.5 "
                         "overflow float64")

    ts, w, h = _simpson_grid(T, H, _simpson_intervals(H, step))
    z = zeta_abs_grid(ts, cfg, threads)
    z2 = z**2
    i2 = compensated_dot(w, z2)
    if i2 <= 0:
        raise ValueError("second moment vanished; window too degenerate to scale")

    xi_values = H * z2 / i2
    # Simpson weights are positive, so (xi, w) is a valid finite distribution
    dist = EmpiricalDistribution(np.column_stack((xi_values, w)))
    e_xi = dist.mean  # = moment(dist, 1), as pow(v, 1.0) is v
    b = COEFF_LOW * math.log(T) ** 2
    theorem = check_tail_inequality(dist, [b])
    (tail_check,) = theorem.checks

    cutoffs = (COEFF_LOW * log32, COEFF_HIGH * log32, threshold)
    # the whole fourth moment (|zeta| > -inf) and each restriction, from one
    # exactly rounded pass over the terms w |zeta|^4 keyed by |zeta|
    i4, r4_low, r4_high, r4 = exact_sums(w * z2**2, z, (-math.inf,) + cutoffs)
    # the set measures stay np.sum: the reports carry its bits, and it is not
    # exactly rounded
    meas_low, meas_high, meas = (float(np.sum(w[z > cutoff])) for cutoff in cutoffs)

    target = COEFF_LOW * T * math.log(T) ** 4

    return TailMomentReport(
        T=T,
        H=H,
        c_threshold=c_used,
        threshold=threshold,
        restricted_fourth=r4,
        measure_of_set=meas,
        a=theorem.a,
        b=b,
        bound=tail_check.lower_bound,
        tail=tail_check.tail,
        holds=tail_check.holds,
        degenerate=theorem.degenerate,
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
