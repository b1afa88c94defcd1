"""Critical-line |zeta| evaluation and windowed moment quadrature.

Two evaluation routes for |zeta(1/2 + it)|:

* Euler-Maclaurin: truncated Dirichlet series plus Bernoulli corrections.
  Near machine precision for small t; cost grows linearly with t, so it is
  the default only below ``t_switch``.
* Riemann-Siegel: main sum of length floor(sqrt(t/2pi)) with the theta phase
  from its Stirling expansion, plus 0-2 correction terms built from the
  classical psi(p) = cos(2pi(p^2 - p - 1/16))/cos(2pi p).

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

_EVAL_CHUNK = 8192


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


def zeta_abs_euler_maclaurin(ts, n_terms: int | None = None) -> np.ndarray:
    """|zeta(1/2+it)| for an array of t by Euler-Maclaurin summation.

    Absolute error is far below 1e-6 for t <= ~100 with the adaptive
    truncation (N about 2t); cost is O(N) per point, so keep t moderate.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if ts.size == 0:
        return np.empty(0)
    tmax = float(np.max(np.abs(ts)))
    N = n_terms if n_terms is not None else max(16, int(math.ceil(2.0 * tmax)) + 8)
    s = 0.5 + 1j * ts
    logn = np.log(np.arange(1, N + 1, dtype=float))
    # sum_{n<=N} n^{-s} as exp(-s log n); (nodes, N) outer product
    total = np.exp(-s[:, None] * logn[None, :]).sum(axis=1)
    logN = logn[-1]
    total += np.exp((1 - s) * logN) / (s - 1) - 0.5 * np.exp(-s * logN)
    # Bernoulli corrections B_{2k}/(2k)! * s(s+1)...(s+2k-2) * N^{1-s-2k}
    poch = s.copy()
    fact = 1.0
    for k in range(1, 13):
        fact *= (2 * k - 1) * (2 * k)
        total += (_B2K[k - 1] / fact) * poch * np.exp(-(s + (2 * k - 1)) * logN)
        poch = poch * (s + (2 * k - 1)) * (s + 2 * k)
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
    z = np.zeros_like(ts)
    for n in range(1, int(N.max()) + 1 if N.size else 1):
        mask = N >= n
        if not mask.any():
            break
        z[mask] += (2.0 / math.sqrt(n)) * np.cos(th[mask] - ts[mask] * math.log(n))
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

    Work is partitioned into fixed chunks, evaluated independently and joined
    in order, so the result is identical for any worker count.
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
    e_xi = moment(dist, 1)
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
