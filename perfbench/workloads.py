"""Request lists for the benchmark workloads.

A workload is a finite list of `mtl` argv lists built from the workload seed;
the seed drives every `--seed`, window position and CSV content, and the
program sees nothing but the argv and the files written here.  The list is
run once, in order, by one client in a closed loop (see loop.py).

Rule enforced while a list is built: no two requests compute the same result,
including results that share a prefix (a Monte Carlo run and a search with
the same n, seed and convention draw the same first matrices) and results
`mtl repro` computes internally.  Without it an in-process cache could skip
work that every separate `mtl` call pays.

Each request carries `units`, the problem size it asks for, counted from the
request and not from the work the program does, so a symmetry-reduced or
cached kernel still gets credit for the full problem.
"""

import math
import random
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

#: the benchmark's `run_seconds`; repeatable request classes scale with
#: --seconds relative to this, so a list takes about --seconds on the
#: reference machine (2 CPUs) while one-off requests stay single
REFERENCE_SECONDS = 20

#: matrices `mtl repro` covers: enum n=6 (2^15) + mc n=10 (20000) + search n=10 (2000)
REPRO_UNITS = (1 << 15) + 20000 + 2000

STEP = 0.05
THEOREM_CUTOFFS = 20


@dataclass(frozen=True)
class Request:
    """One `mtl` call plus what the reply check needs to know about it."""

    cls: str
    kind: str
    argv: tuple[str, ...]
    units: int
    params: dict = field(default_factory=dict)
    #: re-issued at the other --threads value after the timed loop
    invariance: bool = False

    def to_json(self) -> dict:
        d = asdict(self)
        d["argv"] = list(self.argv)
        return d

    @classmethod
    def from_json(cls, d: dict) -> "Request":
        return cls(**{**d, "argv": tuple(d["argv"])})


class _Builder:
    """Collects requests and refuses two that compute the same result."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self._keys: set[tuple] = set()
        self._seeds: set[int] = set()
        self.classes: dict[str, list[Request]] = {}

    def fresh_seed(self) -> int:
        while True:
            s = self.rng.randrange(1, 2**31)
            if s not in self._seeds:
                self._seeds.add(s)
                return s

    def taken(self, keys: list[tuple]) -> bool:
        return any(key in self._keys for key in keys)

    def add(self, req: Request, *keys: tuple):
        for key in keys:
            if key in self._keys:
                raise ValueError(f"two requests compute the same result {key}")
            self._keys.add(key)
        self.classes.setdefault(req.cls, []).append(req)

    def spread(self) -> list[Request]:
        """All requests, each class spread evenly over the list."""
        order = []
        for ci, reqs in enumerate(self.classes.values()):
            for i, req in enumerate(reqs):
                order.append(((i + 0.5) / len(reqs), ci, req))
        order.sort(key=lambda item: item[:2])
        return [req for _, _, req in order]


def _count(base: int, seconds: float) -> int:
    return max(1, round(base * seconds / REFERENCE_SECONDS))


def _draws_key(n: int, convention: str, seed: int) -> tuple:
    # mc chunk 0 and search both read the Philox stream keyed (seed, 0)
    return ("skewdet-draws", n, convention, seed)


def _window_key(T: float, H: float, step: float, t_switch: float = 50.0) -> tuple:
    # a window's |zeta| grid; k and the report type do not change it
    return ("zeta-grid", T, H, step, t_switch)


def simpson_nodes(H: float, step: float) -> int:
    """Node count of the composite Simpson grid the program builds on [T, T+H]."""
    n_int = max(2, math.ceil(H / step))
    return n_int + (n_int % 2) + 1


# --- skew-ensemble ---------------------------------------------------------

#: (n, samples, base count) of `skewdet mc`, threads alternating 1/2
SKEW_MC = ((8, 1000, 24), (10, 1000, 64), (12, 1000, 12), (14, 1000, 24), (32, 100, 8))
#: (n, budget, base count) of `skewdet search`
SKEW_SEARCH = ((10, 400, 24), (12, 1000, 16), (16, 500, 12))


def skew_ensemble(seed: int, seconds: float, workdir: Path) -> list[Request]:
    b = _Builder(seed)

    s = b.fresh_seed()
    b.add(
        Request("repro", "repro", ("repro", "--seed", str(s)), REPRO_UNITS, {"seed": s}),
        ("skewdet-enum", 6, "zero"),
        _draws_key(10, "zero", s),
        ("symchar", 25),
        _window_key(500.0, 500.0, STEP),
        _window_key(1000.0, 1000.0, STEP),
    )

    enum_cases = [(6, "unit")] + [(n, c) for n in range(1, 6) for c in ("zero", "unit")]
    for n, conv in enum_cases:
        m = n * (n - 1) // 2
        b.add(
            Request(
                "enum-n6" if n == 6 else "enum-small", "enum",
                ("skewdet", "enum", "--n", str(n), "--convention", conv),
                1 << m, {"n": n, "convention": conv},
            ),
            ("skewdet-enum", n, conv),
        )

    for n, samples, base in SKEW_MC:
        for i in range(_count(base, seconds)):
            s = b.fresh_seed()
            threads = 1 + i % 2
            b.add(
                Request(
                    f"mc-n{n}", "mc",
                    ("skewdet", "mc", "--n", str(n), "--samples", str(samples),
                     "--seed", str(s), "--threads", str(threads)),
                    samples,
                    {"n": n, "samples": samples, "seed": s, "convention": "zero"},
                    # the cheaper classes keep the untimed re-issues short
                    invariance=i < 2 and n <= 12,
                ),
                _draws_key(n, "zero", s),
            )

    for n, budget, base in SKEW_SEARCH:
        for _ in range(_count(base, seconds)):
            s = b.fresh_seed()
            b.add(
                Request(
                    f"search-n{n}", "search",
                    ("skewdet", "search", "--n", str(n), "--budget", str(budget),
                     "--seed", str(s)),
                    budget,
                    {"n": n, "budget": budget, "seed": s, "convention": "zero"},
                ),
                _draws_key(n, "zero", s),
            )
    return b.spread()


# --- zeta-windows ----------------------------------------------------------

#: (class, H, k, t_switch, T range, base count) of `zeta moments`; k None
#: alternates 2 and 4.  H=50 at T <= 90 stays below t_switch: Euler-Maclaurin.
#: The EM-heavy class starts near 0 so every run builds the same largest
#: (nodes x N) EM temporary, the workload's peak memory.
ZETA_MOMENTS = (
    ("moments-H50-k2", 50, 2, 50.0, (0.0, 40.0), 40),
    ("moments-H50-k4", 50, 4, 50.0, (0.0, 40.0), 40),
    ("moments-em-heavy", 200, None, 200.0, (0.0, 1.0), 20),
)
#: (H, base count) of `zeta tail` at T in [100, 5000]: Riemann-Siegel only
ZETA_TAIL = ((200, 60), (500, 120), (1000, 120))
TAIL_T_RANGE = (100.0, 5000.0)


def _windows(b: _Builder, t_range, count: int, H: float, t_switch: float, halved: bool):
    """Window starts drawn one per equal slice of t_range, in seeded order.

    Stratified draws keep each class's spread of T (and so of Riemann-Siegel
    cost, which grows like sqrt(T)) the same from seed to seed.
    """
    lo, hi = t_range
    out = []
    for i in range(count):
        while True:
            T = round(lo + (i + b.rng.random()) * (hi - lo) / count, 3)
            keys = [_window_key(T, H, STEP, t_switch)]
            if halved:  # the convergence check evaluates the half-step grid too
                keys.append(_window_key(T, H, STEP / 2, t_switch))
            if not b.taken(keys) and all(T != t for t, _ in out):
                break
        out.append((T, keys))
    b.rng.shuffle(out)
    return out


def zeta_windows(seed: int, seconds: float, workdir: Path) -> list[Request]:
    b = _Builder(seed)
    for H, base in ZETA_TAIL:
        for T, keys in _windows(b, TAIL_T_RANGE, _count(base, seconds), H, 50.0, False):
            b.add(
                Request(f"tail-H{H}", "tail",
                        ("zeta", "tail", "--T", repr(T), "--H", str(H)),
                        simpson_nodes(H, STEP), {"T": T, "H": float(H)}),
                *keys,
            )

    for cls, H, k, t_switch, t_range, base in ZETA_MOMENTS:
        windows = _windows(b, t_range, _count(base, seconds), H, t_switch, True)
        for i, (T, keys) in enumerate(windows):
            kk = k if k is not None else (2, 4)[i % 2]
            threads = 1 + i % 2
            argv = ["zeta", "moments", "--T", repr(T), "--H", str(H), "--k", str(kk),
                    "--threads", str(threads)]
            if t_switch != 50.0:
                argv += ["--t-switch", repr(t_switch)]
            b.add(
                Request(cls, "moments", tuple(argv),
                        simpson_nodes(H, STEP) + simpson_nodes(H, STEP / 2),
                        {"T": T, "H": float(H), "k": kk},
                        invariance=i < 2),
                *keys,
            )
    return b.spread()


# --- theorem-csv -----------------------------------------------------------

#: (rows, base count) of `theorem check` on a file of its own
THEOREM_FILES = ((2_000, 80), (20_000, 96), (100_000, 24))


def theorem_csv(seed: int, seconds: float, workdir: Path) -> list[Request]:
    b = _Builder(seed)
    for rows, base in THEOREM_FILES:
        for i in range(_count(base, seconds)):
            path = workdir / f"dist-{rows}-{i}.csv"
            a = _write_heavy_tailed_csv(path, rows, b.fresh_seed())
            cutoffs = [a * j / THEOREM_CUTOFFS for j in range(THEOREM_CUTOFFS)]
            argv = ["theorem", "check", "--input", str(path)]
            for cut in cutoffs:
                argv += ["--b", repr(cut)]
            b.add(
                Request(f"csv-{rows}", "theorem", tuple(argv),
                        rows * (len(cutoffs) + 1),
                        {"a": a, "cutoffs": len(cutoffs)}),
                ("theorem-input", str(path)),
            )
    return b.spread()


def _write_heavy_tailed_csv(path: Path, rows: int, seed: int) -> float:
    """Write Lomax(alpha) values with uniform weights; return the normalized a.

    Values are rounded so the file is short and parses back to exactly the
    floats a is computed from.
    """
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(2.2, 3.0)
    values = np.round(rng.pareto(alpha, rows), 6)
    weights = np.round(rng.uniform(0.5, 2.0, rows), 4)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("value,weight\n")
        fh.write("".join(f"{v!r},{w!r}\n" for v, w in zip(values.tolist(), weights.tolist())))
    total = math.fsum(weights.tolist())
    mean = math.fsum((weights * values).tolist()) / total
    return math.fsum((weights * values * values).tolist()) / total / (mean * mean)


WORKLOADS = {
    "skew-ensemble": skew_ensemble,
    "zeta-windows": zeta_windows,
    "theorem-csv": theorem_csv,
}


def build(name: str, seed: int, seconds: float, workdir: Path) -> list[Request]:
    """The request list of one workload; writes its input files into workdir."""
    return WORKLOADS[name](seed, seconds, workdir)
