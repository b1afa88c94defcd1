"""Span recorder for the traced run, and the per-layer metrics derived from it.

`install` replaces the public functions of each momenttail module, in every
module namespace that holds them (so the names zeta imports from moments and
numutil are wrapped too), plus the two methods the metrics name.  The program
itself is not changed.  Spans are kept in memory as (id, name, start, end,
parent, request) and written out as JSON lines when the run ends.
"""

import functools
import importlib
import inspect
import itertools
import json
import math
import threading
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "momenttail"
MODULES = ("cli", "skewdet", "symchar", "zeta", "moments", "numutil")
ROOT = "cli.main"


def _em_terms(b: dict) -> tuple[int, int]:
    ts = np.atleast_1d(np.asarray(b["ts"], dtype=float))
    if ts.size == 0:
        return 0, 0
    # the program's truncation rule: N from the call's largest t
    n = b["n_terms"] or max(16, int(math.ceil(2.0 * float(np.max(np.abs(ts))))) + 8)
    return int(ts.size), n


def _entries(b: dict) -> int:
    return len(b["dist"].entries)


#: what to record about a call, from its bound arguments and its result
MEASURES = {
    "skewdet.mc_stats": lambda b, r: {"n": b["n"], "units": b["samples"], "threads": b["threads"]},
    "skewdet.enumerate_stats": lambda b, r: {"units": r.count},
    "skewdet.search_high_det": lambda b, r: {"units": r.evaluations},
    "symchar.partitions": lambda b, r: {"units": len(r)},
    "symchar.degree_table": lambda b, r: {"units": len(r.rows)},
    "zeta.zeta_abs_euler_maclaurin": lambda b, r: dict(zip(("units", "terms"), _em_terms(b))),
    "zeta.zeta_abs_riemann_siegel": lambda b, r: {"units": int(np.size(b["ts"]))},
    "zeta.zeta_abs_grid": lambda b, r: {"units": int(np.size(b["ts"])), "threads": b["threads"]},
    "moments.EmpiricalDistribution": lambda b, r: {"units": len(b["entries"])},
    "moments.load_distribution_csv": lambda b, r: {"units": len(r.entries)},
    "moments.verify_theorem": lambda b, r: {"units": len(b["dist"].entries),
                                            "cutoffs": len(b["b_grid"])},
    "moments.normalize": lambda b, r: {"units": _entries(b)},
    "moments.moment": lambda b, r: {"units": _entries(b)},
    "moments.tail_second_moment": lambda b, r: {"units": _entries(b)},
    "numutil.compensated_dot": lambda b, r: {"units": len(b["a"])},
}


class Recorder:
    """In-memory spans; one request at a time, calls from any thread."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.ids = array("q")
        self.name = array("i")
        self.parent = array("q")
        self.req = array("i")
        self.start = array("d")
        self.end = array("d")
        self.attrs: dict[int, dict] = {}
        self.errors: Counter = Counter()
        self.request = -1
        self._root = -1
        self._next_id = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _record(self, sid, nid, parent, start, end):
        with self._lock:
            self.ids.append(sid)
            self.name.append(nid)
            self.parent.append(parent)
            self.req.append(self.request)
            self.start.append(start)
            self.end.append(end)

    def run_request(self, request_id: int, attrs: dict, fn, *args):
        """Call fn(*args) as the root span of one request."""
        sid = next(self._next_id)
        self.request, self._root = request_id, sid
        self.attrs[sid] = attrs
        stack = self._stack()
        stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args)
        except BaseException:
            with self._lock:
                self.errors["cli"] += 1
            raise
        finally:
            end = perf_counter()
            stack.pop()
            self._record(sid, self._name_id(ROOT), -1, start, end)

    def wrap(self, name: str, fn, measure=None):
        nid = self._name_id(name)
        module = name.split(".", 1)[0]
        sig = inspect.signature(fn) if measure else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            # a pool worker's first span belongs to the call the main thread waits in
            if stack:
                parent = stack[-1]
            elif self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = self._root
            sid = next(self._next_id)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                with self._lock:
                    self.errors[module] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                self._record(sid, nid, parent, start, end)
            if measure:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.attrs[sid] = measure(bound.arguments, result)
            return result

        return wrapper

    def write_jsonl(self, path: str):
        t0 = min(self.start, default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.ids)):
                sid = self.ids[i]
                row = {"id": sid, "name": self.names[self.name[i]],
                       "start": self.start[i] - t0, "end": self.end[i] - t0,
                       "parent": self.parent[i], "request": self.req[i]}
                if sid in self.attrs:
                    row["attrs"] = self.attrs[sid]
                fh.write(json.dumps(row) + "\n")


def install(rec: Recorder):
    """Wrap the package's public functions wherever a module namespace holds them."""
    modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
    wrappers: dict[int, object] = {}
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            home = getattr(obj, "__module__", "") or ""
            if home.rpartition(".")[0] != PACKAGE or f"{home}.{obj.__name__}" == f"{PACKAGE}.{ROOT}":
                continue
            if id(obj) not in wrappers:
                name = f"{home.rpartition('.')[2]}.{obj.__name__}"
                wrappers[id(obj)] = rec.wrap(name, obj, MEASURES.get(name))
            setattr(mod, attr, wrappers[id(obj)])
    skew_matrix = modules["skewdet"].SkewSignMatrix
    skew_matrix.to_rows = rec.wrap("skewdet.to_rows", skew_matrix.to_rows)
    dist = modules["moments"].EmpiricalDistribution
    dist.__init__ = rec.wrap("moments.EmpiricalDistribution", dist.__init__,
                             MEASURES["moments.EmpiricalDistribution"])


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class _Spans:
    """Index over a recorder's spans by name and by parent."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.by_name: dict[str, list[int]] = defaultdict(list)
        self.children: dict[int, list[int]] = defaultdict(list)
        self.row_of: dict[int, int] = {}
        for i in range(len(rec.ids)):
            self.by_name[rec.names[rec.name[i]]].append(i)
            self.children[rec.parent[i]].append(i)
            self.row_of[rec.ids[i]] = i

    def dur(self, i: int) -> float:
        return self.rec.end[i] - self.rec.start[i]

    def attr(self, i: int, key: str, default=0):
        return self.rec.attrs.get(self.rec.ids[i], {}).get(key, default)

    def name_of(self, i: int) -> str:
        return self.rec.names[self.rec.name[i]]

    def parent_name(self, i: int) -> str:
        row = self.row_of.get(self.rec.parent[i])
        return "" if row is None else self.name_of(row)

    def child_time(self, i: int, keep=lambda name: True) -> float:
        rows = [c for c in self.children[self.rec.ids[i]] if keep(self.name_of(c))]
        ivs = [(self.rec.start[c], self.rec.end[c]) for c in rows]
        return _covered(ivs, self.rec.start[i], self.rec.end[i])

    def per_unit(self, name: str, scale: float, where=lambda i: True, units=None) -> float:
        """Total span time per unit of work; 0 where the layer did not run."""
        rows = [i for i in self.by_name.get(name, ()) if where(i)]
        work = sum(units(i) if units else self.attr(i, "units") for i in rows)
        return scale * sum(self.dur(i) for i in rows) / work if work else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, total_units: int, out_bytes: list[int],
                  untraced_s: float, traced_s: float) -> dict[str, float]:
    """Every per-layer metric; a layer that did not run reports 0."""
    sp = _Spans(rec)
    m: dict[str, float] = {}
    us, ns = 1e6, 1e9

    mc = "skewdet.mc_stats"
    for n in (10, 14, 32):
        m[f"skewdet.mc.us_per_sample.n{n}"] = sp.per_unit(mc, us, lambda i, n=n: sp.attr(i, "n") == n)
    t1 = sp.per_unit(mc, us, lambda i: sp.attr(i, "threads") == 1)
    t2 = sp.per_unit(mc, us, lambda i: sp.attr(i, "threads") == 2)
    m["skewdet.mc.threads2_speedup"] = _ratio(t1, t2)
    m["skewdet.enum.us_per_matrix"] = sp.per_unit("skewdet.enumerate_stats", us)
    m["skewdet.search.us_per_eval"] = sp.per_unit("skewdet.search_high_det", us)
    for layer in ("det_exact", "to_rows"):
        name = f"skewdet.{layer}"
        m[f"{name}.us_per_call"] = sp.per_unit(name, us, units=lambda i: 1)
        m[f"{name}.calls"] = len(sp.by_name.get(name, ()))
    m["skewdet.matrices_built_per_unit"] = _ratio(m["skewdet.to_rows.calls"], total_units)

    m["symchar.partitions.us_per_partition"] = sp.per_unit("symchar.partitions", us)
    m["symchar.degree.us_per_partition"] = sp.per_unit("symchar.degree", us, units=lambda i: 1)
    m["symchar.degree.calls"] = len(sp.by_name.get("symchar.degree", ()))
    tables = sp.by_name.get("symchar.degree_table", [])
    m["symchar.table.self_us_per_partition"] = us * _ratio(
        sum(sp.dur(i) - sp.child_time(i) for i in tables),
        sum(sp.attr(i, "units") for i in tables))

    em = sp.by_name.get("zeta.zeta_abs_euler_maclaurin", [])
    m["zeta.em.us_per_node"] = sp.per_unit("zeta.zeta_abs_euler_maclaurin", us)
    m["zeta.em.nodes"] = sum(sp.attr(i, "units") for i in em)
    m["zeta.em.ns_per_term"] = sp.per_unit(
        "zeta.zeta_abs_euler_maclaurin", ns, units=lambda i: sp.attr(i, "units") * sp.attr(i, "terms"))
    # complex128 (nodes x N) outer product, the largest EM temporary
    m["zeta.em.outer_mb_max"] = max((16 * sp.attr(i, "units") * sp.attr(i, "terms") / 1e6
                                     for i in em), default=0.0)
    m["zeta.rs.us_per_node"] = sp.per_unit("zeta.zeta_abs_riemann_siegel", us)
    m["zeta.rs.nodes"] = sum(sp.attr(i, "units") for i in sp.by_name.get("zeta.zeta_abs_riemann_siegel", ()))
    grid = "zeta.zeta_abs_grid"
    m["zeta.grid.us_per_node"] = sp.per_unit(grid, us)
    m["zeta.grid.threads2_speedup"] = _ratio(
        sp.per_unit(grid, us, lambda i: sp.attr(i, "threads") == 1),
        sp.per_unit(grid, us, lambda i: sp.attr(i, "threads") == 2))
    tails = sp.by_name.get("zeta.tail_moment_report", [])
    m["zeta.tail.moments_share"] = _ratio(
        sum(sp.child_time(i, lambda name: name.startswith("moments.")) for i in tails),
        sum(sp.dur(i) for i in tails))

    m["moments.distribution.us_per_entry"] = sp.per_unit("moments.EmpiricalDistribution", us)
    load = "moments.load_distribution_csv"
    # the loader calls itself once with the opened file; count the outer call
    m["moments.load_csv.us_per_row"] = sp.per_unit(load, us, lambda i: sp.parent_name(i) != load)
    m["moments.verify.ns_per_entry_cutoff"] = sp.per_unit(
        "moments.verify_theorem", ns, units=lambda i: sp.attr(i, "units") * max(1, sp.attr(i, "cutoffs")))
    m["moments.moment.ns_per_entry"] = sp.per_unit("moments.moment", ns)
    m["moments.tail.ns_per_entry"] = sp.per_unit("moments.tail_second_moment", ns)
    m["moments.normalize.us_per_entry"] = sp.per_unit("moments.normalize", us)
    m["numutil.compensated_dot.ns_per_elem"] = sp.per_unit("numutil.compensated_dot", ns)

    roots = sp.by_name.get(ROOT, [])
    m["cli.self_ms_per_req"] = 1e3 * _ratio(
        sum(sp.dur(i) - sp.child_time(i, lambda name: not name.startswith("cli.")) for i in roots),
        len(roots))
    m["cli.out_kb_per_req"] = _ratio(sum(out_bytes) / 1024, len(out_bytes))
    repro = [i for i in roots if sp.attr(i, "kind", None) == "repro"]
    m["cli.repro_ms"] = 1e3 * _ratio(sum(sp.dur(i) for i in repro), len(repro))
    for mod in MODULES:
        m[f"{mod}.errors"] = rec.errors[mod]
    m["trace.overhead_ratio"] = _ratio(traced_s, untraced_s) - 1.0 if untraced_s else 0.0
    return m
