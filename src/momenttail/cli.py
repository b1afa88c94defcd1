"""Command-line entry point: `mtl <subcommand> ...`.

Each command handler returns its report, and main() writes every output
once, on stdout or --out: a dataclass or a dict is serialized and rendered
(JSON by default), and a str, the CSV of `symchar table`, is written as it is.
JSON is serialized with sorted keys and fixed formatting, so identical argv
produces byte-identical output; big integers are decimal strings.  Exit codes:
0 ok, 1 a violated exact inequality (TheoremViolationError, raised by the
module that owns the check: theorem check, zeta tail, the symchar degree
identities and bound, the skewdet bound in repro), 2 bad flags, malformed input
files or an unreadable or unwritable path.  --assert is still accepted where it
was and changes nothing: every exact check is enforced without it.

main() parses with one parser, built once per process, so in-process callers
pay argparse construction once; build_parser() still returns a fresh parser.
Its first call also sets the process's allocator policy (_keep_heap), never
at import.
"""

import argparse
import ctypes
import json
import math
import sys
from functools import cache

from . import moments, skewdet, symchar, zeta
from .moments import DistributionFormatError, TheoremViolationError
from .numutil import resolve_threads, to_json


def _flatten(prefix: str, obj, rows: list[tuple[str, str]]):
    if isinstance(obj, dict):
        for key in sorted(obj):
            _flatten(f"{prefix}.{key}" if prefix else str(key), obj[key], rows)
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            _flatten(f"{prefix}.{i}", item, rows)
    else:
        rows.append((prefix, "" if obj is None else str(obj)))


def _render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    rows: list[tuple[str, str]] = []
    _flatten("", payload, rows)
    if fmt == "csv":
        return "key,value\n" + "".join(f"{k},{v}\n" for k, v in rows)
    width = max(len(k) for k, _ in rows)
    return "".join(f"{k.ljust(width)}  {v}\n" for k, v in rows)


def _emit(report, args):
    """Write a str report as it is, and render any other in --format."""
    text = report if isinstance(report, str) else _render(to_json(report), args.fmt)
    if args.out_path:
        with open(args.out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_theorem_check(args):
    return moments.verify_theorem(moments.load_distribution_csv(args.input), args.b or [])


def _cmd_zeta_moments(args):
    return zeta.moment_integral(
        args.T,
        args.H,
        args.k,
        step=args.step,
        t_switch=args.t_switch,
        convergence_check=not args.no_convergence_check,
        threads=args.threads,
    )


def _cmd_zeta_tail(args):
    return zeta.tail_moment_report(
        args.T,
        args.H,
        c_threshold=args.c_threshold,
        step=args.step,
        t_switch=args.t_switch,
        threads=args.threads,
    )


def _cmd_skewdet_enum(args):
    stats = skewdet.enumerate_stats(args.n, args.convention)
    if stats.max_abs_det:
        return stats
    return {**to_json(stats), "note": "odd n with zero diagonal: every determinant is 0"}


def _cmd_skewdet_mc(args):
    return skewdet.mc_stats(
        args.n, args.samples, seed=args.seed, convention=args.convention,
        threads=args.threads,
    )


def _cmd_skewdet_search(args):
    return skewdet.search_high_det(
        args.n, args.budget, seed=args.seed, convention=args.convention
    )


def _symchar_report_payload(n: int, eps: float) -> dict:
    table = symchar.degree_table(n)
    bound = symchar.second_moment_degree_bound(n)
    asym = symchar.max_degree_asym_bound(n, eps)
    xi = symchar.xi_moments(n)
    max_deg = table.max_degree
    return {
        **to_json(table),
        "row_count": len(table.rows),
        "max_degree": str(max_deg),
        "eps": eps,
        "second_moment_bound": {**to_json(bound), "value": bound.value},
        "bound_satisfied": True,  # degree_table raises on a miss
        "asym_bound_log": asym.log,
        "asym_bound_value": asym.value,
        "max_degree_to_asym_ratio": (
            None if asym.log == -math.inf
            else math.exp(math.log(max_deg) - asym.log)
        ),
        "xi_moments": xi,
        "p_asym_to_exact_ratio": symchar.p_asym(n) / xi.p_n,
        "involutions_asym_to_exact_ratio": math.exp(
            symchar.involutions_asym(n).log - math.log(xi.t_n)
        ),
    }


def _cmd_symchar_report(args):
    return _symchar_report_payload(args.n, args.eps)


def _cmd_symchar_table(args):
    rows = symchar.degree_table(args.n).rows
    return "partition,degree\n" + "".join(f"{lam},{d}\n" for lam, d in rows)


def _cmd_repro(args):
    zeta_reports = [
        zeta.tail_moment_report(T, H, threads=args.threads)
        for T, H in ((500.0, 500.0), (1000.0, 1000.0))
    ]
    enum6 = skewdet.enumerate_stats(6)
    return {
        "zeta_tail": zeta_reports,
        "skew_determinants": {
            "enum_n6": enum6,
            "second_moment_bound_n6": skewdet.second_moment_det_bound(enum6),
            "bound_satisfied_n6": True,  # second_moment_det_bound raises on a miss
            "s1_asym_ratio_n6": enum6.s1 / skewdet.szekeres_s1_asym(6).value,
            "s2_asym_ratio_n6": enum6.s2 / skewdet.szekeres_s2_asym(6).value,
            "existence_bound_log_n6": skewdet.det_existence_bound(6).log,
            "mc_n10": skewdet.mc_stats(10, 20000, seed=args.seed, threads=args.threads),
            "search_n10": skewdet.search_high_det(10, budget=2000, seed=args.seed),
        },
        "character_degrees": _symchar_report_payload(25, 0.0),
        "seed": args.seed,
    }


_ASSERT_HELP = "accepted for compatibility: a violated exact check exits 1 with or without it"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtl",
        description="Moment-tail inequality toolkit: finite distributions, "
        "critical-line zeta moments, skew sign-matrix determinants, and "
        "symmetric-group character degrees.",
    )

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", dest="fmt", choices=("json", "csv", "human"), default="json",
        help="output format (default json)",
    )
    common.add_argument("--out", dest="out_path", default=None, help="write report to this path")
    common.add_argument(
        "--threads", type=int, default=None,
        help="worker count, at least 1; checked for every command, never affects "
        "results (every command runs on one thread)",
    )
    common.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")

    sub = parser.add_subparsers(dest="command", required=True)

    p_theorem = sub.add_parser("theorem", help="finite-distribution tail checks")
    t_sub = p_theorem.add_subparsers(dest="subcommand", required=True)
    p_check = t_sub.add_parser("check", parents=[common], help="verify the tail inequality on a CSV distribution")
    p_check.add_argument("--input", required=True, help="CSV file with `value,weight` header")
    p_check.add_argument("--b", action="append", type=float, help="tail cutoff; repeatable")
    p_check.add_argument("--assert", action="store_true", help=_ASSERT_HELP)
    p_check.set_defaults(func=_cmd_theorem_check)

    p_zeta = sub.add_parser("zeta", help="critical-line moment quadrature")
    z_sub = p_zeta.add_subparsers(dest="subcommand", required=True)
    for name, helptext in (("moments", "Simpson moment of |zeta|^k"),
                           ("tail", "large-value tail report over a window")):
        pz = z_sub.add_parser(name, parents=[common], help=helptext)
        pz.add_argument("--T", type=float, required=True)
        pz.add_argument("--H", type=float, required=True)
        pz.add_argument("--step", type=float, default=0.05)
        pz.add_argument("--t-switch", dest="t_switch", type=float, default=zeta.T_SWITCH,
                        help=f"|zeta| route switch (default {zeta.T_SWITCH:g}): Euler-Maclaurin "
                        "at t <= t_switch, Riemann-Siegel above")
        if name == "moments":
            pz.add_argument("--k", type=int, required=True, choices=(2, 4))
            pz.add_argument("--no-convergence-check", action="store_true")
            pz.set_defaults(func=_cmd_zeta_moments)
        else:
            pz.add_argument("--c-threshold", dest="c_threshold", type=float, default=None,
                            help="coefficient on log^{3/2} T (default 1/(4 pi^2))")
            pz.add_argument("--assert", action="store_true", help=_ASSERT_HELP)
            pz.set_defaults(func=_cmd_zeta_tail)

    p_skew = sub.add_parser("skewdet", help="skew sign-matrix determinant statistics")
    s_sub = p_skew.add_subparsers(dest="subcommand", required=True)
    for name, helptext, n_range in (
        ("enum", "exact enumeration", f"1..{skewdet.ENUM_LIMIT}"),
        ("mc", "Monte Carlo", f"1..{skewdet.N_LIMIT}"),
        ("search", "hill-climb witness search", f"2..{skewdet.N_LIMIT}"),
    ):
        ps = s_sub.add_parser(name, parents=[common], help=helptext)
        ps.add_argument("--n", type=int, required=True, help=f"matrix size, {n_range}")
        ps.add_argument("--convention", choices=("zero", "unit"), default="zero")
        if name == "mc":
            ps.add_argument("--samples", type=int, required=True)
            ps.set_defaults(func=_cmd_skewdet_mc)
        elif name == "search":
            ps.add_argument("--budget", type=int, required=True)
            ps.set_defaults(func=_cmd_skewdet_search)
        else:
            ps.set_defaults(func=_cmd_skewdet_enum)

    p_sym = sub.add_parser("symchar", help="symmetric-group character degrees")
    y_sub = p_sym.add_subparsers(dest="subcommand", required=True)
    p_rep = y_sub.add_parser("report", parents=[common], help="degree bounds and moment report")
    p_rep.add_argument("--n", type=int, required=True)
    p_rep.add_argument("--eps", type=float, default=0.0)
    p_rep.add_argument("--assert", action="store_true", help=_ASSERT_HELP)
    p_rep.set_defaults(func=_cmd_symchar_report)
    p_tab = y_sub.add_parser(
        "table", parents=[common],
        help="write the partition,degree CSV (--out names the file, else stdout)",
    )
    p_tab.add_argument("--n", type=int, required=True)
    p_tab.set_defaults(func=_cmd_symchar_table)

    p_repro = sub.add_parser("repro", parents=[common],
                             help="run all three case studies with pinned defaults")
    p_repro.set_defaults(func=_cmd_repro)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser main() shares across calls: parse_args keeps no state
    between calls, and help is formatted at the width current when asked."""
    return build_parser()


#: glibc <malloc.h> mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@cache
def _keep_heap() -> None:
    """Keep freed heap resident for the life of the process (glibc).

    Every Dirichlet block, Euler-Maclaurin chunk and tail report allocates
    and frees a few MB of numpy temporaries; by default glibc trims that
    memory back to the kernel after each chunk and the next chunk faults it
    in again.  These are the values glibc's own dynamic rule reaches after
    freeing one 32 MiB block: an mmap threshold at its 64-bit ceiling
    (DEFAULT_MMAP_THRESHOLD_MAX) and a trim threshold twice that.  Both are
    set, never the trim threshold alone: any explicit mallopt turns the
    dynamic mmap threshold off (mallopt(3)), which would send every array of
    128 KiB or more to mmap and munmap.  The cost is up to 64 MiB of freed
    heap kept until the process exits.  A C library without mallopt (macOS)
    is left as it is, and so is Windows, where CDLL(None) names no library;
    musl's mallopt does nothing.
    """
    if sys.platform == "win32":
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20) == 1:
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv: list[str] | None = None) -> int:
    _keep_heap()
    args = _parser().parse_args(argv)
    try:
        resolve_threads(args.threads)  # whether or not the command uses it
        _emit(args.func(args), args)
        return 0
    except DistributionFormatError as exc:
        print(f"error: malformed distribution CSV: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # missing, a directory, or not permitted
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TheoremViolationError as exc:
        print(f"error: exact inequality violated (bug): {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def cli():
    sys.exit(main())


if __name__ == "__main__":
    cli()
