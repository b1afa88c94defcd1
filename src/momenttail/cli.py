"""Command-line entry point: `mtl <subcommand> ...`.

Every command emits one report (JSON by default) on stdout or --out.  JSON is
serialized with sorted keys and fixed formatting, so identical argv produces
byte-identical output; big integers are decimal strings.  Exit codes: 0 ok,
1 failed --assert or violated exact inequality, 2 bad flags or malformed
input files.
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass

from . import moments, skewdet, symchar, zeta
from .moments import DistributionFormatError, TheoremViolationError
from .numutil import THREADS_ENV_VAR, resolve_threads, to_json


@dataclass(frozen=True)
class RunConfig:
    fmt: str
    out_path: str | None
    seed: int
    threads: int | None


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


def _emit(payload: dict, cfg: RunConfig):
    _write(_render(payload, cfg.fmt), cfg)


def _write(text: str, cfg: RunConfig):
    if cfg.out_path:
        with open(cfg.out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _zeta_cfg(args) -> zeta.ZetaEvalConfig:
    return zeta.ZetaEvalConfig(
        t_switch=args.t_switch, rs_correction_terms=args.rs_terms
    )


def _cmd_theorem_check(args, cfg: RunConfig) -> int:
    dist = moments.load_distribution_csv(args.input)
    report = moments.verify_theorem(dist, args.b or [])
    _emit(to_json(report), cfg)
    if args.enforce and not all(c.holds for c in report.checks):
        return 1
    return 0


def _cmd_zeta_moments(args, cfg: RunConfig) -> int:
    est = zeta.moment_integral(
        args.T,
        args.H,
        args.k,
        step=args.step,
        cfg=_zeta_cfg(args),
        convergence_check=not args.no_convergence_check,
        threads=cfg.threads,
    )
    _emit(to_json(est), cfg)
    return 0


def _cmd_zeta_tail(args, cfg: RunConfig) -> int:
    report = zeta.tail_moment_report(
        args.T,
        args.H,
        c_threshold=args.c_threshold,
        step=args.step,
        cfg=_zeta_cfg(args),
        threads=cfg.threads,
    )
    _emit(to_json(report), cfg)
    if args.enforce and not report.holds:
        return 1
    return 0


def _cmd_skewdet_enum(args, cfg: RunConfig) -> int:
    stats = skewdet.enumerate_stats(args.n, args.convention)
    payload = to_json(stats)
    if args.convention == "zero" and args.n % 2 == 1:
        payload["note"] = "odd n with zero diagonal: every determinant is 0"
    _emit(payload, cfg)
    return 0


def _cmd_skewdet_mc(args, cfg: RunConfig) -> int:
    stats = skewdet.mc_stats(
        args.n, args.samples, seed=args.seed, convention=args.convention,
        threads=cfg.threads,
    )
    _emit(to_json(stats), cfg)
    return 0


def _cmd_skewdet_search(args, cfg: RunConfig) -> int:
    result = skewdet.search_high_det(
        args.n, args.budget, seed=args.seed, convention=args.convention
    )
    _emit(to_json(result), cfg)
    return 0


def _symchar_report_payload(n: int, eps: float) -> dict:
    table = symchar.degree_table(n)
    bound = symchar.second_moment_degree_bound(n)
    asym = symchar.max_degree_asym_bound(n, eps)
    xi = symchar.xi_moments(n)
    max_deg = table.max_degree
    payload = to_json(table)
    payload.update(
        {
            "row_count": len(table.rows),
            "max_degree": str(max_deg),
            "eps": eps,
            "second_moment_bound": {**to_json(bound), "value": bound.value},
            "bound_satisfied": max_deg * bound.denominator >= bound.numerator,
            "asym_bound_log": asym.log,
            "asym_bound_value": asym.value,
            "max_degree_to_asym_ratio": (
                None if asym.log == -math.inf
                else math.exp(math.log(max_deg) - asym.log)
            ),
            "xi_moments": to_json(xi),
            "p_asym_to_exact_ratio": symchar.p_asym(n) / xi.p_n,
            "involutions_asym_to_exact_ratio": math.exp(
                symchar.involutions_asym(n).log - math.log(xi.t_n)
            ),
        }
    )
    return payload


def _cmd_symchar_report(args, cfg: RunConfig) -> int:
    payload = _symchar_report_payload(args.n, args.eps)
    _emit(payload, cfg)
    if args.enforce and not payload["bound_satisfied"]:
        return 1
    return 0


def _cmd_symchar_table(args, cfg: RunConfig) -> int:
    table = symchar.degree_table(args.n)
    lines = ["partition,degree\n"]
    lines += [f"{lam},{d}\n" for lam, d in table.rows]
    _write("".join(lines), cfg)
    return 0


def _cmd_repro(args, cfg: RunConfig) -> int:
    zeta_reports = [
        to_json(zeta.tail_moment_report(T, H, threads=cfg.threads))
        for T, H in ((500.0, 500.0), (1000.0, 1000.0))
    ]

    enum6 = skewdet.enumerate_stats(6)
    det_bound = skewdet.second_moment_det_bound(enum6)
    mc10 = skewdet.mc_stats(10, 20000, seed=cfg.seed, threads=cfg.threads)
    search10 = skewdet.search_high_det(10, budget=2000, seed=cfg.seed)
    skew_payload = {
        "enum_n6": to_json(enum6),
        "second_moment_bound_n6": det_bound,
        "bound_satisfied_n6": enum6.max_abs_det >= det_bound * (1 - 1e-6),
        "s1_asym_ratio_n6": enum6.s1 / skewdet.szekeres_s1_asym(6).value,
        "s2_asym_ratio_n6": enum6.s2 / skewdet.szekeres_s2_asym(6).value,
        "existence_bound_log_n6": skewdet.det_existence_bound(6).log,
        "mc_n10": to_json(mc10),
        "search_n10": to_json(search10),
    }

    payload = {
        "zeta_tail": zeta_reports,
        "skew_determinants": skew_payload,
        "character_degrees": _symchar_report_payload(25, 0.0),
        "seed": cfg.seed,
    }
    _emit(payload, cfg)
    return 0


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
        help=f"worker cap; mirrors ${THREADS_ENV_VAR}; never affects results",
    )
    common.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")

    sub = parser.add_subparsers(dest="command", required=True)

    p_theorem = sub.add_parser("theorem", help="finite-distribution tail checks")
    t_sub = p_theorem.add_subparsers(dest="subcommand", required=True)
    p_check = t_sub.add_parser("check", parents=[common], help="verify the tail inequality on a CSV distribution")
    p_check.add_argument("--input", required=True, help="CSV file with `value,weight` header")
    p_check.add_argument("--b", action="append", type=float, help="tail cutoff; repeatable")
    p_check.add_argument("--assert", dest="enforce", action="store_true",
                         help="exit 1 unless every check holds")
    p_check.set_defaults(func=_cmd_theorem_check)

    p_zeta = sub.add_parser("zeta", help="critical-line moment quadrature")
    z_sub = p_zeta.add_subparsers(dest="subcommand", required=True)
    for name, helptext in (("moments", "Simpson moment of |zeta|^k"),
                           ("tail", "large-value tail report over a window")):
        pz = z_sub.add_parser(name, parents=[common], help=helptext)
        pz.add_argument("--T", type=float, required=True)
        pz.add_argument("--H", type=float, required=True)
        pz.add_argument("--step", type=float, default=0.05)
        pz.add_argument("--t-switch", dest="t_switch", type=float, default=50.0)
        pz.add_argument("--rs-terms", dest="rs_terms", type=int, default=2,
                        choices=(0, 1, 2))
        if name == "moments":
            pz.add_argument("--k", type=int, required=True, choices=(2, 4))
            pz.add_argument("--no-convergence-check", action="store_true")
            pz.set_defaults(func=_cmd_zeta_moments)
        else:
            pz.add_argument("--c-threshold", dest="c_threshold", type=float, default=None,
                            help="coefficient on log^{3/2} T (default 1/(4 pi^2))")
            pz.add_argument("--assert", dest="enforce", action="store_true")
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
    p_rep.add_argument("--assert", dest="enforce", action="store_true")
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = RunConfig(
        fmt=args.fmt,
        out_path=args.out_path,
        seed=args.seed,
        threads=args.threads,
    )
    try:
        # rejects a bad --threads or $MTL_THREADS whether or not the command uses it
        resolve_threads(args.threads)
        return args.func(args, cfg)
    except DistributionFormatError as exc:
        print(f"error: malformed distribution CSV: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
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
