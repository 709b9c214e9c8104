"""Command-line interface.

Subcommands:
    list       show the representation catalog
    verify     numerically check representations against exact values
    transform  check a generated Motzkin integrand against its catalog twin
    lemma1     check the half-range cosine/sine reflection identity
    table      print exact Catalan and Motzkin numbers

Exit codes: 0 all checks passed, 1 at least one verification failure or
non-convergence, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional

from . import __version__
from .catalog import (
    Family,
    Representation,
    VALID_RULE_OVERRIDES,
    get_representation,
    list_representations,
    verify,
)
from .config import Settings, load_settings
from .exact import catalan_numbers, motzkin, motzkin_numbers
from .report import Report
from .transform import (
    PAIRS,
    ComparisonMode,
    _lemma1_holds,
    get_form,
    integrate_transform,
    lemma1_sides,
    transform_deviation,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catmot",
        description="Catalan/Motzkin integral representation verifier",
    )
    parser.add_argument("--version", action="version", version=f"catmot {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="show the catalog")
    p_list.add_argument("--family", choices=["catalan", "motzkin"])
    p_list.add_argument("--format", choices=["table", "json"], default="table")

    p_verify = sub.add_parser("verify", help="verify representations")
    p_verify.add_argument("selector", help="representation id or 'all'")
    p_verify.add_argument("--n-range", default=None, metavar="LO..HI",
                          help="inclusive n range (default 0..20)")
    p_verify.add_argument("--tol", type=float, default=None,
                          help="pass tolerance (default: per singularity class)")
    p_verify.add_argument("--rule", choices=VALID_RULE_OVERRIDES, default=None,
                          help="force a quadrature rule")
    p_verify.add_argument("--format", choices=["csv", "json", "md"], default="csv")
    p_verify.add_argument("--out", default=None, help="write the report here instead of stdout")
    p_verify.add_argument("--jobs", type=int, default=1, help="parallel verification workers")
    cfg_group = p_verify.add_argument_group("configuration")
    cfg_group.add_argument("--config", metavar="PATH", help="key=value config file")
    cfg_group.add_argument("--n-max", type=int, dest="n_max", help="largest allowed n")
    cfg_group.add_argument("--rel-tol", type=float, dest="rel_tol", help="quadrature relative tolerance")
    cfg_group.add_argument("--abs-tol", type=float, dest="abs_tol", help="quadrature absolute floor")
    cfg_group.add_argument("--max-levels", type=int, dest="max_levels", help="tanh-sinh/exp-sinh level cap")
    cfg_group.add_argument("--max-subdivisions", type=int, dest="max_subdivisions", help="adaptive subdivision cap")

    p_tr = sub.add_parser("transform", help="check a transform against its catalog pairing")
    p_tr.add_argument("catalan_id", help="registered Catalan form id, e.g. cat.eq5")
    p_tr.add_argument("--n", type=int, default=5)
    p_tr.add_argument("--check-points", type=int, default=64, dest="check_points")

    p_lm = sub.add_parser("lemma1", help="check the half-range reflection identity")
    p_lm.add_argument("r", type=int)
    p_lm.add_argument("s", type=int)
    p_lm.add_argument("--a", type=float, default=1.0, help="period parameter (a > 0)")
    p_lm.add_argument("--tol", type=float, default=1e-10)

    p_tab = sub.add_parser("table", help="print exact Catalan and Motzkin numbers")
    p_tab.add_argument("n_max", type=int, nargs="?", default=20)

    return parser


def _settings_from_args(args: argparse.Namespace) -> Settings:
    flags = {
        name: getattr(args, name)
        for name in ("n_max", "rel_tol", "abs_tol", "max_levels", "max_subdivisions")
    }
    return load_settings(config_path=args.config, flag_overrides=flags)


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _domain_str(rep: Representation) -> str:
    lo, hi = rep.domain
    hi_s = "inf" if math.isinf(hi) else format(hi, "g")
    return f"({format(lo, 'g')}, {hi_s})"


def cmd_list(args: argparse.Namespace) -> int:
    family = Family(args.family) if args.family else None
    reps = list_representations(family)
    if args.format == "json":
        import json  # only this format needs it: not imported on every start-up
        payload = [
            {
                "id": rep.id,
                "family": rep.family.value,
                "n_min": rep.n_min,
                "domain": _domain_str(rep),
                "singularities": sorted(tag.value for tag in rep.singularities),
                "chebyshev_exact": rep.exactness_hint is not None,
                "statement": rep.statement,
            }
            for rep in reps
        ]
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return EXIT_OK
    for rep in reps:
        tags = ",".join(sorted(tag.value for tag in rep.singularities))
        sys.stdout.write(
            f"{rep.id:10s} {rep.family.value:8s} n>={rep.n_min}  "
            f"{_domain_str(rep):12s} [{tags}]\n"
            f"{'':10s} {rep.statement}\n"
        )
    return EXIT_OK


def _parse_n_range(raw: str) -> tuple[int, int]:
    text = raw.strip()
    if ".." in text:
        lo_s, _, hi_s = text.partition("..")
        lo, hi = int(lo_s), int(hi_s)
    else:
        lo = hi = int(text)
    if lo < 0 or hi < lo:
        raise ValueError(f"bad n range {raw!r}")
    return lo, hi


def cmd_verify(args: argparse.Namespace) -> int:
    settings = _settings_from_args(args)
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    explicit_range = args.n_range is not None
    lo, hi = _parse_n_range(args.n_range if explicit_range else "0..20")
    if hi > settings.n_max:
        raise ValueError(
            f"n range {lo}..{hi} exceeds configured n_max={settings.n_max}"
        )
    if args.selector == "all":
        reps = list_representations()
    else:
        reps = (get_representation(args.selector),)
        if explicit_range and lo < reps[0].n_min:
            raise ValueError(
                f"{reps[0].id} requires n >= {reps[0].n_min}; requested range starts at {lo}"
            )
    cfg = settings.quad_config()
    tasks = [
        (rep, n) for rep in reps for n in range(max(lo, rep.n_min), hi + 1)
    ]
    if args.jobs > 1:
        # imported here: concurrent.futures costs start-up time on every command
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(lambda t: verify(*t, cfg, args.tol, args.rule), tasks))
    else:
        rows = [verify(rep, n, cfg, args.tol, args.rule) for rep, n in tasks]
    echo = settings.echo()
    echo.update(
        {
            "selector": args.selector,
            "n_range": f"{lo}..{hi}",
            "tol": "class-default" if args.tol is None else str(args.tol),
            "rule": args.rule or "auto",
            "jobs": str(args.jobs),
            "format": args.format,
        }
    )
    report = Report(tool_version=__version__, config_echo=echo, rows=tuple(rows))
    _emit(report.render(args.format), args.out)
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


def cmd_transform(args: argparse.Namespace) -> int:
    form = get_form(args.catalan_id)
    flavor = "phi" if form.has_inverse_n_plus_1 else "simple"
    # past these n the kernel's float coefficients overflow: C(1030, 515) for simple
    n_max = 1037 if form.has_inverse_n_plus_1 else 1029
    if not 0 <= args.n <= n_max:
        raise ValueError(f"--n must be in 0..{n_max}, where the {flavor} kernel fits a float")
    if args.check_points < 1:
        raise ValueError("--check-points must be at least 1")
    pairing = PAIRS.get(args.catalan_id)
    # formatted whole before any of it is written: a failure leaves no partial output
    out = [f"catalan form : {args.catalan_id} ({flavor} transform)"]
    if pairing is None:
        value = integrate_transform(args.catalan_id, args.n)
        exact = float(motzkin(args.n))
        dev = abs(value - exact) / exact
        out.append(f"paired entry : none; comparing the integral against exact M({args.n})")
        out.append(f"integral     : {value!r}")
        out.append(f"exact        : {exact!r}")
        limit = ComparisonMode.VALUE_ONLY.tolerance
        out.append(f"rel deviation: {dev:.3e} (threshold {limit:g})")
    else:
        motzkin_id, mode = pairing
        dev = transform_deviation(args.catalan_id, motzkin_id, mode, args.n, args.check_points)
        limit = mode.tolerance
        what = (
            f"max deviation over {args.check_points} interior points"
            if mode is ComparisonMode.POINTWISE
            else "integral value deviation"
        )
        out.append(f"paired entry : {motzkin_id}")
        out.append(f"mode         : {mode.value}, n={args.n}")
        out.append(f"{what}: {dev:.3e} (threshold {limit:g})")
    print("\n".join(out))
    return EXIT_OK if dev <= limit else EXIT_CHECK_FAILED


def cmd_lemma1(args: argparse.Namespace) -> int:
    left, right = lemma1_sides(args.r, args.s, args.a)
    sign = 1 if args.r % 2 == 0 else -1
    ok = _lemma1_holds(args.r, left, right, args.tol)
    print(f"int over (0, a/2)   : {left!r}")
    print(f"int over (a/2, a)   : {right!r}")
    print(f"sign factor (-1)^r  : {sign:+d}")
    print(f"|left - sign*right| : {abs(left - sign * right):.3e} (tol {args.tol:g})")
    print("result              : " + ("OK" if ok else "MISMATCH"))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_table(args: argparse.Namespace) -> int:
    if args.n_max < 0:
        raise ValueError("n_max must be nonnegative")
    width = len(str(args.n_max))
    lines = [f"{'n':>{width}}  {'catalan':>24}  {'motzkin':>24}\n"]
    # the whole table is formatted before any of it is written, so a number
    # past the int-to-str digit limit leaves no partial table behind
    try:
        for n, c, m in zip(range(args.n_max + 1), catalan_numbers(), motzkin_numbers()):
            lines.append(f"{n:>{width}}  {c:>24}  {m:>24}\n")
    except ValueError:
        raise ValueError(
            f"C({n}) has more than {sys.get_int_max_str_digits()} digits, the limit "
            "for integer string conversion (PYTHONINTMAXSTRDIGITS raises it)"
        ) from None
    sys.stdout.write("".join(lines))
    return EXIT_OK


_COMMANDS = {
    "list": cmd_list,
    "verify": cmd_verify,
    "transform": cmd_transform,
    "lemma1": cmd_lemma1,
    "table": cmd_table,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, KeyError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"catmot {args.command}: error: {message}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, OverflowError) as exc:
        # str() of a float ** int overflow is the tuple (34, 'Numerical result ...')
        message = f"float overflow: {exc.args[-1]}" if isinstance(exc, OverflowError) else exc
        print(f"catmot {args.command}: error: {message}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
