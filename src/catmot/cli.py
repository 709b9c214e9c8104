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
from typing import TYPE_CHECKING, Optional

from . import __version__

if TYPE_CHECKING:
    from .catalog import Representation
    from .config import Settings

# catalog.VALID_RULE_OVERRIDES, spelled out so that building the parser does
# not import the catalog: each command imports only the modules it calls.
# Besides the theta rule, tanh-sinh is the one forced cross-check
_RULES = ("chebyshev", "tanh-sinh")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # one stderr line, as every refusal, without the usage
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p_verify.add_argument("--rule", choices=_RULES, default=None,
                          help="force a quadrature rule")
    p_verify.add_argument("--format", choices=["csv", "json", "md"], default="csv")
    p_verify.add_argument("--out", default=None, help="write the report here instead of stdout")
    p_verify.add_argument("--jobs", type=int, default=1,
                          help="echoed into the report; rows run on the calling thread")
    cfg_group = p_verify.add_argument_group("configuration")
    cfg_group.add_argument("--config", metavar="PATH", help="key=value config file")
    cfg_group.add_argument("--n-max", type=int, dest="n_max", help="largest allowed n")
    cfg_group.add_argument("--rel-tol", type=float, dest="rel_tol", help="quadrature relative tolerance")
    cfg_group.add_argument("--max-levels", type=int, dest="max_levels", help="tanh-sinh level cap (3..16)")

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
    from .config import Settings, load_settings

    flags = {name: getattr(args, name) for name in Settings._fields}
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
    from .catalog import Family, list_representations

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
                "chebyshev_exact": True,  # every entry states its substitution in theta
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
    lo_s, sep, hi_s = raw.strip().partition("..")
    try:
        lo = int(lo_s)
        hi = int(hi_s) if sep else lo
        if 0 <= lo <= hi:
            return lo, hi
    except ValueError:
        pass
    raise ValueError(f"bad n range {raw!r}")


def cmd_verify(args: argparse.Namespace) -> int:
    from .catalog import check_request, get_representation, list_representations, verify
    from .report import Report

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
        if explicit_range:  # not clamped to the entry's n_min, unlike the default range
            check_request(reps[0], lo, args.rule)
    # a forced rule or an n an entry cannot take is refused before any row runs;
    # an entry with no rows in the range (n_min > hi) is checked at its n_min
    for rep in reps:
        check_request(rep, max(hi, rep.n_min), args.rule)
    cfg = settings.quad_config()
    # every row runs on this thread, whatever --jobs says: under the GIL a
    # thread pool only adds contention, and a process pool measured slower
    # (see the README on --jobs).  Rows run n by n to share theta nodes
    rows = [
        verify(rep, n, cfg, args.tol, args.rule)
        for n in range(lo, hi + 1)
        for rep in reps
        if n >= rep.n_min
    ]
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
    from .catalog import verify
    from .transform import PAIRS, ComparisonMode, get_form, motzkin_representation, transform_deviation

    form = get_form(args.catalan_id)
    flavor = "phi" if form.has_inverse_n_plus_1 else "simple"
    if not 1 <= args.check_points <= 100_000:  # 10**5 points take 2 s at n = 645
        raise ValueError(f"--check-points must be at least 1 and at most 100000, got {args.check_points}")
    pairing = PAIRS.get(args.catalan_id)
    # formatted whole before any of it is written: a failure leaves no partial output
    out = [f"catalan form : {args.catalan_id} ({flavor} transform)"]
    if pairing is None:
        row = verify(motzkin_representation(form), args.n)
        dev = row.rel_err
        out.append(f"paired entry : none; comparing the integral against exact M({args.n})")
        out.append(f"integral     : {row.estimate!r}")
        out.append(f"exact        : {float(row.exact)!r}")
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
    from .transform import check_lemma1

    check = check_lemma1(args.r, args.s, args.a, args.tol)
    left, right = check.left.value, check.right.value
    sign = 1 if args.r % 2 == 0 else -1
    print(f"int over (0, a/2)   : {left!r}")
    print(f"int over (a/2, a)   : {right!r}")
    print(f"sign factor (-1)^r  : {sign:+d}")
    print(f"|left - sign*right| : {abs(left - sign * right):.3e} (tol {args.tol:g})")
    for span, side, exact, err in zip(("(0, a/2)", "(a/2, a)"), (check.left, check.right),
                                      (check.exact, sign * check.exact), check.rel_errors):
        print(f"exact over {span} : {exact!r}")
        print(f"rel err {span}    : {err:.3e} ({'' if side.converged else 'not '}converged)")
    print("result              : " + ("OK" if check else "MISMATCH"))
    return EXIT_OK if check else EXIT_CHECK_FAILED


def cmd_table(args: argparse.Namespace) -> int:
    from .exact import catalan_numbers, motzkin_numbers

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
    except (ValueError, KeyError, OSError) as exc:
        # str() of a KeyError quotes its message
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"catmot {args.command}: error: {message}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
