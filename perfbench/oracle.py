"""Independent output oracle for the catmot command line tool.

The exact values come from formulas of this file alone, never from
``catmot.exact``:

* Catalan: C(n) = comb(2n, n) // (n + 1);
* Motzkin: (n + 2) M(n) = (2n + 1) M(n - 1) + 3 (n - 1) M(n - 2), M(0) = M(1) = 1.

``check`` parses one request's standard output, raises :class:`OracleError`
when the output is wrong or malformed, and otherwise returns how many result
rows the request attempted and how many passed.  A row is a verify row, a
table row, or one check (``transform``, ``lemma1``, ``list``).  A verify row
with ``pass=false`` is a correct answer from the program, so it counts as a
failed row, not as an oracle error.
"""

from __future__ import annotations

import csv
import io
import json
import math

# The catalog's 19 representations and the smallest n each accepts.
CATALOG = {
    "cat.eq2": 0, "cat.eq3": 0, "cat.eq4": 0, "cat.eq5": 0, "cat.eq6": 0,
    "cat.eq7": 0, "cat.eq8": 0, "cat.eq9": 0, "cat.eq10": 0,
    "cat.conc1": 0, "cat.conc2": 1,
    "mot.12a": 0, "mot.12b": 0, "mot.12c": 0, "mot.12d": 0, "mot.12e": 0,
    "mot.12f": 0, "mot.13a": 0, "mot.13b": 0,
}

# Catalan forms that `catmot transform` accepts.
TRANSFORM_FORMS = (
    "cat.eq2", "cat.eq3", "cat.eq4", "cat.eq5", "cat.eq6",
    "cat.eq7", "cat.eq8", "cat.eq9", "cat.eq10",
)


class OracleError(Exception):
    """The program printed a wrong or malformed answer."""


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def motzkin_table(n_max: int) -> list[int]:
    """M(0), ..., M(n_max) from the three-term recurrence."""
    table = [1, 1]
    for n in range(2, n_max + 1):
        num = (2 * n + 1) * table[n - 1] + 3 * (n - 1) * table[n - 2]
        value, rem = divmod(num, n + 2)
        if rem:
            raise ArithmeticError(f"Motzkin recurrence not integral at n={n}")
        table.append(value)
    return table[: n_max + 1]


def _option(argv: tuple[str, ...], flag: str, default: str | None = None) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else default


def _n_range(argv: tuple[str, ...]) -> tuple[int, int]:
    lo, _, hi = _option(argv, "--n-range", "0..20").partition("..")
    return int(lo), int(hi or lo)


def expected_verify_rows(argv: tuple[str, ...]) -> list[tuple[str, int]]:
    """(rep_id, n) pairs a ``verify`` request must report, in report order."""
    lo, hi = _n_range(argv)
    ids = CATALOG if argv[1] == "all" else {argv[1]: CATALOG[argv[1]]}
    return sorted(
        (rep_id, n) for rep_id, n_min in ids.items() for n in range(max(lo, n_min), hi + 1)
    )


def expected_rows(argv: tuple[str, ...]) -> int:
    """Rows a request attempts; used when it fails before printing them."""
    if argv[0] == "verify":
        return len(expected_verify_rows(argv))
    if argv[0] == "table":
        return int(argv[1]) + 1
    return 1


def parse_report(fmt: str, text: str) -> list[dict[str, str]]:
    """Rows of a verify report as dicts of strings, columns found by name."""
    if fmt == "csv":
        return list(csv.DictReader(io.StringIO(text)))
    if fmt == "json":
        rows = json.loads(text)["rows"]
        return [
            {k: (("true" if v else "false") if isinstance(v, bool) else str(v)) for k, v in r.items()}
            for r in rows
        ]
    if fmt == "md":
        table = [line for line in text.splitlines() if line.startswith("|")]
        cells = [[c.strip() for c in line.strip("|").split("|")] for line in table]
        header, body = cells[0], cells[2:]
        return [dict(zip(header, row)) for row in body]
    raise ValueError(f"unknown report format {fmt!r}")


def _check_verify(argv: tuple[str, ...], returncode: int, stdout: str) -> tuple[int, int]:
    fmt = _option(argv, "--format", "csv")
    rows = parse_report(fmt, stdout)
    got = [(r["rep_id"], int(r["n"])) for r in rows]
    want = expected_verify_rows(argv)
    if got != want:
        raise OracleError(f"{fmt} report has rows {got[:3]}... not {want[:3]}... ({len(got)} vs {len(want)})")
    motzkin = motzkin_table(max(n for _, n in want))
    passed = 0
    for r, (rep_id, n) in zip(rows, want):
        exact = catalan(n) if rep_id.startswith("cat.") else motzkin[n]
        if r["exact"] != str(exact):
            raise OracleError(f"{rep_id} n={n}: exact {r['exact']} != {exact}")
        if r["pass"] not in ("true", "false"):
            raise OracleError(f"{rep_id} n={n}: pass field {r['pass']!r}")
        passed += r["pass"] == "true"
    if returncode != (0 if passed == len(rows) else 1):
        raise OracleError(f"exit code {returncode} with {passed}/{len(rows)} rows passing")
    return len(rows), passed


def _check_table(argv: tuple[str, ...], returncode: int, stdout: str) -> tuple[int, int]:
    n_max = int(argv[1])
    lines = stdout.splitlines()
    if returncode != 0 or not lines or lines[0].split() != ["n", "catalan", "motzkin"]:
        raise OracleError(f"table exit {returncode}, header {lines[:1]}")
    motzkin = motzkin_table(n_max)
    body = lines[1:]
    if len(body) != n_max + 1:
        raise OracleError(f"table has {len(body)} rows, want {n_max + 1}")
    for n, line in enumerate(body):
        if line.split() != [str(n), str(catalan(n)), str(motzkin[n])]:
            raise OracleError(f"table row {n}: {line.strip()!r}")
    return len(body), len(body)


def _verdict(returncode: int, ok: bool, what: str) -> tuple[int, int]:
    if returncode != (0 if ok else 1):
        raise OracleError(f"{what}: exit code {returncode} contradicts the printed result")
    return 1, int(ok)


def _check_transform(argv: tuple[str, ...], returncode: int, stdout: str) -> tuple[int, int]:
    n = int(_option(argv, "--n", "5"))
    fields = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(":")
        if sep:
            fields[key.strip()] = value.strip()
    if "exact" in fields and float(fields["exact"]) != float(motzkin_table(n)[n]):
        raise OracleError(f"transform n={n}: exact {fields['exact']}")
    verdict = [v for v in fields.values() if "(threshold " in v]
    if len(verdict) != 1:
        raise OracleError(f"transform output has no deviation line: {stdout!r}")
    dev_s, _, limit_s = verdict[0].partition(" (threshold ")
    dev, limit = float(dev_s), float(limit_s.rstrip(")"))
    # the deviation is printed to 4 digits; do not judge a verdict it cannot resolve
    if abs(dev - limit) <= 1e-3 * limit:
        return 1, int(returncode == 0)
    return _verdict(returncode, dev <= limit, "transform")


def _check_lemma1(argv: tuple[str, ...], returncode: int, stdout: str) -> tuple[int, int]:
    result = stdout.splitlines()[-1].partition(":")[2].strip() if stdout else ""
    if result not in ("OK", "MISMATCH"):
        raise OracleError(f"lemma1 result line {result!r}")
    return _verdict(returncode, result == "OK", "lemma1")


def _check_list(argv: tuple[str, ...], returncode: int, stdout: str) -> tuple[int, int]:
    entries = {e["id"]: e["n_min"] for e in json.loads(stdout)}
    if entries != CATALOG:
        raise OracleError(f"list reports {sorted(entries)}")
    return _verdict(returncode, True, "list")


_CHECKERS = {
    "verify": _check_verify,
    "table": _check_table,
    "transform": _check_transform,
    "lemma1": _check_lemma1,
    "list": _check_list,
}


def check(argv: tuple[str, ...], returncode: int, stdout: str) -> tuple[int, int]:
    """(rows attempted, rows passed) of a request that exited with 0 or 1."""
    try:
        return _CHECKERS[argv[0]](argv, returncode, stdout)
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        raise OracleError(f"unreadable output: {exc!r}") from None
