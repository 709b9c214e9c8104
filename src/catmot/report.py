"""Verification report assembly and serialization (CSV, JSON, markdown).

Reports are deterministic: rows are kept sorted by (rep_id, n), exact
values are serialized as decimal strings so they never lose integer
precision, and floats are emitted with enough digits to round-trip.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import __version__

if TYPE_CHECKING:  # annotations only: rendering a report loads no catalog
    from .catalog import VerificationRow

_COLUMNS = ("rep_id", "n", "exact", "estimate", "rel_err", "evaluations", "rule", "pass")
CSV_HEADER = ",".join(_COLUMNS)


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _md_line(cells: tuple[str, ...]) -> str:
    return "| " + " | ".join(cells) + " |"


def _cells(r: VerificationRow) -> tuple[str, ...]:
    """One row's CSV and markdown cells, in _COLUMNS order."""
    return (r.rep_id, str(r.n), str(r.exact), _fmt(r.estimate), _fmt(r.rel_err),
            str(r.evaluations), r.rule, "true" if r.passed else "false")


class Report:
    def __init__(self, config_echo: dict[str, str], rows: tuple[VerificationRow, ...] = ()):
        self.config_echo = config_echo
        self.rows = tuple(sorted(rows, key=lambda r: (r.rep_id, r.n)))

    @property
    def summary(self) -> dict[str, int]:
        passed = sum(1 for r in self.rows if r.passed)
        non_converged = sum(1 for r in self.rows if not r.converged)
        return {
            "total": len(self.rows),
            "passed": passed,
            "failed": len(self.rows) - passed,
            "non_converged": non_converged,
        }

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)

    # -- CSV ---------------------------------------------------------------

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        lines.extend(",".join(_cells(r)) for r in self.rows)
        return "\n".join(lines) + "\n"

    # -- JSON --------------------------------------------------------------

    def to_json(self) -> str:
        import json  # only this format needs it: not imported on every start-up
        rows = [
            {
                "rep_id": r.rep_id,
                "n": r.n,
                "exact": str(r.exact),
                "estimate": r.estimate,
                "rel_err": r.rel_err,
                "evaluations": r.evaluations,
                "rule": r.rule,
                "pass": r.passed,
                "converged": r.converged,
            }
            for r in self.rows
        ]
        obj = {"tool_version": __version__, "config_echo": self.config_echo,
               "summary": self.summary, "rows": rows}
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"

    # -- markdown ----------------------------------------------------------

    def to_markdown(self) -> str:
        lines = [_md_line(_COLUMNS), _md_line(("---",) * len(_COLUMNS))]
        lines.extend(_md_line(_cells(r)) for r in self.rows)
        s = self.summary
        lines.append("")
        lines.append(
            f"{s['total']} rows: {s['passed']} passed, {s['failed']} failed, "
            f"{s['non_converged']} non-converged."
        )
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "csv":
            return self.to_csv()
        if fmt == "json":
            return self.to_json()
        if fmt == "md":
            return self.to_markdown()
        raise ValueError(f"unknown report format {fmt!r}")
