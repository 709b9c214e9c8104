"""The public surface: every exported name resolves, and names removed as
test-only or duplicate stay removed."""

import os
import subprocess
import sys
from pathlib import Path

import catmot
import catmot.catalog
import catmot.cli
import catmot.config
import catmot.polys
import catmot.quadrature
import catmot.report
import catmot.transform

REMOVED = {
    catmot: ("PhiEvaluator", "check_transform_consistency", "motzkin_integrand",
             # the benchmark's tracer reads these from catmot.quadrature
             "adaptive_gk", "integrate_semi_infinite",
             # the engines take rel_tol; the level cap is a constant
             "QuadConfig"),
    catmot.quadrature: ("QuadConfig", "_QuadConfigFields", "_MAX_DE_LEVEL"),
    catmot.transform: (
        "PhiEvaluator",
        "psi_difference",
        "check_transform_consistency",
        "POINTWISE_TOLERANCE",
        "VALUE_ONLY_TOLERANCE",
        "MotzkinIntegrand",
        "_sqrt_prod_weight",
        # a transform is a derived catalog entry that verify integrates
        "motzkin_integrand",
        "tanh_sinh",
        "integrate_semi_infinite",
        # cmd_transform prints the derived entry's verify row
        "integrate_transform",
        # check_lemma1 computes both sides, the exact reference and the
        # verdict, on tanh-sinh
        "_lemma1_holds",
        "lemma1_sides",
        "adaptive_gk",
        # transform_deviation refuses a sample count outside 1..100,000 itself
        "check_point_count",
        # the pointwise check samples the derived entry's own theta map
        "_sample_points",
    ),
    # g, its distance form and the domain come from the source catalog entry;
    # the n a transform takes is the derived Motzkin entry's
    catmot.transform.CatalanForm: ("g", "g_distance", "domain", "semi_infinite", "n_max"),
    catmot.polys: ("psi_difference_naive", "phi_ratio_coeffs", "psi_diff_float_coeffs",
                   # the exact Fraction references live in tests/exact_coeffs.py
                   "phi_diff_coeffs", "psi_diff_coeffs",
                   # mot.13b reads its kernel over 3^n
                   "psi_difference_over_square",
                   # every Motzkin kernel is read over 3^n, the transforms' too;
                   # the integer reference lives in tests/exact_coeffs.py
                   "phi_diff_over_square", "half_power_sum", "even_binomial_coeffs",
                   "_phi_diff_floats"),
    # the Chebyshev rule integrates the entry's own integrand, with the node
    # count that the entry's substitution degree gives
    catmot.catalog: (
        "_weights_13a", "ChebyshevHint", "_RepresentationFields", "_ceil_half_plus_one",
        "_HALF_PI",
        # check_request decides every (entry, n, rule)
        "_select_rule",
        # rows share the theta nodes of a (kind, N), not a map's node table
        "_node_table",
        # one limit per family bounds n under both rules
        "_FORCED_LIMIT", "_THETA_LIMIT",
        # exact_value reads its one table and refuses an n outside it
        "catalan", "motzkin",
    ),
    # every substitution covers the domain once as theta runs over (0, pi),
    # and states its map once, as the node tables that tabulate gives
    catmot.catalog.Substitution: ("half", "point", "jacobian"),
    # one integrand per entry; its endpoint tags say whether it takes x or
    # the endpoint distances
    catmot.catalog.Representation: ("distance_integrand", "exactness_hint",
                                    # the theta rule reads tabulated nodes
                                    "at_theta",
                                    # Gauss-Kronrod no longer runs under verify
                                    "split_points",
                                    # the forced rule reads an x-form integrand itself
                                    "at"),
    catmot.report.Report: ("from_json",),
    # n_max comes from the --n-max flag alone: no config file, no variable;
    # it is verify's one setting, an int that load_settings returns, and the
    # engines run at fixed settings
    catmot.config: ("parse_config_file", "_parse_value", "_FIELD_TYPES", "_env_overrides",
                    "Settings"),
    # transform owns its sample count, CHECK_POINTS
    catmot.cli: ("_settings_from_args", "_CHECK_POINTS"),
}


def test_exported_names_resolve():
    for module in (catmot, catmot.transform):
        assert len(set(module.__all__)) == len(module.__all__), module.__name__
        for name in module.__all__:
            assert hasattr(module, name), (module.__name__, name)


def test_removed_names_stay_removed():
    for owner, names in REMOVED.items():
        exported = set(getattr(owner, "__all__", ()))
        for name in names:
            assert not hasattr(owner, name), (owner.__name__, name)
            assert name not in exported, (owner.__name__, name)


def _loaded_submodules(statement: str) -> str:
    """The catmot submodules loaded after ``statement`` in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    code = f"import sys; {statement}; print(sorted(m for m in sys.modules if m.startswith('catmot.')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_submodule():
    # every public name is imported the first time it is read
    assert _loaded_submodules("import catmot") == "[]\n"


def test_report_import_loads_no_other_submodule():
    # the report reads rows; it needs the catalog's row type only for annotations
    assert _loaded_submodules("import catmot.report") == "['catmot.report']\n"
