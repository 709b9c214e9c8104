"""The public surface: every exported name resolves, and names removed as
test-only or duplicate stay removed."""

import catmot
import catmot.catalog
import catmot.polys
import catmot.report
import catmot.transform

REMOVED = {
    catmot: ("PhiEvaluator", "check_transform_consistency", "motzkin_integrand"),
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
    ),
    # g, its distance form and the domain come from the source catalog entry
    catmot.transform.CatalanForm: ("g", "g_distance", "domain", "semi_infinite"),
    catmot.polys: ("psi_difference_naive", "phi_ratio_coeffs", "psi_diff_float_coeffs"),
    catmot.catalog: ("_weights_13a",),
    catmot.report.Report: ("from_json",),
    # verify takes the rule; QuadConfig holds only engine tolerances
    catmot.QuadConfig: ("rule_override",),
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
