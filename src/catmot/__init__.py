"""catmot: exact Catalan and Motzkin numbers, a catalog of their integral
representations, generic Catalan-to-Motzkin transforms, and the quadrature
machinery to verify every representation against the exact values.
"""

__version__ = "0.1.0"

# each public name's submodule, imported the first time the name is read
# (PEP 562), so `import catmot` alone loads none of them
_SUBMODULE = {
    "CatalanForm": "transform",
    "ComparisonMode": "transform",
    "Family": "catalog",
    "QuadConfig": "quadrature",
    "QuadratureResult": "quadrature",
    "Representation": "catalog",
    "Singularity": "catalog",
    "Substitution": "catalog",
    "VerificationRow": "catalog",
    "catalan": "exact",
    "check_lemma1": "transform",
    "get_representation": "catalog",
    "list_representations": "catalog",
    "motzkin": "exact",
    "motzkin_oracle": "exact",
    "motzkin_representation": "transform",
    "psi_difference": "polys",
    "tanh_sinh": "quadrature",
    "verify": "catalog",
}

__all__ = sorted(["__version__", *_SUBMODULE])


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value
    return value
