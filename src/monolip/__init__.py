"""Order-preserving Lipschitz extensions on finite metric posets.

``import monolip`` loads no submodule and no numpy: each name below, and
the submodules ``monolip.poset``, ``monolip.extension``, ..., are
imported on first use (PEP 562), so a call pays only for the modules it
runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "cones": (
        "ConeOrder",
        "MoreauSplit",
        "contains",
        "dominates",
        "dual_contains",
        "is_pointed",
        "monotone_direction",
        "moreau_split",
        "orthant",
        "project_cone",
        "scalar_cone",
        "trivial_cone",
    ),
    "extension": (
        "EstimateResult",
        "ExtensionProblem",
        "ExtensionResult",
        "componentwise_extend",
        "estimate_e",
        "feasibility_at_K",
        "min_lipschitz_lp",
        "scalar_extend",
        "scalar_modulus",
        "line_extend",
        "verify_extension",
    ),
    "obstruction": (
        "ObstructionCertificate",
        "build_test_map",
        "certify_obstruction",
        "e2_lower_bound",
    ),
    "poset": (
        "FiniteMetricPoset",
        "RadialityWitness",
        "chain_instance",
        "check_radiality",
        "grid_instance",
        "iter_radiality_witnesses",
        "poset_from_points",
        "validate",
    ),
    "spaces": (
        "BusemannValue",
        "HalfSpaceHn",
        "HilbertRay",
        "busemann_limit",
        "ray_order",
    ),
    "trees": ("RTree", "random_tree", "tripod"),
}
# submodules that resolve as attributes of the package
_SUBMODULES = frozenset(_EXPORTS) | {"errors"}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SUBMODULES | set(_ORIGIN))


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_ORIGIN[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
