"""Exact-arithmetic toolkit for cyclic modular categories and metaplectic
(SO(N)_2) fusion rings: construction, verification, and classification.

Each layer is imported on first use (PEP 562): `from modcat import cyclic`
loads numthy and cyclic only, and `modcat.so_n2_fusion` loads fusion and
metaplectic.  Every public name is the layer's own object.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# The public names of each layer, in the order __all__ lists them.
_LAYERS = {
    "cyclic": (
        "ClassDescriptor",
        "CondensationOutcome",
        "CyclicCategory",
        "DegenerateFormError",
        "Phase",
        "UnsupportedModulusError",
        "are_equivalent",
        "bilinear",
        "braided_autos",
        "build_cyclic",
        "canonical_invariant",
        "classify",
        "condense_subgroup",
        "decompose",
        "find_bosons",
        "find_lagrangian_subgroup",
        "gauss_sum",
        "is_quantum_double",
        "smatrix",
        "verify_balancing",
        "verify_modular_relations",
    ),
    "fusion": (
        "FusionRing",
        "dihedral_fusion",
        "fp_dimensions",
        "global_dimension",
        "pointed_cyclic_ring",
        "subring_generated",
        "universal_grading",
        "verify_fusion_ring",
    ),
    "metaplectic": (
        "CondensedData",
        "MetaplecticDescriptor",
        "condense_z2",
        "count_metaplectic",
        "enumerate_metaplectic",
        "is_tambara_yamagami",
        "reconstruct_group",
        "so_n2_fusion",
    ),
    "numthy": ("factorize", "jacobi", "sqrt_mod_prime_power", "unit_square_orbits"),
}
_OWNER = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str) -> object:
    """A layer, or a public name from its layer, imported on first access and
    then kept in the package namespace."""
    if name in _LAYERS:
        value = _import_module(f"{__name__}.{name}")
    elif name in _OWNER:
        value = getattr(_import_module(f"{__name__}.{_OWNER[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAYERS, *__all__})
