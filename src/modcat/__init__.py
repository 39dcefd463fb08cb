"""Exact-arithmetic toolkit for cyclic modular categories and metaplectic
(SO(N)_2) fusion rings: construction, verification, and classification.

Each layer is imported on first use (PEP 562): `from modcat import cyclic`
loads numthy and cyclic only, and `modcat.so_n2_fusion` loads fusion and
metaplectic.  Every public name is the layer's own object.
"""

import sys as _sys

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
    layer = name if name in _LAYERS else _OWNER.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ takes the C import path, which `python -X importtime` logs;
    # importlib.import_module's pure-Python path is not logged.
    __import__(f"{__name__}.{layer}")
    module = _sys.modules[f"{__name__}.{layer}"]
    value = module if name == layer else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAYERS, *__all__})
