"""The modcat package imports each layer on first use (PEP 562).

Each test runs in a fresh interpreter, since this process has already
loaded every layer.
"""

import json
import subprocess
import sys

from tests.test_cli import child_env

# The public names before the package became lazy, in their order there.
PUBLIC = [
    "ClassDescriptor",
    "CondensationOutcome",
    "CondensedData",
    "CyclicCategory",
    "DegenerateFormError",
    "FusionRing",
    "MetaplecticDescriptor",
    "Phase",
    "UnsupportedModulusError",
    "are_equivalent",
    "bilinear",
    "braided_autos",
    "build_cyclic",
    "canonical_invariant",
    "classify",
    "condense_subgroup",
    "condense_z2",
    "count_metaplectic",
    "decompose",
    "dihedral_fusion",
    "enumerate_metaplectic",
    "factorize",
    "find_bosons",
    "find_lagrangian_subgroup",
    "fp_dimensions",
    "gauss_sum",
    "global_dimension",
    "is_quantum_double",
    "is_tambara_yamagami",
    "jacobi",
    "pointed_cyclic_ring",
    "reconstruct_group",
    "smatrix",
    "so_n2_fusion",
    "sqrt_mod_prime_power",
    "subring_generated",
    "unit_square_orbits",
    "universal_grading",
    "verify_balancing",
    "verify_fusion_ring",
    "verify_modular_relations",
]
LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'modcat')"


def fresh(script: str, *flags: str):
    """The JSON a script prints as its last line, run in a fresh interpreter
    started with the given flags."""
    proc = subprocess.run(
        [sys.executable, *flags, "-c", "import json, sys\n" + script],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_layer():
    assert fresh(f"import modcat\nprint(json.dumps({LOADED}))") == ["modcat"]


def test_cyclic_import_loads_numthy_and_cyclic_only():
    loaded = fresh(f"from modcat import cyclic\nprint(json.dumps({LOADED}))")
    # modcat._value holds the value classes' base, not a layer.
    assert loaded == ["modcat", "modcat._value", "modcat.cyclic", "modcat.numthy"]


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    """Every modcat process imports modcat.cli.  Under -S no .pth file
    preloads anything, so what is in sys.modules is the package's doing."""
    heavy = ["dataclasses", "inspect", "typing"]
    script = f"import modcat.cli\nprint(json.dumps([m for m in {heavy} if m in sys.modules]))"
    assert fresh(script, "-S") == []


def test_importtime_logs_each_layer():
    """The layers load through the C import path, which `python -X
    importtime` logs: each layer gets its own line."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c",
         "import modcat; modcat.numthy; modcat.cyclic; modcat.fusion; modcat.metaplectic"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    logged = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()}
    assert {"modcat.numthy", "modcat.cyclic", "modcat.fusion", "modcat.metaplectic"} <= logged


def test_public_names_are_the_layers_own_objects():
    owners = fresh(
        """
import modcat
owners = {}
for name in modcat.__all__:
    value = getattr(modcat, name)
    layer = sys.modules[value.__module__]
    owners[name] = [layer.__name__, getattr(layer, name) is value, vars(modcat)[name] is value]
print(json.dumps(owners))
"""
    )
    assert sorted(owners) == PUBLIC
    layers = {f"modcat.{layer}" for layer in ("cyclic", "fusion", "metaplectic", "numthy")}
    for name, (layer, own, kept) in owners.items():
        assert layer in layers and own and kept, name


def test_all_is_unchanged():
    assert fresh("import modcat\nprint(json.dumps(modcat.__all__))") == PUBLIC


def test_dir_covers_all_and_the_layers():
    listed = fresh("import modcat\nprint(json.dumps(dir(modcat)))")
    assert set(PUBLIC + ["cyclic", "fusion", "metaplectic", "numthy"]) <= set(listed)
    assert listed == sorted(listed)


def test_layers_resolve_as_attributes():
    same = fresh(
        """
import modcat
import importlib
print(json.dumps([getattr(modcat, layer) is importlib.import_module(f"modcat.{layer}")
                  for layer in ("cyclic", "fusion", "metaplectic", "numthy")]))
"""
    )
    assert same == [True] * 4


def test_unknown_name_raises_attribute_error():
    outcome = fresh(
        f"""
import modcat
try:
    modcat.no_such_name
except AttributeError as exc:
    print(json.dumps([str(exc), {LOADED}, hasattr(modcat, "cli")]))
"""
    )
    assert outcome == ["module 'modcat' has no attribute 'no_such_name'", ["modcat"], False]
