import json
import subprocess
import sys

import pytest

from modcat.cli import run
from modcat.fusion import FusionRing, pointed_cyclic_ring


def payload_of(argv):
    result = run(argv)
    assert result.status == 0, result.table
    return result.payload


# ------------------------------------------------------------- exit codes


def test_build_degenerate_exits_one_with_message():
    result = run(["cyclic", "build", "9", "3"])
    assert result.status == 1
    assert "degenerate form: gcd(k,n) = 3" in result.table


def test_even_modulus_exits_one():
    assert run(["cyclic", "build", "6", "1"]).status == 1


def test_unknown_command_exits_one():
    assert run(["cyclic", "frobnicate", "5"]).status == 1
    assert run(["nonsense"]).status == 1


def test_bad_integer_exits_one():
    assert run(["cyclic", "build", "five", "1"]).status == 1


def test_missing_subgroup_flag_exits_one():
    assert run(["cyclic", "condense", "9", "1"]).status == 1


def test_condense_precondition_violation_exits_one():
    result = run(["cyclic", "condense", "9", "1", "--subgroup", "0,3"])
    assert result.status == 1
    assert "closed under addition" in result.table


# ------------------------------------------------------------ cyclic verbs


def test_meta_count_json_is_byte_exact():
    result = run(["meta", "count", "15", "--format", "json"])
    assert result.status == 0
    assert result.table == '{"N":15,"count":8}'


def test_equiv_table_output():
    result = run(["cyclic", "equiv", "5", "1", "2"])
    assert result.status == 0
    assert "inequivalent" in result.table
    assert result.payload["equivalent"] is False
    assert result.payload["descriptor1"]["factors"] == [{"pp": 5, "sign": 1}]
    assert result.payload["descriptor2"]["factors"] == [{"pp": 5, "sign": -1}]


def test_build_payload_matches_schema():
    payload = payload_of(["cyclic", "build", "5", "1"])
    assert payload == {
        "n": 5,
        "k": 1,
        "twists": ["0/1", "1/5", "4/5", "4/5", "1/5"],
    }


def test_classify_payload():
    payload = payload_of(["cyclic", "classify", "15"])
    assert payload["count"] == 4
    assert [c["k"] for c in payload["classes"]] == [1, 2, 7, 11]


def test_autos_and_bosons_payloads():
    assert payload_of(["cyclic", "autos", "15", "1"])["autos"] == [1, 4, 11, 14]
    assert payload_of(["cyclic", "bosons", "9", "1"])["bosons"] == [0, 3, 6]


def test_decompose_payload():
    payload = payload_of(["cyclic", "decompose", "45", "1"])
    assert [(f["n"], f["k"]) for f in payload["factors"]] == [(9, 5), (5, 4)]


def test_condense_payload():
    payload = payload_of(["cyclic", "condense", "9", "1", "--subgroup", "0,3,6"])
    assert payload["lagrangian"] is True
    assert payload["quotient"]["n"] == 1


def test_double_payload():
    payload = payload_of(["cyclic", "double", "25", "1"])
    assert payload["quantum_double"] is True
    assert payload["lagrangian_subgroup"] == [0, 5, 10, 15, 20]
    payload = payload_of(["cyclic", "double", "15", "1"])
    assert payload["quantum_double"] is False
    assert payload["lagrangian_subgroup"] is None


# --------------------------------------------------------------- so2 verbs


def test_so2_fusion_payload_is_bare_ring_schema():
    payload = payload_of(["so2", "fusion", "5"])
    assert set(payload) == {"rank", "labels", "dual", "N"}
    assert payload["rank"] == 6


def test_so2_verify_passes():
    result = run(["so2", "verify", "9"])
    assert result.status == 0
    assert result.payload["passed"] is True


def test_so2_condense_payload():
    payload = payload_of(["so2", "condense", "5"])
    assert len(payload["D0"]) == 5 and len(payload["D1"]) == 1
    assert sorted(o["group_elem"] for o in payload["D0"]) == [0, 1, 2, 3, 4]
    assert payload["D1"][0]["group_elem"] is None


def test_meta_enumerate_payload():
    payload = payload_of(["meta", "enumerate", "9", "--format", "json"])
    assert payload["count"] == 4
    assert all(d["N"] == 9 for d in payload["descriptors"])
    assert {d["h3"] for d in payload["descriptors"]} == {0, 1}


# ------------------------------------------------------------- ring verify


def test_ring_verify_roundtrip(tmp_path):
    result = run(["so2", "fusion", "7", "--format", "json"])
    path = tmp_path / "so7.json"
    path.write_text(result.table)
    verify = run(["ring", "verify", "--file", str(path)])
    assert verify.status == 0
    assert verify.payload["passed"] is True


def test_ring_verify_broken_ring_exits_two(tmp_path):
    data = json.loads(run(["so2", "fusion", "5", "--format", "json"]).table)
    ring = FusionRing.from_json_dict(data)
    broken = ring.with_coefficient(4, 4, 4, 1)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(broken.to_json_dict()))
    result = run(["ring", "verify", "--file", str(path)])
    assert result.status == 2
    assert result.payload["passed"] is False
    failing = [c for c in result.payload["checks"] if not c["passed"]]
    assert failing and failing[0]["witness"] is not None


def test_ring_verify_bad_json_exits_one(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    assert run(["ring", "verify", "--file", str(path)]).status == 1


def test_ring_verify_missing_file_exits_one(tmp_path):
    assert run(["ring", "verify", "--file", str(tmp_path / "nope.json")]).status == 1


def test_ring_verify_wrong_schema_exits_one(tmp_path):
    path = tmp_path / "schema.json"
    path.write_text('{"rank": 2}')
    assert run(["ring", "verify", "--file", str(path)]).status == 1


# ----------------------------------------------------------- determinism


def test_json_output_is_byte_stable():
    for argv in (
        ["so2", "fusion", "9", "--format", "json"],
        ["cyclic", "classify", "45", "--format", "json"],
        ["meta", "enumerate", "15", "--format", "json"],
        ["so2", "condense", "7", "--format", "json"],
    ):
        first = run(argv)
        second = run(argv)
        assert first.table == second.table
        assert first.status == second.status == 0


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "modcat.cli", "meta", "count", "3", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == '{"N":3,"count":4}'


def test_cli_error_goes_to_stderr():
    proc = subprocess.run(
        [sys.executable, "-m", "modcat.cli", "cyclic", "build", "9", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "degenerate form" in proc.stderr


# ------------------------------------------------------- strict ring data


TRIVIAL_RING = {"rank": 1, "labels": ["1"], "dual": [0], "N": [[0, 0, 0, 1]]}
LOOSE_RINGS = {
    "bool-multiplicity": {"N": [[0, 0, 0, True]]},
    "float-multiplicity": {"N": [[0, 0, 0, 1.5]]},
    "duplicate-row": {"N": [[0, 0, 0, 2], [0, 0, 0, 1]]},
    "string-rank": {"rank": "1"},
    "string-labels": {"labels": "1"},
    "string-dual": {"dual": "0"},
    "float-index": {"N": [[0.0, 0, 0, 1]]},
    "rank-zero": {"rank": 0, "labels": [], "dual": [], "N": []},
}


@pytest.mark.parametrize("case", sorted(LOOSE_RINGS))
def test_ring_verify_rejects_loose_data(tmp_path, case):
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps({**TRIVIAL_RING, **LOOSE_RINGS[case]}))
    result = run(["ring", "verify", "--file", str(path)])
    assert result.status == 1
    assert "cannot load fusion ring" in result.table


# ------------------------------------------------------------- size limits


OVERSIZED = {
    "cyclic-build": ["cyclic", "build", "1000001", "1"],
    "cyclic-bosons": ["cyclic", "bosons", "1000003", "1"],
    "cyclic-condense": ["cyclic", "condense", "1000003", "1", "--subgroup", "0"],
    "cyclic-double": ["cyclic", "double", "1002001", "1"],
    "cyclic-decompose": ["cyclic", "decompose", "1000003", "1"],
    "so2-fusion": ["so2", "fusion", "295"],
    "so2-verify": ["so2", "verify", "295"],
    "so2-condense": ["so2", "condense", "301"],
}


@pytest.mark.parametrize("case", sorted(OVERSIZED))
def test_oversized_input_exits_one_naming_the_limit(case):
    result = run(OVERSIZED[case] + ["--format", "json"])
    assert result.status == 1
    limit = "MAX_N = 1000000" if case.startswith("cyclic") else "MAX_RANK = 150"
    assert limit in result.payload["error"]


def test_limits_admit_their_boundary():
    assert run(["so2", "fusion", "293"]).status == 0  # rank 150
    result = run(["cyclic", "build", "1000000", "1"])  # at MAX_N: refused as even
    assert result.status == 1 and "even modulus" in result.table


def test_ring_verify_refuses_rank_above_limit(tmp_path):
    path = tmp_path / "rank151.json"
    path.write_text(json.dumps(pointed_cyclic_ring(151).to_json_dict()))
    result = run(["ring", "verify", "--file", str(path)])
    assert result.status == 1
    assert "rank = 151 is above the limit MAX_RANK = 150" in result.table
