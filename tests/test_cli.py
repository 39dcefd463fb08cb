import hashlib
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import modcat
from modcat.cli import MAX_FACTOR_N, MAX_JOIN, MAX_N, MAX_RANK, run
from modcat.cyclic import are_equivalent
from modcat.fusion import FusionRing, dihedral_fusion, join_cost, pointed_cyclic_ring
from modcat.metaplectic import so_n2_fusion


def child_env() -> dict[str, str]:
    """The environment for a child interpreter, with modcat's source root on
    PYTHONPATH: pytest's `pythonpath` setting reaches only this process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(modcat.__file__)))
    inherited = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, inherited]))}


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
    assert run(["cyclic", "build", "4", "1"]).status == 1


def test_unknown_command_exits_one():
    assert run(["cyclic", "frobnicate", "5"]).status == 1
    assert run(["nonsense"]).status == 1


def test_bad_integer_exits_one():
    result = run(["cyclic", "build", "five", "1"])
    assert result.status == 1
    assert result.table == "error: argument n: invalid int value: 'five'"


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


def test_equiv_verdict_matches_are_equivalent():
    for n in range(-3, 60, 2):
        for k1, k2 in ((1, 2), (2, 7), (3, 3), (-1, n + 2), (5, 10**20 + 1)):
            result = run(["cyclic", "equiv", str(n), str(k1), str(k2)])
            try:
                expected = are_equivalent(n, k1, k2)
            except ValueError as exc:
                assert result.status == 1 and result.payload == {"error": str(exc)}
            else:
                assert result.payload["equivalent"] is expected


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
    result = run(["cyclic", "condense", "45", "1", "--subgroup", "0,15,30", "--format", "json"])
    assert result.status == 0
    assert result.table == (
        '{"generator":3,"k":1,"lagrangian":false,"n":45,"perp_order":15,'
        '"quotient":{"k":1,"n":5,"twists":["0/1","1/5","4/5","4/5","1/5"]},"subgroup":[0,15,30]}'
    )


def test_double_payload():
    payload = payload_of(["cyclic", "double", "25", "1"])
    assert payload["quantum_double"] is True
    assert payload["lagrangian_subgroup"] == [0, 5, 10, 15, 20]
    payload = payload_of(["cyclic", "double", "15", "1"])
    assert payload["quantum_double"] is False
    assert payload["lagrangian_subgroup"] is None
    result = run(["cyclic", "double", "49", "1", "--format", "json"])
    assert result.status == 0
    assert result.table == (
        '{"k":1,"lagrangian_subgroup":[0,7,14,21,28,35,42],"n":49,"quantum_double":true}'
    )


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


PASSED_REPORT = (
    '{"checks":[{"name":"unit","passed":true,"witness":null},'
    '{"name":"dual","passed":true,"witness":null},'
    '{"name":"commutativity","passed":true,"witness":null},'
    '{"name":"associativity","passed":true,"witness":null}],"passed":true}'
)


def test_ring_verify_roundtrip(tmp_path):
    result = run(["so2", "fusion", "7", "--format", "json"])
    path = tmp_path / "so7.json"
    path.write_text(result.table)
    verify = run(["ring", "verify", "--file", str(path)])
    assert verify.status == 0
    assert verify.payload["passed"] is True
    path.write_text(run(["so2", "fusion", "15", "--format", "json"]).table)
    verify = run(["ring", "verify", "--file", str(path), "--format", "json"])
    assert verify.status == 0
    assert verify.table == PASSED_REPORT


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
    # A rank-3 ring that fails only the dual check, and a rank-2 ring with
    # a (x) 1 = 2a, which fails all four.
    for text, report in (
        (
            '{"rank":3,"labels":["1","a","b"],"dual":[0,2,1],"N":[[0,0,0,1],[0,1,1,1],'
            "[0,2,2,1],[1,0,1,1],[1,1,2,1],[1,2,0,1],[1,2,1,1],[2,0,2,1],[2,1,0,1],"
            "[2,1,1,1],[2,2,1,1],[2,2,2,1]]}",
            '{"checks":[{"name":"unit","passed":true,"witness":null},'
            '{"name":"dual","passed":false,"witness":[1,1,1]},'
            '{"name":"commutativity","passed":true,"witness":null},'
            '{"name":"associativity","passed":true,"witness":null}],"passed":false}',
        ),
        (
            '{"rank":2,"labels":["1","a"],"dual":[0,1],'
            '"N":[[0,0,0,1],[0,1,1,1],[1,0,1,2],[1,1,0,1]]}',
            '{"checks":[{"name":"unit","passed":false,"witness":[1,0,1]},'
            '{"name":"dual","passed":false,"witness":[1,0,1]},'
            '{"name":"commutativity","passed":false,"witness":[0,1,1]},'
            '{"name":"associativity","passed":false,"witness":[1,0,0,1]}],"passed":false}',
        ),
    ):
        path.write_text(text)
        result = run(["ring", "verify", "--file", str(path), "--format", "json"])
        assert result.status == 2
        assert result.table == report


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


def test_ring_verify_deeply_nested_json_exits_one(tmp_path):
    depth = 100_000
    deep_key = json.dumps(pointed_cyclic_ring(3).to_json_dict())[:-1]
    deep_key += ', "extra": ' + "[" * depth + "]" * depth + "}"
    for name, text in (("brackets", "[" * depth), ("deep-key", deep_key)):
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        result = run(["ring", "verify", "--file", str(path)])
        assert result.status == 1
        assert "cannot load fusion ring" in result.payload["error"]


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
        env=child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == '{"N":3,"count":4}'


def test_cli_error_goes_to_stderr():
    proc = subprocess.run(
        [sys.executable, "-m", "modcat.cli", "cyclic", "build", "9", "3"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "degenerate form" in proc.stderr


def test_json_build_at_max_n_peaks_below_180_mb(tmp_path):
    """`cyclic build 999999 2 --format json` renders only its JSON, so the
    whole process peaks at about 120 MB; building the unused 31 MB table
    too took it to 230 MB.  The child reads VmHWM from its own status
    file: ru_maxrss would start from the parent's high-water mark.  It
    writes the JSON to a file and counts the twists there after reading
    its peak."""
    if not os.path.exists("/proc/self/status"):
        pytest.skip("no /proc/self/status to read VmHWM from")
    script = """
import json, sys
from modcat import cli
path = sys.argv[1]
sys.argv = ["modcat", "cyclic", "build", "999999", "2", "--format", "json"]
sys.stdout = open(path, "w")
try:
    cli.main()
except SystemExit as exc:
    status = exc.code
with open("/proc/self/status") as fh:
    peak_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
sys.stdout.close()
with open(path) as fh:
    twists = len(json.load(fh)["twists"])
print(status, peak_kb, twists, file=sys.__stdout__)
"""
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "build.json")],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    status, peak_kb, twists = map(int, proc.stdout.split())
    assert status == 0
    assert peak_kb / 1024 < 180
    assert twists == 999_999


def statuses_and_peak_mb(commands: list[list[str]]) -> tuple[list[int], float]:
    """Run each argv through cli.run in one child interpreter, which reads
    VmHWM from its own status file: the exit statuses and the peak in MB.
    Skips the test where there is no /proc/self/status."""
    if not os.path.exists("/proc/self/status"):
        pytest.skip("no /proc/self/status to read VmHWM from")
    script = """
import json, sys
from modcat.cli import run
print(*[run(argv).status for argv in json.loads(sys.argv[1])])
with open("/proc/self/status") as fh:
    print(next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands)],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    statuses, peak_kb = proc.stdout.splitlines()
    return list(map(int, statuses.split())), int(peak_kb) / 1024


def test_so2_rows_at_their_limits_peak_below_150_mb():
    """The so2 limits rows at N = 493 (rank 250, MAX_RANK) in both formats,
    and `meta enumerate` at a product of ten primes, run through cli.run
    in one child: about 45 MB and 0.8 s, so a regression to several
    hundred MB fails."""
    commands = [["so2", c, "493", "--format", f] for c in ("fusion", "verify", "condense")
                for f in ("json", "table")]
    statuses, peak_mb = statuses_and_peak_mb(commands + [["meta", "enumerate", "100280245065"]])
    assert statuses == [0] * 7
    assert peak_mb <= 150


def test_cyclic_rows_and_ring_file_at_their_limits_peak_below_120_mb(tmp_path):
    """The cyclic limits rows that hold n twists, `bosons`, `condense` by
    H = 0,999,...,997002 and `double` at 998001 and `decompose` at 999999,
    and `ring verify --file` with SO(243)_2, the largest SO(N)_2 file under
    MAX_JOIN, run through cli.run with --format json in one child: about
    55 MB and 0.4 s, so a regression to O(n^2) memory fails."""
    path = tmp_path / "so243.json"
    path.write_text(json.dumps(so_n2_fusion(243).to_json_dict()))
    subgroup = ",".join(str(999 * i) for i in range(999))
    commands = [
        ["cyclic", "bosons", "998001", "1"],
        ["cyclic", "condense", "998001", "1", "--subgroup", subgroup],
        ["cyclic", "double", "998001", "1"],
        ["cyclic", "decompose", "999999", "2"],
        ["ring", "verify", "--file", str(path)],
    ]
    statuses, peak_mb = statuses_and_peak_mb([argv + ["--format", "json"] for argv in commands])
    assert statuses == [0] * len(commands)
    assert peak_mb <= 120


def test_closed_pipe_exits_quietly():
    """`modcat cyclic build 99999 1 | head -c 100`: the 2.8 MB table
    overflows the pipe buffer, the reader leaves, and the command still
    exits with its own status and an empty stderr."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "modcat.cli", "cyclic", "build", "99999", "1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0
    assert stderr == b""


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


SHORT_ROW = "N rows must be integer [i, j, k, multiplicity]"
MALFORMED_RINGS = {
    "top-level-array": ([TRIVIAL_RING], "ring data must be a JSON object"),
    "top-level-number": (3, "ring data must be a JSON object"),
    "no-N": ({k: v for k, v in TRIVIAL_RING.items() if k != "N"}, "missing key 'N'"),
    "no-rank": ({k: v for k, v in TRIVIAL_RING.items() if k != "rank"}, "missing key 'rank'"),
    "short-row": ({**TRIVIAL_RING, "N": [[0, 0, 0]]}, SHORT_ROW),
    "long-row": ({**TRIVIAL_RING, "N": [[0, 0, 0, 1, 1]]}, SHORT_ROW),
    "scalar-row": ({**TRIVIAL_RING, "N": [1]}, SHORT_ROW),
    "scalar-N": ({**TRIVIAL_RING, "N": 1}, SHORT_ROW),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_RINGS))
def test_ring_verify_names_what_is_malformed(tmp_path, case):
    data, message = MALFORMED_RINGS[case]
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(data))
    result = run(["ring", "verify", "--file", str(path), "--format", "json"])
    assert result.status == 1
    assert result.payload == {"error": f"cannot load fusion ring from {path}: {message}"}


# ------------------------------------------------------------- size limits


ABOVE_FACTOR_N = str(MAX_FACTOR_N + 1)
OVERSIZED = {  # case: (argv, the limit named in the refusal)
    "cyclic-build": (["cyclic", "build", "1000001", "1"], "MAX_N = 1000000"),
    "cyclic-bosons": (["cyclic", "bosons", "1000003", "1"], "MAX_N = 1000000"),
    "cyclic-condense": (
        ["cyclic", "condense", "1000003", "1", "--subgroup", "0"],
        "MAX_N = 1000000",
    ),
    "cyclic-double": (["cyclic", "double", "1002001", "1"], "MAX_N = 1000000"),
    "cyclic-decompose": (["cyclic", "decompose", "1000003", "1"], "MAX_N = 1000000"),
    "cyclic-classify": (["cyclic", "classify", ABOVE_FACTOR_N], "MAX_FACTOR_N"),
    "cyclic-equiv": (["cyclic", "equiv", ABOVE_FACTOR_N, "1", "2"], "MAX_FACTOR_N"),
    "cyclic-autos": (
        ["cyclic", "autos", str((10**9 + 7) * (10**9 + 9)), "1"],
        "MAX_FACTOR_N",
    ),
    "meta-count": (["meta", "count", ABOVE_FACTOR_N], "MAX_FACTOR_N"),
    "meta-enumerate": (["meta", "enumerate", ABOVE_FACTOR_N], "MAX_FACTOR_N"),
    "so2-fusion": (["so2", "fusion", "495"], "MAX_RANK = 250"),
    "so2-verify": (["so2", "verify", "495"], "MAX_RANK = 250"),
    "so2-condense": (["so2", "condense", "501"], "MAX_RANK = 250"),
}


@pytest.mark.parametrize("case", sorted(OVERSIZED))
def test_oversized_input_exits_one_naming_the_limit(case):
    argv, limit = OVERSIZED[case]
    result = run(argv + ["--format", "json"])
    assert result.status == 1
    assert limit in result.payload["error"]


def test_limits_admit_their_boundary():
    assert run(["so2", "fusion", "493"]).status == 0  # rank 250
    result = run(["cyclic", "build", "1000000", "1"])  # at MAX_N: refused as even
    assert result.status == 1 and "even modulus" in result.table
    result = run(["meta", "count", str(MAX_FACTOR_N)])  # refused as even
    assert result.status == 1 and "need odd N" in result.table
    prime = 999_999_999_989  # the largest prime below MAX_FACTOR_N
    assert run(["cyclic", "autos", str(prime), "1"]).payload["autos"] == [1, prime - 1]


def test_ring_verify_refuses_join_cost_above_limit(tmp_path):
    # A pointed Z_n ring costs 3 n^3: n = 149 is admitted, n = 150 is not.
    for n, status in ((149, 0), (150, 1)):
        path = tmp_path / f"pointed{n}.json"
        path.write_text(json.dumps(pointed_cyclic_ring(n).to_json_dict()))
        result = run(["ring", "verify", "--file", str(path)])
        assert result.status == status
    assert f"join cost = {3 * 150**3} is above the limit MAX_JOIN = {MAX_JOIN}" in result.table


def _all_ones(rank: int) -> dict:
    return {
        "rank": rank,
        "labels": [str(i) for i in range(rank)],
        "dual": list(range(rank)),
        "N": [[i, j, k, 1] for i in range(rank) for j in range(rank) for k in range(rank)],
    }


def test_dense_ring_file_is_refused_quickly(tmp_path):
    # All-ones rules: no product peels, so every row is scanned.  Rank 48
    # costs 48^3 (1 + 2 * 48) = 10,727,424, just above MAX_JOIN; a packed
    # full scan takes about 0.7 s at rank 40 and 1 s at rank 47.
    path = tmp_path / "ones.json"
    path.write_text(json.dumps(_all_ones(48)))
    start = time.perf_counter()
    result = run(["ring", "verify", "--file", str(path)])
    assert time.perf_counter() - start < 1.0
    assert result.status == 1 and "MAX_JOIN" in result.table


def test_ring_verify_admits_what_it_scans_quickly(tmp_path):
    # The all-ones ring of rank 47 costs 9,863,185 and fails its axioms
    # after a full scan; SO(243)_2, rank 125, is the largest admitted
    # SO(N)_2 file.
    path = tmp_path / "ones.json"
    path.write_text(json.dumps(_all_ones(47)))
    start = time.perf_counter()
    assert run(["ring", "verify", "--file", str(path)]).status == 2
    assert time.perf_counter() - start < 10.0
    for n in (199, 243):
        path = tmp_path / f"so{n}.json"
        path.write_text(json.dumps(so_n2_fusion(n).to_json_dict()))
        assert run(["ring", "verify", "--file", str(path)]).status == 0
    assert join_cost(so_n2_fusion(245)) > MAX_JOIN


def test_ring_verify_refuses_rank_before_building(tmp_path):
    # A ring holds its fuse index, rank^2 entries, from its construction
    # on, so the rank is bounded after the file's own checks and before
    # the ring is built.
    rank = 100_000
    data = {"rank": rank, "labels": ["x"] * rank, "dual": list(range(rank)), "N": []}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    start = time.perf_counter()
    result = run(["ring", "verify", "--file", str(path)])
    assert time.perf_counter() - start < 1.0
    assert result.status == 1 and f"MAX_RANK = {MAX_RANK}" in result.table
    # The file's own checks come first, with their messages.
    for change, message in (
        ({"N": [[0, 0, rank, 1]]}, f"coefficient index out of range: (0, 0, {rank})"),
        ({"N": [[0, 0, 0, 0]]}, "multiplicity must be positive, got N(0, 0, 0)=0"),
        ({"dual": [0] * rank}, "dual must be a permutation of the indices"),
        ({"labels": ["x"]}, "labels and dual must have length rank"),
        ({"N": [[0, 0, 0, 1], [0, 0, 0, 1]]}, "duplicate [i, j, k] rows in N"),
    ):
        path.write_text(json.dumps({**data, **change}))
        result = run(["ring", "verify", "--file", str(path)])
        assert result.status == 1
        assert result.table == f"error: cannot load fusion ring from {path}: {message}"


def test_wide_multiplicity_file_is_refused_quickly(tmp_path):
    # One 4,000-digit multiplicity in the admitted pointed Z_149 ring makes
    # every packed digit about 26,600 bits wide, gigabytes for the table, so
    # the join cost scales with the digit width and the file is refused.
    data = pointed_cyclic_ring(149).to_json_dict()
    data["N"][1][3] = 10**3999  # N_01^1
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(data))
    start = time.perf_counter()
    result = run(["ring", "verify", "--file", str(path)])
    assert time.perf_counter() - start < 1.0
    assert result.status == 1 and "MAX_JOIN" in result.table
    assert join_cost(FusionRing.from_json_dict(data)) > 400 * 3 * 149**3


# ------------------------------------------------------------ numpy import


SUBCOMMANDS = [
    ["cyclic", "build", "15", "2"],
    ["cyclic", "classify", "45"],
    ["cyclic", "equiv", "15", "1", "2"],
    ["cyclic", "autos", "15", "1"],
    ["cyclic", "bosons", "9", "1"],
    ["cyclic", "decompose", "45", "1"],
    ["cyclic", "condense", "9", "1", "--subgroup", "0,3,6"],
    ["cyclic", "double", "25", "1"],
    ["meta", "count", "15"],
    ["meta", "enumerate", "15", "--format", "json"],
    ["so2", "fusion", "7", "--format", "json"],
    ["so2", "verify", "7"],
    ["so2", "condense", "7", "--format", "json"],
]
REFUSALS = [
    ["cyclic", "build", "five", "1"],
    ["so2", "verify", "14"],
]


def test_no_command_imports_numpy(tmp_path):
    """All 14 subcommands, on a valid, a broken and a malformed ring file
    and on bad arguments, and the closed-form Gauss sum run without
    loading numpy.  Runs in a fresh interpreter, since this one already
    holds numpy."""
    files = {
        "valid": so_n2_fusion(7).to_json_dict(),
        "broken": so_n2_fusion(7).with_coefficient(4, 5, 6, 2).to_json_dict(),
    }
    rings = []
    for name, data in files.items():
        (tmp_path / name).write_text(json.dumps(data))
        rings.append(["ring", "verify", "--file", str(tmp_path / name)])
    (tmp_path / "malformed").write_text('{"rank": 2, "labels": ["1"]')
    refusals = REFUSALS + [["ring", "verify", "--file", str(tmp_path / "malformed")]]
    commands = SUBCOMMANDS + rings + refusals
    assert len({tuple(argv[:2]) for argv in commands}) == 14
    script = f"""
import json, sys
import modcat, modcat.cli
statuses = [modcat.cli.run(argv).status for argv in {commands!r}]
sums = [modcat.gauss_sum(n, k) for n in (1, 3, 5, 45, 1001) for k in (-1, 0, 2, 3)]
print(json.dumps([statuses, "numpy" in sys.modules]))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    statuses, loaded = json.loads(proc.stdout)
    assert statuses == [0] * len(SUBCOMMANDS) + [0, 2] + [1] * len(refusals)
    assert loaded is False


# ---------------------------------------------------------- output digests


def cyclic_commands(n: str) -> list[list[str]]:
    return [
        ["cyclic", "build", n, "2"],
        ["cyclic", "classify", n],
        ["cyclic", "equiv", n, "1", "2"],
        ["cyclic", "autos", n, "2"],
        ["cyclic", "bosons", n, "2"],
        ["cyclic", "decompose", n, "2"],
        ["cyclic", "double", n, "2"],
    ]


# group: (commands, sha256 of their json and table output and exit codes)
DIGEST_GROUPS = {
    "subcommands": (
        [argv[: argv.index("--format")] if "--format" in argv else argv for argv in SUBCOMMANDS]
        + [
            ["cyclic", "build", "9", "3"],
            ["cyclic", "build", "6", "1"],
            ["cyclic", "frobnicate", "5"],
            ["so2", "fusion", "4"],
            ["so2", "condense", "501"],
            ["meta", "count", "2"],
        ],
        "b1e51fc86eee897a863dac7a47434a28f9b428fc90e5ddb2af4f75a992d64ba5",
    ),
    "so2": (
        [["so2", verb, str(n)] for n in range(3, 100, 2) for verb in ("fusion", "verify", "condense")],
        "355694a93ec5f2dc59a5b1792a8f4fd315cc91cd8ee0399b3f23872ec83ed113",
    ),
    "cyclic": (
        [argv for n in [*range(1, 60, 2), 99, 1001, 99991] for argv in cyclic_commands(str(n))],
        "4f3cdfe87d4a65845635258398205edf24fb5027e8c4ec4bd08f1223a7de1b28",
    ),
    "meta": (
        [
            ["meta", verb, str(n)]
            for n in (1, 3, 9, 15, 45, 105, 1001, 15015, 99991)
            for verb in ("count", "enumerate")
        ],
        "8dd16603018c772485e1deb7eff25c03b31e18ef7170280c7691cc0223fac326",
    ),
    "cyclic condense": (
        [
            ["cyclic", "condense", "9", "1", "--subgroup", "0,3,6"],
            ["cyclic", "condense", "9", "1", "--subgroup", "0,3"],
        ],
        "16d6df76a5d4edb71ae36b308cc4101def7f90b79ea6a62b2037a1796738918f",
    ),
    "ring verify": (
        [["ring", "verify", "--file", name] for name in ("valid.json", "corrupted.json", "malformed.json")],
        "adfdd675e95c9ad3797b1d8a734693654c4cdbc4e5748ca0be85bcee6e696473",
    ),
}


def output_digest(commands: list[list[str]]) -> str:
    digest = hashlib.sha256()
    for argv in commands:
        for fmt in ("json", "table"):
            result = run([*argv, "--format", fmt])
            digest.update(f"{argv} {fmt}\n{result.status}\n{result.table}\n".encode())
    return digest.hexdigest()


def test_cli_output_matches_recorded_digests(tmp_path, monkeypatch):
    """Each command group prints what it printed when its digest was
    recorded, byte for byte and with the same exit codes, in both formats."""
    monkeypatch.chdir(tmp_path)  # ring verify prints the file name it was given
    (tmp_path / "valid.json").write_text(json.dumps(so_n2_fusion(7).to_json_dict()))
    corrupted = so_n2_fusion(7).with_coefficient(4, 5, 6, 2)
    (tmp_path / "corrupted.json").write_text(json.dumps(corrupted.to_json_dict()))
    (tmp_path / "malformed.json").write_text('{"rank": 2, "labels": ["1"]')
    changed = [
        group
        for group, (commands, recorded) in DIGEST_GROUPS.items()
        if output_digest(commands) != recorded
    ]
    assert not changed, f"CLI output changed in groups: {changed}"


# ------------------------------------------------------ integer arguments


# command: (integer positionals, largest admitted first integer)
SO2_MAX_N = 2 * MAX_RANK - 6  # the largest N with rank (N + 7) // 2 <= MAX_RANK
INTEGER_COMMANDS = {
    "cyclic build": (2, MAX_N),
    "cyclic classify": (1, MAX_FACTOR_N),
    "cyclic equiv": (3, MAX_FACTOR_N),
    "cyclic autos": (2, MAX_FACTOR_N),
    "cyclic bosons": (2, MAX_N),
    "cyclic decompose": (2, MAX_N),
    "cyclic condense": (2, MAX_N),
    "cyclic double": (2, MAX_N),
    "so2 fusion": (1, SO2_MAX_N),
    "so2 verify": (1, SO2_MAX_N),
    "so2 condense": (1, SO2_MAX_N),
    "meta count": (1, MAX_FACTOR_N),
    "meta enumerate": (1, MAX_FACTOR_N),
}
SMALL = st.integers(-50, 2000)
HUGE = 10**30
# int() reads the underscore, space, '+' and non-ASCII forms; the CLI takes
# only ASCII digits after an optional '-'.
LOOSE_INTEGERS = ["1_001", " 7 ", "7 ", "+7", "- 7", "-", "\u0667", "\uff17", "7.0", "0x7", "1e3"]


@pytest.mark.parametrize("text", LOOSE_INTEGERS)
def test_loose_integer_arguments_exit_one(text):
    result = run(["cyclic", "build", text, "1", "--format", "json"])
    assert result.status == 1
    assert result.payload == {"error": f"argument n: invalid int value: {text!r}"}
    result = run(["cyclic", "condense", "9", "1", "--subgroup", f"0,{text},6"])
    assert result.status == 1
    assert result.table == f"error: argument --subgroup: invalid int value: {text!r}"


def test_strict_integers_admit_signs_zeros_and_long_digits():
    assert run(["cyclic", "equiv", "15", "-1", "007"]).payload["equivalent"] is False
    assert payload_of(["cyclic", "condense", "9", "-8", "--subgroup", "0,-3,003,"])["lagrangian"]
    digits = "9" * 5000  # past the interpreter's int-string limit where it has one
    assert run(["cyclic", "classify", digits]).status == 1
    result = run(["cyclic", "build", digits, "1"])
    assert result.status == 1
    assert result.table == f"error: argument n: invalid int value: {digits!r}"


@given(data=st.data(), command=st.sampled_from(sorted(INTEGER_COMMANDS)))
@settings(max_examples=200, deadline=None)
def test_integer_arguments_never_raise(data, command):
    count, limit = INTEGER_COMMANDS[command]
    # Verifying SO(N)_2 near the rank limit takes seconds: small so2
    # draws stop at SO(61)_2, and every N above SO2_MAX_N is refused.
    small = st.integers(-50, 61) if command.startswith("so2") else SMALL
    above = st.integers(limit + 1, HUGE)
    size = data.draw(small | above, label="size")
    other = SMALL | st.integers(-HUGE, HUGE)  # k, k1, k2: reduced modulo n
    rest = data.draw(st.lists(other, min_size=count - 1, max_size=count - 1))
    argv = command.split() + [str(x) for x in [size, *rest]]
    if command == "cyclic condense":
        argv += ["--subgroup", "0"]
    result = run(argv)
    assert result.status in (0, 1, 2)
    if size > limit:
        assert "above the limit" in result.table


# ------------------------------------------------------------ ring fuzzing


JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
VALID_RINGS = [
    pointed_cyclic_ring(3).to_json_dict(),
    dihedral_fusion(5).to_json_dict(),
    so_n2_fusion(3).to_json_dict(),
]


@st.composite
def mutated_rings(draw):
    """A valid ring dict with one field replaced, dropped, or one entry of
    one N row changed."""
    data = json.loads(json.dumps(draw(st.sampled_from(VALID_RINGS))))
    field = draw(st.sampled_from(["rank", "labels", "dual", "N", "N row"]))
    if field == "N row":
        row = draw(st.sampled_from(data["N"]))
        row[draw(st.integers(0, 3))] = draw(st.integers(-3, 12) | JSON)
    elif draw(st.booleans()):
        del data[field]
    else:
        data[field] = draw(st.integers(-3, 12) | JSON)
    return data


@given(data=JSON | mutated_rings())
@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_ring_verify_never_raises_on_any_json(tmp_path, data):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(data))
    result = run(["ring", "verify", "--file", str(path), "--format", "json"])
    assert result.status in (0, 1, 2)
    if result.status == 1:
        assert "error" in result.payload
