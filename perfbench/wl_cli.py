"""cli_sessions: one `modcat` process per command, one after another.

Each block runs all 14 subcommands at desk-scale sizes, three `ring verify`
calls on files written at set-up (valid: exit 0, corrupted: exit 2,
malformed: exit 1) and one command with invalid arguments (exit 1), in
seeded order and in a seeded mix of `--format json` and `--format table`.
Every process's stdout must equal, byte for byte, what `modcat.cli.run`
gives in-process for the same argv.  With tracing on, each process is
started through cli_launcher.py, which installs the span wrappers first.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import oracle
import wl_fusion
from benchstats import median
from inputs import Strata, log_uniform_odd, make_rng, random_unit, uniform_int
from modcat import cli
from tracing import OP, PARENT, now
from workload import Op

NAME = "cli_sessions"
IN_PROCESS = False
# Blocks per second of --seconds.  A run needs at least 100 ops (6 blocks),
# which sets its length up to --seconds 30: both passes then take about 40 s
# on a 2-core virtual machine.
BLOCKS_PER_SECOND = 0.2
PASSES = 2  # times a timed run goes through its op list
RING_FILES = 4  # of each kind: valid, corrupted, malformed

CYCLIC_N = (3, 2_001)
CLASSIFY_N = (3, 20_001)
SO2_N = (3, 41)
META_N = (3, 9_999)
MALFORMED = ("truncated", "missing_key", "index_out_of_range", "dual_not_permutation")
LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_launcher.py")


def _ring_spec(rng, index: int) -> dict:
    family = ("so", "dihedral", "pointed")[index % 3]
    n = {"so": 2 * rng.randrange(1, 11) + 1, "dihedral": 2 * rng.randrange(1, 11) + 1,
         "pointed": rng.randrange(3, 13)}[family]
    return {"id": index, "family": family, "n": n}


def plan(seed: int, blocks: int) -> list[dict]:
    """The seeded command stream: `blocks` blocks of 17 commands each."""
    rng = make_rng(NAME, seed)
    # One stratified stream per size slot, each drawn once per block.
    streams = ("cyclic", "condense", "double", "classify", "so2_fusion", "so2_verify",
               "so2_condense", "meta_count", "meta_enumerate")
    strata = {name: Strata(rng) for name in streams}
    rings = []
    for i in range(RING_FILES):
        valid = _ring_spec(rng, i)
        broken = _ring_spec(rng, i + 1)
        broken["id"] = i
        axiom = wl_fusion.AXIOMS[i % len(wl_fusion.AXIOMS)]
        broken.update(corrupt=axiom, at=wl_fusion.corruption_site(rng, broken["family"], broken["n"], axiom))
        malformed = {**_ring_spec(rng, i + 2), "id": i, "malformed": MALFORMED[i]}
        rings.append((valid, broken, malformed))

    out: list[dict] = []
    for b in range(blocks):
        def odd(stream: str, lo: int, hi: int) -> int:
            return log_uniform_odd(strata[stream].next(), lo, hi)

        n = odd("cyclic", *CYCLIC_N)
        k, k1 = random_unit(rng, n), random_unit(rng, n)
        k2 = k1 * random_unit(rng, n) ** 2 % n if rng.random() < 0.5 else random_unit(rng, n)
        p = rng.choice((3, 5, 7))
        m = max(odd("condense", *CYCLIC_N) // (p * p), 1) | 1
        m *= p * p
        step = oracle.boson_step(m)
        root = rng.randrange(1, 23) * 2 + 1
        square = root * root if b % 2 == 0 else odd("double", *CYCLIC_N)
        so2 = [2 * uniform_int(strata[f"so2_{c}"].next(), *(x // 2 for x in SO2_N)) + 1
               for c in ("fusion", "verify", "condense")]
        meta = [odd(f"meta_{c}", *META_N) for c in ("count", "enumerate")]
        c = odd("classify", *CLASSIFY_N)
        commands = [
            ["cyclic", "build", n, k],
            ["cyclic", "classify", c],
            ["cyclic", "equiv", n, k1, k2],
            ["cyclic", "autos", n, k],
            ["cyclic", "bosons", n, k],
            ["cyclic", "decompose", n, k],
            ["cyclic", "condense", m, random_unit(rng, m), "--subgroup",
             ",".join(str(x) for x in range(0, m, step))],
            ["cyclic", "double", square, random_unit(rng, square)],
            ["so2", "fusion", so2[0]],
            ["so2", "verify", so2[1]],
            ["so2", "condense", so2[2]],
            ["meta", "count", meta[0]],
            ["meta", "enumerate", meta[1]],
        ]
        entries = [{"argv": [str(x) for x in argv], "exit": 0} for argv in commands]
        valid, broken, malformed = rings[b % RING_FILES]
        for ring, code in ((valid, 0), (broken, 2), (malformed, 1)):
            entries.append({"argv": ["ring", "verify", "--file", _file_name(ring)],
                            "exit": code, "ring": ring})
        bad = [["cyclic", "build", str(2 * n), "1"],
               ["cyclic", "equiv", str(3 * n), "3", "1"],
               ["so2", "verify", str(2 * so2[0])],
               ["cyclic", "classify", f"{n}x"]][b % 4]
        entries.append({"argv": bad, "exit": 1})
        for entry in entries:
            entry["argv"] += ["--format", rng.choice(("json", "table"))]
        rng.shuffle(entries)
        out.extend(entries)
    return out


def _file_name(ring: dict) -> str:
    kind = ring.get("corrupt") or ring.get("malformed") or "valid"
    return f"ring-{ring['id']}-{ring['family']}-{ring['n']}-{kind}.json"


def _ring_text(ring: dict) -> str:
    """The file contents for a ring spec: valid, corrupted or malformed."""
    if "corrupt" in ring:
        data = wl_fusion.corrupted_ring(ring).to_json_dict()
    else:
        data = wl_fusion.raw_ring(ring["family"], ring["n"]).to_json_dict()
    kind = ring.get("malformed")
    if kind == "missing_key":
        del data["N"]
    elif kind == "index_out_of_range":
        data["N"].append([0, 0, data["rank"] + 5, 1])
    elif kind == "dual_not_permutation":
        data["dual"] = [0] * data["rank"]
    text = json.dumps(data)
    return text[: len(text) // 2] if kind == "truncated" else text


def _payload_wrong(argv: list[str], payload: dict, ring: dict | None) -> str | None:
    """Independent checks of the JSON answers that have a closed form."""
    command = tuple(argv[:2])
    ints = [int(x) for x in argv[2:] if x.isdigit()]
    if command == ("cyclic", "classify"):
        s = len(oracle.factor(ints[0]))
        return None if payload["count"] == 2**s else f"count {payload['count']} != 2^{s}"
    if command == ("cyclic", "equiv"):
        n, k1, k2 = ints[:3]
        expected = oracle.is_unit_square_ratio(n, k1, k2)
        return None if payload["equivalent"] is expected else "wrong equivalence verdict"
    if command == ("cyclic", "autos"):
        s = len(oracle.factor(ints[0]))
        return None if len(payload["autos"]) == 2**s else "wrong automorphism count"
    if command == ("cyclic", "bosons"):
        n = ints[0]
        expected = list(range(0, n, oracle.boson_step(n)))
        return None if payload["bosons"] == expected else "wrong bosons"
    if command == ("cyclic", "decompose"):
        moduli = [p**e for p, e in oracle.factor(ints[0])]
        return None if [f["n"] for f in payload["factors"]] == moduli else "wrong factors"
    if command == ("cyclic", "double"):
        return None if payload["quantum_double"] is oracle.is_square(ints[0]) else "wrong double"
    if command in (("meta", "count"), ("meta", "enumerate")):
        expected = 2 ** (len(oracle.factor(ints[0])) + 1)
        return None if payload["count"] == expected else f"count != {expected}"
    if command == ("so2", "verify"):
        return None if payload["passed"] else "SO(N)_2 failed verification"
    if command == ("so2", "condense"):
        return None if len(payload["D0"]) == ints[0] else "identity sector is not of size N"
    if command == ("ring", "verify") and ring is not None:
        axiom = ring.get("corrupt")
        if axiom is None:
            return None if payload["passed"] else "valid ring failed verification"
        check = next(c for c in payload["checks"] if c["name"] == axiom)
        if check["passed"] or not check["witness"]:
            return f"corrupted ring passed {axiom}"
        coeffs = {tuple(row[:3]): row[3] for row in ring["coeffs"]}
        if not wl_fusion.witness_holds(coeffs, ring["rank"], ring["dual"], axiom,
                                             tuple(check["witness"])):
            return f"{axiom} witness {check['witness']} is not a violation"
    return None


class Session:
    """Writes the ring files, then runs each command as a child process."""

    def __init__(self, workdir: str, trace: bool, plan: list[dict]) -> None:
        self.workdir = workdir
        self.trace = trace
        self.mismatches = 0
        self.phases: list[dict] = []  # per traced process: launcher timestamps
        self.stdout_bytes: list[int] = []
        self.span_files: list[tuple[int, str]] = []
        self.rings: set[str] = set()
        self.index = -1
        for entry in plan:
            ring = entry.get("ring")
            path = os.path.join(workdir, _file_name(ring)) if ring else None
            if path and not os.path.exists(path):
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(_ring_text(ring))

    def prepare(self, spec: dict) -> Op:
        self.index += 1
        index = self.index
        argv = spec["argv"]
        if spec["exit"] != 1 and argv[:2] in (["ring", "verify"], ["so2", "verify"], ["so2", "condense"]):
            self.rings.add(" ".join(argv[:3] if argv[0] == "so2" else argv[:4]))
        spans_path = os.path.join(self.workdir, f"spans-{index}.json")

        def call() -> tuple[int, bytes, bytes]:
            if self.trace:
                cmd = [sys.executable, LAUNCHER, "--spans", spans_path,
                       "--spawned", repr(now()), "--", *argv]
            else:
                cmd = [sys.executable, "-m", "modcat.cli", *argv]
            proc = subprocess.run(cmd, capture_output=True, cwd=self.workdir, timeout=60)
            if self.trace:
                self.span_files.append((index, spans_path))
            return proc.returncode, proc.stdout, proc.stderr

        def check(outcome: tuple[int, bytes, bytes]) -> str | None:
            returncode, stdout, stderr = outcome
            self.stdout_bytes.append(len(stdout))
            expected = self.in_process(argv)
            if returncode != spec["exit"] or expected.status != spec["exit"]:
                self.mismatches += 1
                return (f"exit {returncode} (in-process {expected.status}), "
                        f"expected {spec['exit']}: {stderr.decode()[-300:]}")
            want = b"" if expected.status == 1 or not expected.table else (expected.table + "\n").encode()
            if stdout != want:
                return "stdout differs from the in-process run of the same argv"
            if argv[-1] == "json" and expected.status != 1:
                ring = spec.get("ring")
                if ring and "corrupt" in ring:
                    data = json.loads(_ring_text(ring))
                    ring = {**ring, "coeffs": data["N"], "rank": data["rank"], "dual": data["dual"]}
                return _payload_wrong(argv, json.loads(stdout), ring)
            return None

        broken = spec.get("ring", {}).get("corrupt")
        size = next((int(a) for a in argv if a.isdigit()), 0)
        return Op(" ".join(argv[:2]), size, call, check,
                  fails_in=("fusion", "cli") if broken else ())

    def in_process(self, argv: list[str]) -> cli.CommandResult:
        """modcat.cli.run on argv from the directory the child ran in."""
        home = os.getcwd()
        os.chdir(self.workdir)
        try:
            return cli.run(argv)
        finally:
            os.chdir(home)

    def counters(self) -> dict[str, float]:
        out = {"cli.exit_mismatches": self.mismatches}
        if self.stdout_bytes:
            out["cli.output_bytes"] = median(self.stdout_bytes)
        if self.phases:
            for phase in ("interpreter_s", "import_s", "run_s"):
                out[f"cli.{phase}"] = median([p[phase] for p in self.phases])
        out["fusion.distinct_rings"] = len(self.rings)
        return out

    def child_spans(self) -> tuple[list[list], tuple[int, int], dict[int, float]]:
        """All launcher spans, re-based into one list, the summed cache counts,
        and per op the interpreter start and import time the launcher timed
        outside its spans."""
        spans: list[list] = []
        hits = misses = 0
        unspanned: dict[int, float] = {}
        for index, path in self.span_files:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            base = len(spans)
            for record in data["spans"]:
                record[OP] = index
                if record[PARENT] is not None:
                    record[PARENT] += base
                spans.append(record)
            hits += data["cache"][0]
            misses += data["cache"][1]
            self.phases.append({
                "interpreter_s": data["started"] - data["spawned"],
                "import_s": data["imported"] - data["import_start"],
                "run_s": data["finished"] - data["run_start"],
            })
            unspanned[index] = self.phases[-1]["interpreter_s"] + self.phases[-1]["import_s"]
        return spans, (hits, misses), unspanned

