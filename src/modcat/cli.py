"""Command-line front end.

Exit codes: 0 success (including negative answers such as "inequivalent"),
1 invalid input (argument parsing or precondition violations), 2 a
requested verification failed.  JSON output is canonically sorted and
byte-stable for identical inputs.  A command computes its answer once and
renders only the requested format; every check runs before rendering, so
the exit status never depends on --format.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections.abc import Iterator

from . import cyclic, fusion, metaplectic
from ._value import Value

MAX_RANK = 250  # so2 and ring verify: so2 verify|condense 493 take 0.6-0.8 s as whole processes
MAX_JOIN = 10**7  # ring verify: fusion.join_cost, the budget of a full associativity scan
MAX_N = 10**6  # cyclic build, bosons, condense, double and decompose hold n twists
MAX_FACTOR_N = 10**12  # trial division by odd p <= sqrt(n): about 0.3 s at the limit


class CommandResult(Value):
    """The outcome of one command line.  `table` is the printed text: the
    table, the JSON, or the error message."""

    status: int
    payload: object  # JSON-serializable
    table: str

    def __init__(self, status, payload, table) -> None:
        self.__dict__.update(status=status, payload=payload, table=table)


class _ArgumentError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1, not argparse's default 2
        raise _ArgumentError(message)


def _dumps(payload: object) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _int(text: str) -> int:
    """A decimal integer in ASCII digits, as Phase.parse reads them: no
    sign but '-', no spaces, underscores or other scripts' digits."""
    try:
        if re.fullmatch("-?[0-9]+", text):
            return int(text)
    except ValueError:  # beyond the interpreter's int-string digit limit
        pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _subgroup(text: str) -> list[int]:
    return [_int(part) for part in text.split(",") if part != ""]


def _limit(what: str, value: int, name: str, limit: int) -> int:
    if value > limit:
        raise _ArgumentError(f"{what} = {value} is above the limit {name} = {limit}")
    return value


def _so2_ring(n: int) -> fusion.FusionRing:
    _limit(f"rank of SO({n})_2", (n + 7) // 2, "MAX_RANK", MAX_RANK)
    return metaplectic.so_n2_fusion(n)


# A handler makes every check and computes its payload, then yields (exit
# status, JSON payload), then the lines of its table.  Nothing after the
# payload can refuse, so `run` reads on only for a table.


def _cmd_cyclic_build(args) -> Iterator:
    n = _limit("n", args.n, "MAX_N", MAX_N)
    # Keep no category: at MAX_N its residues (23 MB) would share the peak of _dumps.
    payload = cyclic.build_cyclic(n, args.k).to_json_dict()
    yield 0, payload
    yield f"C({payload['n']},{payload['k']}): modular, rank {payload['n']}"
    for j, t in enumerate(payload["twists"]):
        yield f"  theta[{j}] = {t}"


def _cmd_cyclic_classify(args) -> Iterator:
    reps = cyclic.classify(_limit("n", args.n, "MAX_FACTOR_N", MAX_FACTOR_N))
    classes = [
        {"k": k, **cyclic.canonical_invariant(args.n, k).to_json_dict()} for k in reps
    ]
    yield 0, {"n": args.n, "count": len(reps), "classes": classes}
    yield f"{len(reps)} classes of cyclic modular categories on Z_{args.n}"
    for entry in classes:
        signs = ", ".join(f"({f['pp']},{f['sign']:+d})" for f in entry["factors"])
        yield f"  k = {entry['k']}  signs: [{signs}]"


def _cmd_cyclic_equiv(args) -> Iterator:
    _limit("n", args.n, "MAX_FACTOR_N", MAX_FACTOR_N)
    desc1 = cyclic.canonical_invariant(args.n, args.k1)
    desc2 = cyclic.canonical_invariant(args.n, args.k2)
    equivalent = desc1 == desc2  # the complete invariant, as in are_equivalent
    yield 0, {
        "n": args.n,
        "k1": args.k1,
        "k2": args.k2,
        "equivalent": equivalent,
        "descriptor1": desc1.to_json_dict(),
        "descriptor2": desc2.to_json_dict(),
    }
    verdict = "equivalent" if equivalent else "inequivalent"
    yield f"C({args.n},{args.k1}) and C({args.n},{args.k2}) are {verdict}"
    for name, desc in (("k1", desc1), ("k2", desc2)):
        yield f"  signs of {name}: ({', '.join(f'{s:+d}' for _, s in desc.factors)})"


def _cmd_cyclic_autos(args) -> Iterator:
    autos = cyclic.braided_autos(_limit("n", args.n, "MAX_FACTOR_N", MAX_FACTOR_N), args.k)
    yield 0, {"n": args.n, "k": args.k, "autos": autos}
    yield f"twist-preserving automorphisms of C({args.n},{args.k}): " + ", ".join(
        map(str, autos)
    )


def _cmd_cyclic_bosons(args) -> Iterator:
    cat = cyclic.build_cyclic(_limit("n", args.n, "MAX_N", MAX_N), args.k)
    bosons = cyclic.find_bosons(cat)
    yield 0, {"n": args.n, "k": cat.k, "bosons": bosons}
    yield f"bosons of C({args.n},{cat.k}): " + ", ".join(map(str, bosons))


def _cmd_cyclic_decompose(args) -> Iterator:
    parts = cyclic.decompose(_limit("n", args.n, "MAX_N", MAX_N), args.k)
    yield 0, {
        "n": args.n,
        "k": args.k % args.n,
        "factors": [p.to_json_dict() for p in parts],
    }
    yield f"C({args.n},{args.k}) = " + " x ".join(f"C({p.n},{p.k})" for p in parts)


def _cmd_cyclic_condense(args) -> Iterator:
    cat = cyclic.build_cyclic(_limit("n", args.n, "MAX_N", MAX_N), args.k)
    outcome = cyclic.condense_subgroup(cat, args.subgroup)
    yield 0, {"n": args.n, "k": cat.k, **outcome.to_json_dict()}
    yield f"condensed C({args.n},{cat.k}) at H = {{{', '.join(map(str, outcome.subgroup))}}}"
    yield f"  |H-perp| = {len(outcome.perp)}"
    yield f"  quotient: C({outcome.quotient.n},{outcome.quotient.k})" + (
        "  [Lagrangian: trivial quotient]" if outcome.lagrangian else ""
    )


def _cmd_cyclic_double(args) -> Iterator:
    cat = cyclic.build_cyclic(_limit("n", args.n, "MAX_N", MAX_N), args.k)
    witness = cyclic.find_lagrangian_subgroup(cat)
    yield 0, {
        "n": args.n,
        "k": cat.k,
        "quantum_double": witness is not None,
        "lagrangian_subgroup": list(witness) if witness is not None else None,
    }
    if witness is None:
        yield f"C({args.n},{cat.k}) is not a quantum double (no Lagrangian subgroup)"
    else:
        yield (
            f"C({args.n},{cat.k}) is a quantum double; Lagrangian subgroup "
            f"{{{', '.join(map(str, witness))}}}"
        )


def _cmd_so2_fusion(args) -> Iterator:
    ring = _so2_ring(args.n)
    yield 0, ring.to_json_dict()
    yield f"SO({args.n})_2 fusion ring, rank {ring.rank}"
    for i in range(1, ring.rank):
        for j in range(i, ring.rank):
            terms = []
            for k, m in sorted(ring.fuse(i, j).items()):
                terms.append(f"{m} {ring.labels[k]}" if m > 1 else ring.labels[k])
            yield f"  {ring.labels[i]} x {ring.labels[j]} = {' + '.join(terms)}"


def _cmd_so2_verify(args) -> Iterator:
    yield from _verified(f"SO({args.n})_2", _so2_ring(args.n), {"N": args.n})


def _cmd_so2_condense(args) -> Iterator:
    ring = _so2_ring(args.n)
    group = metaplectic.reconstruct_group(metaplectic.condense_z2(ring, 1))
    ty = "yes" if metaplectic.is_tambara_yamagami(group.data).is_ty else "no"
    yield 0, group.data.to_json_dict()
    yield f"condensed SO({args.n})_2 by Z:"
    yield "  identity sector:"
    for obj in group.data.d0:
        yield f"    {obj.name}  dim {obj.dim:g}  group element {obj.group_elem}"
    yield "  non-trivial sector:"
    for obj in group.data.d1:
        yield f"    {obj.name}  dim {obj.dim:.6f}"
    yield f"  Tambara-Yamagami: {ty}; group Z_{group.order} (cyclic)"


def _cmd_meta_count(args) -> Iterator:
    count = metaplectic.count_metaplectic(_limit("N", args.n, "MAX_FACTOR_N", MAX_FACTOR_N))
    yield 0, {"N": args.n, "count": count}
    yield f"{count} inequivalent metaplectic modular categories for N = {args.n}"


def _cmd_meta_enumerate(args) -> Iterator:
    n = _limit("N", args.n, "MAX_FACTOR_N", MAX_FACTOR_N)
    descriptors = metaplectic.enumerate_metaplectic(n)
    yield 0, {
        "N": args.n,
        "count": len(descriptors),
        "descriptors": [d.to_json_dict() for d in descriptors],
    }
    yield f"{len(descriptors)} metaplectic classes for N = {args.n}"
    for d in descriptors:
        signs = ", ".join(f"eps_{p} = {e:+d}" for p, e in d.signs)
        yield f"  {signs}; gauging bit {d.h3}"


def _ring_file(path: str) -> fusion.FusionRing:
    try:
        with open(path, encoding="utf-8") as fh:
            fields = fusion.FusionRing.check_json_dict(json.load(fh))
    except (OSError, ValueError, RecursionError) as exc:
        raise _ArgumentError(f"cannot load fusion ring from {path}: {exc}")
    # The file passed every check of from_json_dict; the ring's fuse index
    # holds rank^2 entries, so the rank is bounded before it is built.
    _limit("rank", fields[0], "MAX_RANK", MAX_RANK)
    return fusion.FusionRing.of_checked(*fields)


def _cmd_ring_verify(args) -> Iterator:
    ring = _ring_file(args.file)  # the checked coefficient dict is freed here
    _limit("join cost", fusion.join_cost(ring), "MAX_JOIN", MAX_JOIN)
    yield from _verified(args.file, ring, {})


def _verified(name: str, ring: fusion.FusionRing, extra: dict) -> Iterator:
    report = fusion.verify_fusion_ring(ring)
    yield 0 if report.all_passed else 2, {**extra, **report.to_json_dict()}
    yield f"fusion axioms for {name}:"
    for check in report.checks:
        status = "pass" if check.passed else f"FAIL at {check.witness}"
        yield f"  {check.name:<14} {status}"


# group -> (help, {command: (handler, integer positionals, --options)})
_COMMANDS = {
    "cyclic": ("cyclic modular categories C(n,k)", {
        "build": (_cmd_cyclic_build, "n k", {}),
        "classify": (_cmd_cyclic_classify, "n", {}),
        "equiv": (_cmd_cyclic_equiv, "n k1 k2", {}),
        "autos": (_cmd_cyclic_autos, "n k", {}),
        "bosons": (_cmd_cyclic_bosons, "n k", {}),
        "decompose": (_cmd_cyclic_decompose, "n k", {}),
        "condense": (_cmd_cyclic_condense, "n k", {
            "subgroup": dict(
                required=True, type=_subgroup, help="comma-separated subgroup elements"
            ),
        }),
        "double": (_cmd_cyclic_double, "n k", {}),
    }),
    "so2": ("SO(N)_2 fusion rings", {
        "fusion": (_cmd_so2_fusion, "n", {}),
        "verify": (_cmd_so2_verify, "n", {}),
        "condense": (_cmd_so2_condense, "n", {}),
    }),
    "meta": ("metaplectic classification", {
        "count": (_cmd_meta_count, "n", {}),
        "enumerate": (_cmd_meta_enumerate, "n", {}),
    }),
    "ring": ("fusion-ring files", {
        "verify": (_cmd_ring_verify, "", {"file": dict(required=True)}),
    }),
}


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "table"), default="table", dest="format"
    )
    parser = _Parser(prog="modcat", description=__doc__)
    groups = parser.add_subparsers(dest="group", required=True)
    for group, (help_text, commands) in _COMMANDS.items():
        group_parser = groups.add_parser(group, help=help_text)
        subs = group_parser.add_subparsers(dest="command", required=True)
        for name, (func, positionals, options) in commands.items():
            sub = subs.add_parser(name, parents=[common])
            for arg in positionals.split():
                sub.add_argument(arg, type=_int)
            for arg, kwargs in options.items():
                sub.add_argument(f"--{arg}", **kwargs)
            sub.set_defaults(func=func)
    return parser


_PARSER = _build_parser()


def run(argv: list[str]) -> CommandResult:
    """Dispatch a command line; never raises on user errors."""
    try:
        args = _PARSER.parse_args(argv)
        output = args.func(args)
        status, payload = next(output)
    except ValueError as exc:  # _ArgumentError and every library precondition
        return CommandResult(1, {"error": str(exc)}, f"error: {exc}")
    except SystemExit as exc:  # argparse -h and friends
        code = exc.code if isinstance(exc.code, int) else 0
        return CommandResult(code, None, "")
    table = _dumps(payload) if args.format == "json" else "\n".join(output)
    return CommandResult(status, payload, table)


def main() -> None:
    result = run(sys.argv[1:])
    try:
        if result.status == 1:
            print(result.table, file=sys.stderr)
        else:
            if result.table:
                print(result.table)
            if result.status == 2:
                print("verification failed", file=sys.stderr)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left (`modcat ... | head`).  Point stdout at devnull so
        # the interpreter's final flush stays quiet, as the `signal` docs do.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(result.status)


if __name__ == "__main__":
    main()
