"""Command-line front end.

Exit codes: 0 success (including negative answers such as "inequivalent"),
1 invalid input (argument parsing or precondition violations), 2 a
requested verification failed.  JSON output is canonically sorted and
byte-stable for identical inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from . import cyclic, fusion, metaplectic

MAX_RANK = 250  # so2 and ring verify: so2 verify|condense 493 take 0.6-0.8 s as whole processes
MAX_JOIN = 10**7  # ring verify: fusion.join_cost, the budget of a full associativity scan
MAX_N = 10**6  # cyclic build, bosons, condense, double and decompose hold n twists
MAX_FACTOR_N = 10**12  # trial division by odd p <= sqrt(n): about 0.3 s at the limit


@dataclass(frozen=True)
class CommandResult:
    status: int
    payload: object  # JSON-serializable
    table: str


class _ArgumentError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1, not argparse's default 2
        raise _ArgumentError(message)


def _dumps(payload: object) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _parse_subgroup(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise _ArgumentError(f"bad subgroup element list {text!r}") from exc


def _limit(what: str, value: int, name: str, limit: int) -> int:
    if value > limit:
        raise _ArgumentError(f"{what} = {value} is above the limit {name} = {limit}")
    return value


def _so2_ring(n: int) -> fusion.FusionRing:
    _limit(f"rank of SO({n})_2", (n + 7) // 2, "MAX_RANK", MAX_RANK)
    return metaplectic.so_n2_fusion(n)


def _cmd_cyclic_build(args) -> CommandResult:
    cat = cyclic.build_cyclic(_limit("n", args.n, "MAX_N", MAX_N), args.k)
    payload = cat.to_json_dict()
    lines = [f"C({cat.n},{cat.k}): modular, rank {cat.n}"]
    lines += [f"  theta[{j}] = {t}" for j, t in enumerate(payload["twists"])]
    return CommandResult(0, payload, "\n".join(lines))


def _cmd_cyclic_classify(args) -> CommandResult:
    reps = cyclic.classify(_limit("n", args.n, "MAX_FACTOR_N", MAX_FACTOR_N))
    classes = [
        {"k": k, **cyclic.canonical_invariant(args.n, k).to_json_dict()} for k in reps
    ]
    payload = {"n": args.n, "count": len(reps), "classes": classes}
    lines = [f"{len(reps)} classes of cyclic modular categories on Z_{args.n}"]
    for entry in classes:
        signs = ", ".join(f"({f['pp']},{f['sign']:+d})" for f in entry["factors"])
        lines.append(f"  k = {entry['k']}  signs: [{signs}]")
    return CommandResult(0, payload, "\n".join(lines))


def _cmd_cyclic_equiv(args) -> CommandResult:
    _limit("n", args.n, "MAX_FACTOR_N", MAX_FACTOR_N)
    desc1 = cyclic.canonical_invariant(args.n, args.k1)
    desc2 = cyclic.canonical_invariant(args.n, args.k2)
    equivalent = desc1 == desc2  # the complete invariant, as in are_equivalent
    payload = {
        "n": args.n,
        "k1": args.k1,
        "k2": args.k2,
        "equivalent": equivalent,
        "descriptor1": desc1.to_json_dict(),
        "descriptor2": desc2.to_json_dict(),
    }
    verdict = "equivalent" if equivalent else "inequivalent"
    signs1 = ", ".join(f"{s:+d}" for _, s in desc1.factors)
    signs2 = ", ".join(f"{s:+d}" for _, s in desc2.factors)
    table = (
        f"C({args.n},{args.k1}) and C({args.n},{args.k2}) are {verdict}\n"
        f"  signs of k1: ({signs1})\n  signs of k2: ({signs2})"
    )
    return CommandResult(0, payload, table)


def _cmd_cyclic_autos(args) -> CommandResult:
    n = _limit("n", args.n, "MAX_FACTOR_N", MAX_FACTOR_N)
    autos = cyclic.braided_autos(n, args.k)
    payload = {"n": args.n, "k": args.k, "autos": autos}
    table = f"twist-preserving automorphisms of C({args.n},{args.k}): " + ", ".join(
        str(u) for u in autos
    )
    return CommandResult(0, payload, table)


def _cmd_cyclic_bosons(args) -> CommandResult:
    cat = cyclic.build_cyclic(_limit("n", args.n, "MAX_N", MAX_N), args.k)
    bosons = cyclic.find_bosons(cat)
    payload = {"n": args.n, "k": cat.k, "bosons": bosons}
    table = f"bosons of C({args.n},{cat.k}): " + ", ".join(str(b) for b in bosons)
    return CommandResult(0, payload, table)


def _cmd_cyclic_decompose(args) -> CommandResult:
    parts = cyclic.decompose(_limit("n", args.n, "MAX_N", MAX_N), args.k)
    payload = {
        "n": args.n,
        "k": args.k % args.n,
        "factors": [p.to_json_dict() for p in parts],
    }
    table = f"C({args.n},{args.k}) = " + " x ".join(f"C({p.n},{p.k})" for p in parts)
    return CommandResult(0, payload, table)


def _cmd_cyclic_condense(args) -> CommandResult:
    cat = cyclic.build_cyclic(_limit("n", args.n, "MAX_N", MAX_N), args.k)
    outcome = cyclic.condense_subgroup(cat, _parse_subgroup(args.subgroup))
    payload = {"n": args.n, "k": cat.k, **outcome.to_json_dict()}
    lines = [
        f"condensed C({args.n},{cat.k}) at H = {{{', '.join(map(str, outcome.subgroup))}}}",
        f"  |H-perp| = {len(outcome.perp)}",
        f"  quotient: C({outcome.quotient.n},{outcome.quotient.k})"
        + ("  [Lagrangian: trivial quotient]" if outcome.lagrangian else ""),
    ]
    return CommandResult(0, payload, "\n".join(lines))


def _cmd_cyclic_double(args) -> CommandResult:
    cat = cyclic.build_cyclic(_limit("n", args.n, "MAX_N", MAX_N), args.k)
    witness = cyclic.find_lagrangian_subgroup(cat)
    payload = {
        "n": args.n,
        "k": cat.k,
        "quantum_double": witness is not None,
        "lagrangian_subgroup": list(witness) if witness is not None else None,
    }
    if witness is None:
        table = f"C({args.n},{cat.k}) is not a quantum double (no Lagrangian subgroup)"
    else:
        table = (
            f"C({args.n},{cat.k}) is a quantum double; Lagrangian subgroup "
            f"{{{', '.join(map(str, witness))}}}"
        )
    return CommandResult(0, payload, table)


def _cmd_so2_fusion(args) -> CommandResult:
    ring = _so2_ring(args.n)
    lines = [f"SO({args.n})_2 fusion ring, rank {ring.rank}"]
    for i in range(1, ring.rank):
        for j in range(i, ring.rank):
            terms = []
            for k, m in sorted(ring.fuse(i, j).items()):
                terms.append(f"{m} {ring.labels[k]}" if m > 1 else ring.labels[k])
            lines.append(f"  {ring.labels[i]} x {ring.labels[j]} = {' + '.join(terms)}")
    return CommandResult(0, ring.to_json_dict(), "\n".join(lines))


def _cmd_so2_verify(args) -> CommandResult:
    ring = _so2_ring(args.n)
    report = fusion.verify_fusion_ring(ring)
    payload = {"N": args.n, **report.to_json_dict()}
    table = _render_report(f"SO({args.n})_2", report)
    return CommandResult(0 if report.all_passed else 2, payload, table)


def _cmd_so2_condense(args) -> CommandResult:
    ring = _so2_ring(args.n)
    data = metaplectic.condense_z2(ring, 1)
    group = metaplectic.reconstruct_group(data)
    ty = metaplectic.is_tambara_yamagami(group.data)
    payload = group.data.to_json_dict()
    lines = [f"condensed SO({args.n})_2 by Z:"]
    lines.append("  identity sector:")
    for obj in group.data.d0:
        lines.append(f"    {obj.name}  dim {obj.dim:g}  group element {obj.group_elem}")
    lines.append("  non-trivial sector:")
    for obj in group.data.d1:
        lines.append(f"    {obj.name}  dim {obj.dim:.6f}")
    lines.append(
        f"  Tambara-Yamagami: {'yes' if ty.is_ty else 'no'}; "
        f"group Z_{group.order} (cyclic)"
    )
    return CommandResult(0, payload, "\n".join(lines))


def _cmd_meta_count(args) -> CommandResult:
    n = _limit("N", args.n, "MAX_FACTOR_N", MAX_FACTOR_N)
    count = metaplectic.count_metaplectic(n)
    payload = {"N": args.n, "count": count}
    table = f"{count} inequivalent metaplectic modular categories for N = {args.n}"
    return CommandResult(0, payload, table)


def _cmd_meta_enumerate(args) -> CommandResult:
    n = _limit("N", args.n, "MAX_FACTOR_N", MAX_FACTOR_N)
    descriptors = metaplectic.enumerate_metaplectic(n)
    payload = {
        "N": args.n,
        "count": len(descriptors),
        "descriptors": [d.to_json_dict() for d in descriptors],
    }
    lines = [f"{len(descriptors)} metaplectic classes for N = {args.n}"]
    for d in descriptors:
        signs = ", ".join(f"eps_{p} = {e:+d}" for p, e in d.signs)
        lines.append(f"  {signs}; gauging bit {d.h3}")
    return CommandResult(0, payload, "\n".join(lines))


def _cmd_ring_verify(args) -> CommandResult:
    try:
        with open(args.file, encoding="utf-8") as fh:
            data = json.load(fh)
        ring = fusion.FusionRing.from_json_dict(data)
    except (OSError, ValueError, RecursionError) as exc:
        raise _ArgumentError(f"cannot load fusion ring from {args.file}: {exc}")
    _limit("rank", ring.rank, "MAX_RANK", MAX_RANK)  # join_cost builds rank^2 dicts
    _limit("join cost", fusion.join_cost(ring), "MAX_JOIN", MAX_JOIN)
    report = fusion.verify_fusion_ring(ring)
    payload = report.to_json_dict()
    table = _render_report(args.file, report)
    return CommandResult(0 if report.all_passed else 2, payload, table)


def _render_report(name: str, report: fusion.FusionReport) -> str:
    lines = [f"fusion axioms for {name}:"]
    for check in report.checks:
        status = "pass" if check.passed else f"FAIL at {check.witness}"
        lines.append(f"  {check.name:<14} {status}")
    return "\n".join(lines)


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
            "subgroup": dict(required=True, help="comma-separated subgroup elements"),
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
                sub.add_argument(arg, type=int)
            for arg, kwargs in options.items():
                sub.add_argument(f"--{arg}", **kwargs)
            sub.set_defaults(func=func)
    return parser


_PARSER = _build_parser()


def run(argv: list[str]) -> CommandResult:
    """Dispatch a command line; never raises on user errors."""
    try:
        args = _PARSER.parse_args(argv)
        result = args.func(args)
    except ValueError as exc:  # _ArgumentError and every library precondition
        return CommandResult(1, {"error": str(exc)}, f"error: {exc}")
    except SystemExit as exc:  # argparse -h and friends
        code = exc.code if isinstance(exc.code, int) else 0
        return CommandResult(code, None, "")
    if args.format == "json":
        return CommandResult(result.status, result.payload, _dumps(result.payload))
    return result


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
