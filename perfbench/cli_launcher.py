"""Traced stand-in for the `modcat` console script.

    python3 perfbench/cli_launcher.py --spans OUT.json --spawned T -- ARGS...

Notes when the interpreter reached this script, imports modcat.cli,
installs the span wrappers, runs modcat.cli.main on ARGS and exits with
its status.  The spans and the phase timestamps go to OUT.json.
"""

import time

STARTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402  (the line above times interpreter start-up)
import sys  # noqa: E402

from tracing import Tracer, now  # noqa: E402


def main() -> None:
    args = sys.argv[1:]
    split = args.index("--")
    options = dict(zip(args[:split:2], args[1:split:2]))
    record = {"spawned": float(options["--spawned"]), "started": STARTED, "import_start": now()}
    import modcat.cli

    record["imported"] = now()
    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    sys.argv = ["modcat", *args[split + 1:]]
    status = 0
    record["run_start"] = now()
    try:
        modcat.cli.main()
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        record["finished"] = now()
        info = tracer.originals["metaplectic.so_n2_fusion"].cache_info()
        record["cache"] = [info.hits, info.misses]
        record["spans"] = tracer.spans
        with open(options["--spans"], "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    sys.exit(status)


if __name__ == "__main__":
    main()
