"""Child process that runs one lexgrade command in a fresh interpreter.

    python3 bench/step.py SRC SPEC.json

SRC is the source tree; SPEC.json (written by run.py) holds the CLI
argv, whether to trace, and the file the result goes to. The child
imports lexgrade.cli before anything else and reads the clock, so the
parent gets the set-up time of every command it runs. It then calls
``lexgrade.cli.main(argv)``, exactly what a user's command line runs,
and records the call's wall time, exit code, stderr, socket connections
and the process's peak memory. It times reference.py's fixed work right
before and right after the call, so the parent can read both times
against the host's speed at that moment. A traced child wraps every
layer function first (see spans.py) and also returns its spans.
"""

from __future__ import annotations

import sys
from time import perf_counter

sys.path.insert(0, sys.argv[1])
import lexgrade.cli  # noqa: E402  (needs the path above)

READY = perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402  (beside this file)


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    connects = 0

    def audit(event: str, args) -> None:
        nonlocal connects
        if event == "socket.connect":
            connects += 1

    sys.addaudithook(audit)
    tracer = None
    if spec["trace"]:
        from spans import Tracer  # beside this file

        tracer = Tracer()
        tracer.install()
    span = tracer.span(f"cli.{spec['name']}") if tracer else contextlib.nullcontext()
    buffer = io.StringIO()
    reference_before = reference.run()
    start = perf_counter()
    with span, contextlib.redirect_stderr(buffer):
        try:
            code = lexgrade.cli.main(spec["argv"])
        except SystemExit as exc:  # argparse rejected the argv
            code = exc.code
    elapsed = perf_counter() - start
    reference_after = reference.run()
    result = {
        "ready": READY,
        "module": lexgrade.cli.__file__,
        "s": elapsed,
        "reference_s": [reference_before, reference_after],
        "code": code,
        "connects": connects,
        "stderr": buffer.getvalue(),
        # Linux reports ru_maxrss in KiB.
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        result["spans"], result["leaves"] = tracer.take()
        result["missing"] = tracer.missing
    Path(spec["out"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[2]))
