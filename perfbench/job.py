"""Run one permprod CLI job in this fresh interpreter and time its phases.

    python3 perfbench/job.py MARKS_JSON [--setup-only] [--trace SPANS_JSON] -- CLI_ARGS...

Imports ``permprod.cli`` from the ``src/`` directory next to ``perfbench/``
and calls ``permprod.cli.main(CLI_ARGS)``, the same entry point as the
``permprod`` console script. ``permprod.cli.run`` is wrapped so the job can
record when the config has been parsed and validated (the end of set-up)
and when the report has been written, and the job's own peak resident set
is recorded at the end. With ``--setup-only`` the wrapper
returns before running, so the job measures set-up alone. Times are
``time.monotonic_ns()`` readings, which on Linux come from the system-wide
monotonic clock and so compare with the parent's spawn time.

Exit code: the CLI's own, or 3 when ``src/permprod`` is missing.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def peak_rss_mb() -> float:
    """This process's own peak resident set, from VmHWM.

    Not ``getrusage``: its ``ru_maxrss`` also keeps the peak of the address
    space replaced at exec, which for a ``vfork``ed child is the parent's,
    and the benchmark's runner holds numpy and the reference block's arrays.
    """
    with open("/proc/self/status") as fh:
        line = next(ln for ln in fh if ln.startswith("VmHWM:"))
    return int(line.split()[1]) / 1024


def main(argv: list[str]) -> int:
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1 :]
    marks_path = own[0]
    setup_only = "--setup-only" in own
    spans_path = own[own.index("--trace") + 1] if "--trace" in own else None

    if not (SRC / "permprod" / "cli.py").is_file():
        print(f"job: no permprod sources under {SRC}", file=sys.stderr)
        return 3
    sys.path.insert(0, str(SRC))
    # Compiled modules are cached under src/ whatever PYTHONDONTWRITEBYTECODE
    # says, so set-up never includes compiling permprod, as for an installed
    # package; the first probe of a run writes the cache.
    sys.dont_write_bytecode = False
    import numpy

    import permprod.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "permprod":
        print(f"job: imported permprod from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 3

    tracer = None
    if spans_path is not None:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    marks: dict = {"numpy": numpy.__version__, "python": sys.version.split()[0]}
    run = cli.run

    def timed_run(config):
        marks["run_start_ns"] = time.monotonic_ns()
        if setup_only:
            return 0
        try:
            return run(config)
        finally:
            marks["run_end_ns"] = time.monotonic_ns()

    cli.run = timed_run
    code = cli.main(cli_args)
    marks["exit"] = code
    marks["peak_rss_mb"] = peak_rss_mb()
    with open(marks_path, "w") as fh:
        json.dump(marks, fh)
    if tracer is not None:
        tracing.write(spans_path, tracer)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
