"""Run the goodturing command line under the benchmark tracer.

    python3 bench/tracehost.py SPANS.json COMMAND [ARGS...]

Behaves like ``python -m goodturing.cli COMMAND [ARGS...]`` (same stdout,
stderr and exit status) and writes the spans and counts it recorded to
SPANS.json when the command ends: the library calls, and an ``import``
span from the start of this file to the end of the imports.  The traced cli
workload runs its ops through this file.
"""

import time

STARTED = time.perf_counter()

import sys  # noqa: E402

from tracing import IMPORT, Tracer  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import goodturing.cli as cli

    tracer = Tracer()
    tracer.install()
    tracer.record(IMPORT, STARTED, time.perf_counter())
    tracer.active = True
    try:
        return cli.main(argv)
    finally:
        tracer.active = False
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
