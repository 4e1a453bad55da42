"""Run one beamstab CLI invocation in a fresh interpreter and time its parts.

    python3 perfbench/stub.py RECORD SPANS CLI_ARGS...

Times ``import beamstab.cli`` (the set-up a user waits for before any work)
and the ``cli.main`` call separately, and writes both with the exit code to
the JSON file RECORD.  When SPANS is not ``-`` the tracer is installed
between the two, and the recorded spans are written to SPANS after
``cli.main`` returns.  Exits with ``cli.main``'s exit code.
"""

import json
import sys
import time


def main() -> int:
    record_path, spans_path, *cli_args = sys.argv[1:]
    t0 = time.perf_counter()
    import beamstab.cli
    setup_s = time.perf_counter() - t0

    tracer = None
    if spans_path != "-":
        import tracer as tracing        # perfbench/ is sys.path[0]

        tracer = tracing.Tracer()
        tracing.install(tracer)

    t0 = time.perf_counter()
    code = beamstab.cli.main(cli_args)
    main_s = time.perf_counter() - t0

    if tracer is not None:
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)
    with open(record_path, "w") as fh:
        json.dump({"setup_s": setup_s, "main_s": main_s, "exit": code}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
