"""Traced stand-in for ``python -m pht``: same argv, same stdout and exit code.

Usage: ``python perfbench/launcher.py <pht arguments>`` with ``PERFBENCH_SPANS``
naming the JSON file that receives the spans, the ``import pht`` time and the
interpreter start-up time (from ``PERFBENCH_SPAWN_T``, the parent's wall clock
at spawn) when the command ends.
"""
import time

T_MAIN = time.time()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    start = time.perf_counter()
    import pht.cli

    import_s = time.perf_counter() - start
    import tracer as tracing

    recorder = tracing.Tracer()
    recorder.install(cli=True)
    recorder.op = 0
    recorder.active = True
    try:
        rc = pht.cli.main(sys.argv[1:])
    except SystemExit as exc:  # argparse rejects bad arguments with exit code 2
        rc = exc.code if isinstance(exc.code, int) else 2
    finally:
        recorder.active = False
        sys.stdout.flush()
        record = {"import_s": import_s,
                  "startup_s": T_MAIN - float(os.environ.get("PERFBENCH_SPAWN_T", T_MAIN)),
                  "spans": recorder.spans}
        with open(os.environ["PERFBENCH_SPANS"], "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
