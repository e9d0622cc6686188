"""`idstat` entry point for one traced fresh process.

Usage: python bench/child.py EXPORT.json [idstat arguments...]

Runs `idstat.cli.main` with every layer wrapped, then writes the per-layer
totals, counters, spans, the import time and the in-process `main` time to
EXPORT.json, also when `main` raises.
"""

import json
import sys
import time


def main() -> int:
    export, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import idstat.cli

    import_s = time.perf_counter() - start
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.task = 0
    tracer.on = True
    start = time.perf_counter()
    try:
        return idstat.cli.main(argv)
    finally:
        main_s = time.perf_counter() - start
        tracer.on = False
        data = tracer.export()
        data.update(main_s=main_s, import_s=import_s)
        with open(export, "w") as fh:
            json.dump(data, fh)


if __name__ == "__main__":
    sys.exit(main())
