"""`python -m nlie ARGS` with spans, for traced cli-session runs.

Usage: python3 perfbench/clishim.py SPANS_JSON ARGS...

Imports nlie, wraps its public functions (tracer.py), runs the package's
`__main__` exactly as `python -m nlie` would, and writes the in-process
import time and the spans to SPANS_JSON before exiting with nlie's code.
"""

import json
import runpy
import sys
import time


def main() -> int:
    out_path, args = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import nlie.cli  # noqa: F401

    import_s = time.perf_counter() - start
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    sys.argv = ["nlie", *args]
    code = 0
    try:
        runpy.run_module("nlie", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.uninstall()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "spans": tracer.export()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
