"""Run ``laxfib.cli`` under the tracer: ``traced_cli.py OUT.json ARGS...``.

Behaves like ``python -m laxfib.cli ARGS...`` (same exit code, same output,
same traceback on an uncaught error) and writes the call's spans and layer
totals to OUT.json.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.abspath("src"))

from tracer import Tracer  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer(os.path.basename(out)).install()
    from laxfib import cli
    try:
        return cli.main(argv)
    finally:
        tracer.restore()
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
