"""Traced cli child: times the import of bvmsheaf.cli, installs the probes,
runs bvmsheaf.cli.main on the remaining arguments, and dumps its spans.

Usage: python cli_child.py <dump.json> <bvmsheaf cli arguments...>
(with the checkout's src/ on PYTHONPATH).

The package is imported before any benchmark module, so the standard
library modules it needs are paid for inside cli.import_s, as they are in
an untraced `python -m bvmsheaf.cli`.
"""

import sys
import time

IMPORT_START = time.perf_counter()
import bvmsheaf.cli  # noqa: E402
IMPORT_END = time.perf_counter()


def main() -> int:
    import spans

    dump, args = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.add_span("cli.import_s", IMPORT_START, IMPORT_END)
    spans.install(tracer)
    sys.argv = ["bvmsheaf", *args]
    code = 0
    try:
        bvmsheaf.cli.main()
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.dump(dump)
    return code


if __name__ == "__main__":
    sys.exit(main())
