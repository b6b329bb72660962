"""One cold folindex CLI run with tracing installed, for the traced cli_cold pass.

Usage: python3 perfbench/traced_cli.py SPANS_OUT CLI_ARG...

Times ``import folindex.cli``, installs the wrappers, runs
``folindex.cli.main(CLI_ARG...)`` and writes the span aggregate and the
start-up figures to SPANS_OUT as JSON.  Exits with main's exit code.
"""

import json
import sys
import time

from tracer import SYMPY_IMPORT, Recorder, install


def main(argv):
    spans_out, cli_argv = argv[0], argv[1:]
    rec = Recorder()
    start = time.perf_counter()
    import folindex.cli
    import_folindex_s = time.perf_counter() - start
    uninstall = install(rec)
    try:
        code = folindex.cli.main(cli_argv)
    finally:
        uninstall()
        startup = {"import_folindex_s": import_folindex_s,
                   "import_sympy_s": rec.self_s.get(SYMPY_IMPORT, 0.0),
                   "sympy_loaded": rec.calls[SYMPY_IMPORT] > 0}
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump({"trace": rec.as_dict(), "startup": startup}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
