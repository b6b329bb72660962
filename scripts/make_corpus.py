"""Refresh the stored corpus reports from the checked-in problems and manifest.

`corpus/problems/*.json` and `corpus/manifest.json` define the corpus; each
manifest entry names a problem file, the argv that consumes it and the
report it should produce.  This script reruns every entry through the CLI
and writes its report in place, so after a deliberate change to the report
format `git diff -- corpus/` shows exactly what moved.  Every entry must
exit 0.  Run from the repository root:

    python3 scripts/make_corpus.py
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from folindex.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1] / "corpus"


def refresh():
    entries = json.loads((ROOT / "manifest.json").read_text())["entries"]
    for e in entries:
        code = main(list(e["argv"]) + ["--input", str(ROOT / e["problem"]),
                                       "--json", str(ROOT / e["report"])])
        if code != 0:
            raise SystemExit(f"{e['name']}: exit {code}")
    print(f"refreshed {len(entries)} reports")


if __name__ == "__main__":
    refresh()
