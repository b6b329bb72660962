"""The README's Python examples run and show what their comments say."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples_run_as_shown():
    # the blocks share one namespace, as a reader typing them in order would;
    # a line "expr   # value" must evaluate to value, and a comment line on
    # its own is the block's printed output
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(block, namespace)
        lines = block.splitlines()
        assert out.getvalue().splitlines() == [ln[2:] for ln in lines if ln.startswith("# ")]
        for line in lines:
            m = re.fullmatch(r"(\S.*?)\s+# (.+)", line)
            if m:
                assert eval(m[1], namespace) == eval(m[2], namespace), line
