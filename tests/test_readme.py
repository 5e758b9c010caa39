"""README's Python quick start runs as written."""

import contextlib
import io
import math
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs_as_written():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Quick start (library)"):]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md quick start", "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[0] == "spamhmm"
    assert math.isfinite(float(lines[-1]))
