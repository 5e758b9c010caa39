"""README's Python quick start and command-line walkthrough run as written."""

import contextlib
import io
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys

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


def test_command_line_walkthrough_runs_as_written(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    start = text.index("## Command-line walkthrough")
    section = text[start:text.index("\n## ", start + 1)]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    script = re.search(r"```bash\n(.*?)```", section, re.DOTALL).group(1)
    names = set(re.findall(r"[\w.-]+\.(?:jsonl|json|csv)\b", code + script))
    assert {"demo-truth.json", "model.json", "summary.json"} <= names
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md walkthrough", "exec"), {})
    script = script.replace("graphhmm ", f"{shlex.quote(sys.executable)} -m graphhmm.cli ")
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(["bash", "-e", "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    missing = sorted(name for name in names | {"model.json.train.csv"}
                     if not (tmp_path / name).is_file())
    assert not missing
    assert "auc" in json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
