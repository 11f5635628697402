"""The README's library example runs as written."""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, f"{README}:Library use", "exec"), {})
    converged_at, last_error = out.getvalue().split()
    assert int(converged_at) > 0 and float(last_error) <= 1e-8
