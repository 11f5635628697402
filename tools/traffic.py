"""Print the lines of ``src/wrkit`` that no preset run and no benchmark smoke replay executes.

    python3 tools/traffic.py [FILE ...]

Run from the root of a checkout; the program is imported from ``src/``.
Every shipped preset runs through ``wrkit.harness.cli.main`` into a
temporary directory, then each perfbench workload replays once at its
smoke sizes with guess seed 1: set-up, solve, the envelope overlay and,
where a part has one, its fixed-point solve (``perfbench/workloads.py``,
as ``tools/bench.py`` uses it). All of it runs under ``sys.settrace``,
limited to the files under ``src/wrkit``, imports included. For each
function (class bodies and module code too) the script prints the
executable lines that none of the runs reached, then the total.
``FILE`` limits the report to files whose path under ``src/wrkit`` ends
with it, such as ``methods/workspace.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wrkit"
SEED = 1


def _run_everything(out_dir: str) -> None:
    """Every preset through the CLI, then one smoke replay of each benchmark workload."""
    from wrkit.harness import preset_names
    from wrkit.harness.cli import main

    for name in preset_names():
        with contextlib.redirect_stdout(io.StringIO()):
            if main(["preset", name, "--out", out_dir]) != 0:
                raise SystemExit(f"preset {name} failed")
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS, envelope, fixed_point, set_up, solve

    for workload in WORKLOADS.values():
        for part in workload.parts:
            prepared = set_up(part.configs(SEED, True))
            _, histories = solve(prepared, lambda name: contextlib.nullcontext())
            if part.envelope:
                envelope(prepared, histories[0][1])
            if part.fixed_point_data:
                fixed_point(part, SEED, True)


def _executed() -> set[tuple[str, int]]:
    """The (file, line) pairs under ``src/wrkit`` that the runs execute."""
    prefix = str(PACKAGE) + "/"
    seen: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def start(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as out_dir:
        sys.settrace(start)
        try:
            _run_everything(out_dir)
        finally:
            sys.settrace(None)
    return seen


def _functions(path: Path):
    """``(qualified name, executable lines)`` of each code object compiled from ``path``."""
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        lines = {line for _, _, line in code.co_lines() if line is not None and line > 0}
        yield code.co_qualname, lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("files", nargs="*", help="report only files whose path under src/wrkit ends with one of these")
    args = p.parse_args(argv)

    seen = _executed()
    total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        name = path.relative_to(PACKAGE).as_posix()
        if args.files and not any(name.endswith(f) for f in args.files):
            continue
        rows = []
        for qualname, lines in _functions(path):
            missed = sorted(line for line in lines if (str(path), line) not in seen)
            if missed:
                rows.append((missed[0], qualname, missed))
        for _, qualname, missed in sorted(rows):
            total += len(missed)
            print(f"{name}: {qualname}: {len(missed)} not run: {', '.join(map(str, missed))}")
    print(f"total: {total} executable lines not run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
