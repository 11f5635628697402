"""tools/preset_diff.py compare: what a differing manifest differs in, and the exit status."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "preset_diff.py"
_SPEC = importlib.util.spec_from_file_location("preset_diff", _PATH)
preset_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(preset_diff)


def _write(directory: Path, manifest: str, csv: str) -> str:
    directory.mkdir()
    (directory / "run_manifest.txt").write_text(manifest, encoding="utf-8")
    (directory / "run.csv").write_text(csv, encoding="utf-8")
    return str(directory)


def test_a_differing_manifest_names_each_differing_line_and_exits_1(tmp_path, capsys):
    csv = "iteration,max_error\n0,1.0\n1,0.5\n"
    old = _write(tmp_path / "old", "method = dnwr\ninitial_error = 2.0\niterations = 7\n", csv)
    new = _write(tmp_path / "new", "method = nnwr\ninitial_error = 2.5\niterations = 7\n", csv)
    assert preset_diff.main(["compare", old, new]) == 1
    out = capsys.readouterr().out.splitlines()
    at = out.index("run_manifest.txt: manifest differs")
    assert out[at + 1 : at + 3] == [
        "  method: dnwr -> nnwr",
        "  initial_error: 2.0 -> 2.5 (relative +2.50e-01)",
    ]
    assert "run.csv: identical" in out
    assert out[-1].startswith("manifests 0/1 identical, CSVs 1/1 identical")


def test_equal_directories_exit_0(tmp_path, capsys):
    text, csv = "initial_error = 2.0\n", "iteration,max_error\n0,1.0\n"
    old = _write(tmp_path / "old", text, csv)
    new = _write(tmp_path / "new", text, csv)
    assert preset_diff.main(["compare", old, new]) == 0
    assert "manifests 1/1 identical, CSVs 1/1 identical" in capsys.readouterr().out
