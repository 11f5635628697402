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


def test_the_bound_column_is_judged_by_its_relative_change(tmp_path, capsys):
    # The bound is the initial error times an envelope that may exceed
    # one many times over: a 5.7e-14 relative move of a bound of 2 would
    # read as 1.1e-10 of an initial error of 1e-3.
    manifest = "initial_error = 0.001\n"
    moved = 2.0 + 2.0**-43
    old = _write(tmp_path / "old", manifest, "iteration,err_max,bound\n1,0.5,2.0\n2,0.25,1.0\n")
    new = _write(tmp_path / "new", manifest, f"iteration,err_max,bound\n1,0.5,{moved!r}\n2,0.25,1.0\n")
    assert preset_diff.main(["compare", old, new]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "run.csv: bound: max relative 5.68e-14" in out
    assert out[-1].endswith("largest max|d|/initial_error over all CSVs: 0.00e+00")
