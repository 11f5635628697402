"""Write every shipped preset, or compare two such output directories.

    PYTHONPATH=src python3 tools/preset_diff.py run DIR
    python3 tools/preset_diff.py compare OLD NEW

``run`` executes all presets with whichever ``wrkit`` is importable and
writes each preset's ``<label>.csv`` and ``<label>_manifest.txt`` into
DIR. ``compare`` prints one line per file found in either directory:
``identical``, or for a CSV that differs in value, the largest |delta|
per differing column divided by the run's ``initial_error`` (read from
its manifest), and the largest |delta| / |old value| in that column.
The ``bound`` column, an envelope whose values may lie far below the
errors, is judged by its relative change alone.
Under a manifest that differs, one indented line per differing manifest
line gives its key with the old and new values, and their relative
change when both are numbers.
A last line counts the identical manifests and CSVs, and gives the
largest |delta| / initial_error over all CSVs' error columns and names
its preset.
It exits 1 when a file is missing from one side, a manifest differs,
or two CSVs disagree in header or row count; value differences alone
exit 0, since judging them is the reader's job.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import sys
from pathlib import Path


def _run(directory: str) -> int:
    from wrkit.harness import load_config, preset_names, preset_text, run_experiment, with_out_dir

    for name in preset_names():
        run_experiment(with_out_dir(load_config(preset_text(name)), directory))
        print(f"wrote {name}")
    return 0


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _initial_error(manifest: Path) -> float | None:
    for line in manifest.read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition(" = ")
        if sep and key == "initial_error":
            return float(value)
    return None


def _csv_delta(old: Path, new: Path, scale: float | None) -> tuple[bool, str, float]:
    """(fatal, description, largest |delta| / initial_error) of how two preset CSVs differ.

    The last is over the error columns, and 0 when there is no
    ``initial_error`` to scale by; ``bound`` gets its relative change only.
    """
    a, b = _rows(old), _rows(new)
    if a[0] != b[0] or len(a) != len(b):
        return True, f"header or row count differs ({len(a) - 1} vs {len(b) - 1} rows)", 0.0
    parts = []
    worst = 0.0
    for col, name in enumerate(a[0]):
        olds = [float(row[col]) for row in a[1:]]
        news = [float(row[col]) for row in b[1:]]
        delta = max((abs(x - y) for x, y in zip(olds, news)), default=0.0)
        if delta == 0.0:
            continue
        rel = max(abs(x - y) / abs(x) if x else float("inf") for x, y in zip(olds, news) if x != y)
        if name == "bound":
            parts.append(f"{name}: max relative {rel:.2e}")
            continue
        rel_err0 = f"{delta / scale:.2e}" if scale else "n/a"
        if scale:
            worst = max(worst, delta / scale)
        parts.append(f"{name}: max|d|/initial_error {rel_err0}, max relative {rel:.2e}")
    return False, "; ".join(parts) if parts else "same values, different text", worst


def _manifest_delta(old: Path, new: Path) -> list[str]:
    """One line per manifest line that differs: its key, old and new values, and their relative change."""
    a, b = (path.read_text(encoding="utf-8").splitlines() for path in (old, new))
    lines = []
    for i, (x, y) in enumerate(itertools.zip_longest(a, b, fillvalue=""), start=1):
        if x == y:
            continue
        key, _, old_value = x.partition(" = ")
        new_key, _, new_value = y.partition(" = ")
        if key != new_key:
            lines.append(f"line {i}: {x!r} -> {y!r}")
            continue
        text = f"{key}: {old_value} -> {new_value}"
        try:
            u, v = float(old_value), float(new_value)
        except ValueError:
            pass
        else:
            text += f" (relative {(v - u) / abs(u):+.2e})" if u else ""
        lines.append(text)
    return lines


def _compare(old_dir: str, new_dir: str) -> int:
    old, new = Path(old_dir), Path(new_dir)
    names = sorted({p.name for p in old.iterdir()} | {p.name for p in new.iterdir()})
    failed = False
    worst, worst_name = 0.0, None
    kinds = {"manifests": "_manifest.txt", "CSVs": ".csv"}
    same = dict.fromkeys(kinds, 0)
    for name in names:
        a, b = old / name, new / name
        if not a.is_file() or not b.is_file():
            print(f"{name}: missing in {old_dir if not a.is_file() else new_dir}")
            failed = True
        elif a.read_bytes() == b.read_bytes():
            print(f"{name}: identical")
            for kind, end in kinds.items():
                same[kind] += name.endswith(end)
        elif name.endswith("_manifest.txt"):
            print(f"{name}: manifest differs")
            for line in _manifest_delta(a, b):
                print(f"  {line}")
            failed = True
        elif name.endswith(".csv"):
            manifest = new / name.replace(".csv", "_manifest.txt")
            scale = _initial_error(manifest) if manifest.is_file() else None
            fatal, text, delta = _csv_delta(a, b, scale)
            print(f"{name}: {text}")
            failed = failed or fatal
            if delta > worst:
                worst, worst_name = delta, name.removesuffix(".csv")
        else:
            print(f"{name}: differs")
            failed = True
    where = f" ({worst_name})" if worst_name else ""
    counts = ", ".join(
        f"{kind} {same[kind]}/{sum(n.endswith(end) for n in names)} identical"
        for kind, end in kinds.items()
    )
    print(f"{counts}; largest max|d|/initial_error over all CSVs: {worst:.2e}{where}")
    return 1 if failed else 0


def main(argv=None) -> int:
    top = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = top.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="write every preset into DIR")
    run.add_argument("dir")
    cmp = sub.add_parser("compare", help="compare two directories written by run")
    cmp.add_argument("old")
    cmp.add_argument("new")
    args = top.parse_args(argv)
    if args.command == "run":
        return _run(args.dir)
    return _compare(args.old, args.new)


if __name__ == "__main__":
    sys.exit(main())
