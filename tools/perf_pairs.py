"""Alternating perfbench pairs of a git revision and this tree, and their verdict.

    python3 tools/perf_pairs.py against REV --workload W [--pairs 10] [--seconds S]

``against`` extracts ``git archive REV`` of this repository into a
temporary directory and runs ``perfbench/run.py --workload W --seed 1
--trace 0 --seconds S`` in that tree and in this one, ``--pairs`` times
each, alternating which of the two goes first. ``S`` defaults to the
``run_seconds`` of ``BENCHMARK.json``. Each run prints one line with its
end-to-end metrics. Then, for each end-to-end metric that
``BENCHMARK.json`` lists, one line gives REV's median, this tree's
median and their relative change, REV's interquartile range, how many
pairs this tree won (ties count for neither side), and whether this
tree's median is worse than REV's by more than the metric's bound.
It exits 1 when any run reports ``correct: false`` or ``failed > 0``.

This script imports neither numpy nor wrkit: a child's ``ru_maxrss``,
which perfbench reports as ``peak_rss_mb``, starts at its parent's peak
resident set on Linux.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Verdict:
    """One end-to-end metric over the pairs: medians, REV's IQR, this tree's wins, the bound."""

    name: str
    parent_median: float
    change_median: float
    parent_iqr: float
    wins: int
    pairs: int
    worse: bool

    def line(self) -> str:
        change = (self.change_median - self.parent_median) / self.parent_median if self.parent_median else 0.0
        return (
            f"{self.name}: parent {self.parent_median:.6g}, change {self.change_median:.6g} "
            f"({change:+.1%}), parent IQR {self.parent_iqr:.3g}, change wins {self.wins}/{self.pairs}, "
            f"worse than the bound: {'yes' if self.worse else 'no'}"
        )


def summarize(end_to_end: list[dict], parent: list[dict], change: list[dict]) -> list[Verdict]:
    """The verdict on each metric of ``end_to_end`` (``BENCHMARK.json``'s entries).

    ``parent`` and ``change`` hold the metric values of each run, as
    ``{name: value}``, the i-th of each making pair i. A metric is worse
    than its bound when this tree's median exceeds REV's by more than
    ``bound`` times REV's median, in the direction the metric's
    ``better`` calls worse.
    """
    out = []
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        old = [run[name] for run in parent]
        new = [run[name] for run in change]
        old_median, new_median = statistics.median(old), statistics.median(new)
        q1, _, q3 = statistics.quantiles(old, n=4, method="inclusive") if len(old) > 1 else (old[0],) * 3
        wins = sum((b < a) if lower else (b > a) for a, b in zip(old, new))
        excess = (new_median - old_median) if lower else (old_median - new_median)
        worse = excess > metric["bound"] * abs(old_median)
        out.append(Verdict(name, old_median, new_median, q3 - q1, wins, len(old), worse))
    return out


def _run(tree: Path, workload: str, seconds: float) -> dict:
    """The last stdout line of one perfbench run in ``tree``, as JSON."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--trace", "0",
        "--seconds", repr(seconds),
    ]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if done.returncode:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"error: perfbench exited {done.returncode} in {tree}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _against(rev: str, workload: str, pairs: int, seconds: float | None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"] if seconds is None else seconds
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], capture_output=True)
    if archive.returncode:
        print(archive.stderr.decode(errors="replace").strip(), file=sys.stderr)
        return 2
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp, filter="data")
        trees = {"parent": Path(tmp), "change": ROOT}
        for i in range(pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result = _run(trees[side], workload, seconds)
                metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
                runs[side].append(metrics)
                ok = ok and result["correct"] and result["failed"] == 0
                shown = " ".join(f"{m['name']}={metrics[m['name']]:.6g}" for m in bench["end_to_end"])
                print(f"pair {i + 1} {side}: correct {result['correct']}, failed {result['failed']}, {shown}", flush=True)
    for verdict in summarize(bench["end_to_end"], runs["parent"], runs["change"]):
        print(verdict.line())
    return 0 if ok else 1


def main(argv=None) -> int:
    top = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = top.add_subparsers(dest="command", required=True)
    against = sub.add_parser("against", help="alternate perfbench runs of a git revision and this tree")
    against.add_argument("rev")
    against.add_argument("--workload", required=True)
    against.add_argument("--pairs", type=int, default=10)
    against.add_argument("--seconds", type=float, default=None)
    args = top.parse_args(argv)
    return _against(args.rev, args.workload, args.pairs, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
