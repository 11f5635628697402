"""wrkit benchmark: time to tolerance end to end, and a traced per-layer split.

Run from the root of a checkout (the program is imported from ``src/``):

    python3 perfbench/run.py --workload chains_1d --seed 1 --seconds 55 --trace 0

One replay sets each part of a workload up (configs, problem, grids,
guesses and the monodomain reference), runs its drivers to tolerance and
computes the envelope overlay. The benchmark repeats replays for
``--seconds`` and reports the mean time of a replay. With ``--trace 0``
it prints the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced replays
and prints the per-layer metrics, the tracing overhead and by how much the
self times of the layer calls inside the drivers miss the untraced solve
time (the drivers' own time and the tracing overhead make up the gap).
Every replay is checked (see ``checks.py``), and a part with
fixed-point data is solved once more, untimed, for its fixed-point
check. The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Spans and the run record are
written to ``.perfbench_out/`` at the end.

``--smoke`` swaps in small grids; ``--write-digest`` regenerates the
stored reference digests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

# The program under test is the checkout's own source tree.
_SRC = ROOT / "src"
if not (_SRC / "wrkit" / "__init__.py").is_file():
    sys.exit(f"error: the wrkit sources are not in {_SRC}")
sys.path.insert(0, str(_SRC))

import numpy  # noqa: E402
import scipy  # noqa: E402
from checks import (  # noqa: E402
    DIGEST_PATH,
    digest_key,
    fixed_point_failures,
    load_digests,
    replay_failures,
    trace_digest,
)
from spans import Tracer, layer_metrics, no_span, replay_layers  # noqa: E402
from workloads import WORKLOADS, envelope, fixed_point, set_up, solve  # noqa: E402

# Replays per run at the least, whatever --seconds says: untraced
# replays in an untraced run, and each kind in a traced run.
MIN_UNTRACED = 3
MIN_EACH_TRACED = 2

# Layer self times inside the drivers should add up to the untraced solve
# time within this; the reconcile line reports it, it fails no replay.
RECONCILE_TOL = 0.10

@dataclass
class Replay:
    setup_s: float
    solve_s: float
    wall_s: float
    sweeps: dict[str, int]  # by method
    part_sweeps: dict[str, int]
    failures: list[str]


def replay(parts, span) -> Replay:
    """Per part: set up, solve to tolerance, overlay the envelope; time and check it.

    ``parts`` holds (part, config texts, reference digest) triples. Times
    and sweeps are summed over the parts.
    """
    result = Replay(setup_s=0.0, solve_s=0.0, wall_s=0.0, sweeps={}, part_sweeps={}, failures=[])
    for part, texts, digest in parts:
        start = time.perf_counter()
        with span("harness.setup"):
            prepared = set_up(texts)
        setup_s = time.perf_counter() - start
        solve_s, histories = solve(prepared, span)
        start = time.perf_counter()
        overlay = envelope(prepared, histories[0][1]) if part.envelope else None
        envelope_s = time.perf_counter() - start
        result.setup_s += setup_s
        result.solve_s += solve_s
        result.wall_s += setup_s + solve_s + envelope_s
        for method, history in histories:
            result.sweeps[method] = result.sweeps.get(method, 0) + history.iterations
        result.part_sweeps[part.name] = sum(history.iterations for _, history in histories)
        result.failures += [
            f"{part.name}: {line}"
            for line in replay_failures(histories, prepared.reference, digest, overlay)
        ]
    return result


def measure(parts, seconds: float, traced: bool):
    """Replay for ``seconds``; alternate untraced and traced replays if asked.

    One untimed set-up per part warms the process first.

    Returns the untraced replays, the traced replays with their per-layer
    sums, the number attempted and failed, and the tracer.
    """
    tracer = Tracer()
    untraced: list[Replay] = []
    traced_runs: list[tuple[Replay, dict]] = []
    attempted = failed = 0
    durations: list[float] = []
    for _, texts, _ in parts:
        set_up(texts)
    deadline = time.perf_counter() + seconds
    while True:
        with_trace = traced and attempted % 2 == 1
        attempted += 1
        start = time.perf_counter()
        try:
            if with_trace:
                tracer.replay = attempted
                with tracer.installed():
                    result = replay(parts, tracer.span)
            else:
                result = replay(parts, no_span)
        except Exception:
            traceback.print_exc()
            failed += 1
        else:
            if result.failures:
                failed += 1
                for line in result.failures:
                    print(f"check failed: {line}", file=sys.stderr)
            if with_trace:
                traced_runs.append((result, replay_layers(tracer.spans, attempted)))
            else:
                untraced.append(result)
        if traced:
            enough = len(untraced) >= MIN_EACH_TRACED and len(traced_runs) >= MIN_EACH_TRACED
        else:
            enough = len(untraced) >= MIN_UNTRACED
        durations.append(time.perf_counter() - start)
        # Stop when the next replay would likely end past the deadline.
        if time.perf_counter() + statistics.median(durations) > deadline and (
            enough or failed >= MIN_UNTRACED
        ):
            break
    return untraced, traced_runs, attempted, failed, tracer


def end_to_end(untraced: list[Replay]) -> dict[str, tuple[float, str]]:
    """Times are means over the replays, ``sweeps`` is the median count.

    On a shared host the speed of a replay moves between a few levels,
    each held for some seconds. A median snaps from one level to another
    as their shares of the run change; the mean follows the shares, so
    it spreads less from run to run.
    """
    mean = statistics.fmean
    sweeps = statistics.median(sum(r.sweeps.values()) for r in untraced)
    return {
        "setup_s": (mean(r.setup_s for r in untraced), "s"),
        "solve_s": (mean(r.solve_s for r in untraced), "s"),
        "wall_s": (mean(r.wall_s for r in untraced), "s"),
        "sweep_ms": (mean(1e3 * r.solve_s / sum(r.sweeps.values()) for r in untraced), "ms"),
        "sweeps": (sweeps, "count"),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu
            )
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def write_digests() -> None:
    out = {}
    for part in (part for workload in WORKLOADS.values() for part in workload.parts):
        for smoke in (False, True):
            prepared = set_up(part.configs(0, smoke))
            out[digest_key(part.name, smoke)] = [trace_digest(tr.samples) for tr in prepared.reference]
            if part.fixed_point_data:
                _, history = fixed_point(part, 0, smoke)
                out[digest_key(part.name, smoke, fixed_point=True)] = [
                    trace_digest(tr.samples) for tr in history.dirichlet[-1]
                ]
    DIGEST_PATH.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {DIGEST_PATH}")


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", choices=tuple(WORKLOADS))
    p.add_argument("--seed", type=int, default=1, help="fills the guess = random(seed) token")
    p.add_argument("--seconds", type=float, default=55.0, help="how long to keep replaying")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="small grids, for a quick check")
    p.add_argument("--write-digest", action="store_true", help="regenerate digest.json and exit")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.write_digest:
        write_digests()
        return 0
    if args.workload is None:
        print("error: --workload is required", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    guess_seed = abs(args.seed)
    digests = load_digests()
    parts = [
        (part, part.configs(guess_seed, args.smoke), digests[digest_key(part.name, args.smoke)])
        for part in workload.parts
    ]
    info = {
        "workload": workload.name,
        "why": workload.why,
        "parts": {part.name: part.why for part in workload.parts},
        "seed": args.seed,
        "guess": f"random({guess_seed})",
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "machine": machine(),
        "configs": {part.name: list(texts) for part, texts, _ in parts},
    }
    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed} (guess = random({guess_seed})), seconds {args.seconds:g}, trace {args.trace}")
    print("machine " + " ".join(f"{k}={v}" for k, v in info["machine"].items()))
    for part, texts, _ in parts:
        print(f"part {part.name}: {part.why}")
        for i, text in enumerate(texts, start=1):
            print(f"config {part.name} {i}:")
            print("".join(f"  {line}\n" for line in text.splitlines()), end="")

    untraced, traced_runs, attempted, failed, tracer = measure(parts, args.seconds, bool(args.trace))
    if not untraced or (args.trace and not traced_runs):
        print("error: no replay completed", file=sys.stderr)
        return 1

    e2e = end_to_end(untraced)
    for part in workload.parts:
        if not part.fixed_point_data:
            continue
        # once per run, after the timed replays and the RSS reading: one more attempt
        attempted += 1
        try:
            prepared, history = fixed_point(part, guess_seed, args.smoke)
            problems = fixed_point_failures(
                history,
                prepared.reference,
                digests[digest_key(part.name, args.smoke, fixed_point=True)],
            )
        except Exception:
            traceback.print_exc()
            problems = ["fixed point: raised"]
        for line in problems:
            print(f"check failed: {part.name}: {line}", file=sys.stderr)
        failed += bool(problems)
    metrics = {**e2e, "fail_frac": (failed / attempted, "ratio")}
    layers = {}
    if args.trace:
        layers = layer_metrics(
            [layer for _, layer in traced_runs],
            [r.sweeps for r, _ in traced_runs],
            [r.wall_s for r, _ in traced_runs],
            [r.wall_s for r in untraced],
            [r.solve_s for r in untraced],
        )
        metrics.update(layers)
        gap = layers["trace.unaccounted_frac"][0]
        verdict = "within" if gap <= RECONCILE_TOL else "OUTSIDE"
        print(
            f"reconcile: layer self times inside the drivers miss the untraced solve_s by {gap:.2%}, "
            f"{verdict} {RECONCILE_TOL:.0%}"
        )
    print(f"replays: {len(untraced)} untraced, {len(traced_runs)} traced, {failed} of {attempted} failed")
    print("sweeps by part: " + ", ".join(f"{k} {v}" for k, v in untraced[0].part_sweeps.items()))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")

    OUT_DIR.mkdir(exist_ok=True)
    record = dict(
        info,
        replays={
            "fields": ["setup_s", "solve_s", "wall_s", "part_sweeps"],
            "rows": [[r.setup_s, r.solve_s, r.wall_s, r.part_sweeps] for r in untraced],
        },
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    if args.trace:
        record["spans"] = {"fields": ["name", "start", "end", "parent", "replay", "shape"], "rows": tracer.spans}
    suffix = "-smoke" if args.smoke else ""
    path = OUT_DIR / f"{workload.name}{suffix}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")

    reported = layers if args.trace else e2e
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
