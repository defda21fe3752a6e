"""mildsde benchmark: whole config files through ``cli.parse_config`` and ``cli.run``.

    python3 bench/run.py --workload cubic-rd --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 20260809 --seconds 40

The workload's config is copied with ``--seed`` written into its
``[experiment] seed`` key, so the parse-time margin is sampled with that seed
too, and repetitions of it run one after another, each in a fresh process,
for about ``--seconds``.  Every repetition must exit 0 with every verdict
PASS and write the same artifact bytes as the first; the last line of the
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics: set-up time (``parse_config``),
run time (``cli.run``) and peak resident memory.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics of the
traced ones (see ``spans.py``) plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Why each workload exists is recorded in BENCHMARK.json and fine-path.cfg.
WORKLOADS = {
    "acceptance": ROOT / "configs" / "acceptance.cfg",
    "cubic-rd": ROOT / "configs" / "cubic-rd.cfg",
    "fine-path": BENCH / "fine-path.cfg",
}

BLAS_THREADS = 1
HARD_LIMIT_S = 170.0  # per workload, including a repetition that hangs
MIN_REPETITIONS = 2   # the byte-identity check needs two runs at one seed
# Traced counters that read 0 on every workload.  They are printed, and the
# gate requires them to repeat between traced repetitions, but they are not
# benchmark metrics.
UNREPORTED = (".blowups", ".stiffness_warnings")


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
    }


def seeded_config(source: Path, seed: int, output_dir: Path) -> str:
    """The config text with ``seed`` and the output directory replaced."""
    text = source.read_text()
    text, seeds = re.subn(r"(?m)^seed\s*=.*$", f"seed = {seed}", text)
    text, dirs = re.subn(r"(?m)^directory\s*=.*$", f"directory = {output_dir}", text)
    if seeds != 1 or dirs != 1:
        raise ValueError(f"{source}: expected one seed and one directory key, "
                         f"found {seeds} and {dirs}")
    return text


def run_child(config: Path, trace: bool, timeout: float) -> dict:
    cmd = [sys.executable, str(BENCH / "repetition.py"), str(config)] + \
        (["--trace"] if trace else [])
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"crash": f"repetition killed after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crash": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def high_percentile(values):
    """(percentile, value) of the highest percentile with ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Run repetitions for about ``seconds``; returns their raw results."""
    config = workdir / f"{workload}.cfg"
    config.write_text(seeded_config(WORKLOADS[workload], seed, workdir / "out"))
    reps, walls = [], []
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        traced_turn = trace and len(reps) % 2 == 1
        if len(reps) >= MIN_REPETITIONS and \
                elapsed + statistics.median(walls) > seconds:
            break
        began = perf_counter()
        reps.append(run_child(config, traced_turn, max(HARD_LIMIT_S - elapsed, 1.0)))
        walls.append(perf_counter() - began)
    return {"reps": reps, "elapsed": perf_counter() - start}


def gate(reps) -> tuple:
    """(problems, attempted, failed) over every repetition."""
    problems = []
    attempted = failed = 0
    reference = None
    counts = None
    for i, rep in enumerate(reps):
        if "crash" in rep:
            problems.append(f"repetition {i} crashed: {rep['crash']}")
            attempted += 1
            failed += 1
            continue
        names = rep["experiments"]
        attempted += len(names)
        bad = [n for n in names if rep["verdicts"].get(n) != "PASS"]
        failed += len(bad)
        if bad:
            problems.append(f"repetition {i}: not PASS: "
                            + ", ".join(f"{n}={rep['verdicts'].get(n, 'none')}" for n in bad))
        if rep["error"] is not None:
            problems.append(f"repetition {i} raised {rep['error']}")
        if rep["status"] != 0:
            problems.append(f"repetition {i} exit status {rep['status']}")
        if not rep["artifacts"]:
            problems.append(f"repetition {i} wrote no artifacts")
        if reference is None:
            reference = rep["artifacts"]
        elif rep["artifacts"] != reference:
            changed = sorted(set(reference.items()) ^ set(rep["artifacts"].items()))
            problems.append(f"repetition {i} artifacts differ from repetition 0: "
                            + ", ".join(sorted({k for k, _ in changed})))
        if rep["trace"]:
            layer_counts = {k: v for k, v in rep["layers"].items()
                            if layer_unit(k) not in ("s", "us")}
            if counts is None:
                counts = layer_counts
            elif layer_counts != counts:
                problems.append(f"repetition {i} traced counts differ from the first traced one")
    return problems, attempted, failed


def summarize(workload: str, seed: int, trace: bool, result: dict) -> dict:
    reps = [r for r in result["reps"] if "crash" not in r]
    plain = [r for r in reps if not r["trace"]]
    traced = [r for r in reps if r["trace"]]
    problems, attempted, failed = gate(result["reps"])
    metrics = {}
    lines = [f"workload {workload}, seed {seed}: {len(result['reps'])} repetitions "
             f"in {result['elapsed']:.1f} s"]

    def report(name, values, unit):
        value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
        q1, q3 = quartiles(values)
        line = f"  {name} = {value:.6g} {unit}  (median of n={len(values)}, q1 {q1:.6g}, q3 {q3:.6g}"
        high = high_percentile(values)
        if high is not None:
            line += f", p{high[0]:.0f} {high[1]:.6g}"
        lines.append(line + ")")
        lines.append(f"    samples: {' '.join(f'{v:.4g}' for v in values)}")

    if not trace and plain:
        report("setup_s", [t for r in plain for t in r["setup_s"]], "s")
        report("run_s", [r["run_s"] for r in plain], "s")
        report("peak_rss_mb", [r["peak_rss_mb"] for r in plain], "MB")
    if trace and traced and plain:
        first = traced[0]
        traced_run_s = statistics.median(r["run_s"] for r in traced)
        overhead = traced_run_s / statistics.median(r["run_s"] for r in plain) - 1.0
        lines.append(f"  traced run_s = {traced_run_s:.6g} s (median of n={len(traced)})")
        for name in first["layers"]:
            values = [r["layers"][name] for r in traced]
            unit = layer_unit(name)
            value = statistics.median(values) if unit in ("s", "us") else values[0]
            if name.rsplit(".", 1)[0] not in first["idle"]:
                share = f"  ({value / traced_run_s:.1%} of traced run_s)" if unit == "s" else ""
                lines.append(f"  {name} = {value:.6g} {unit}{share}")
            if not name.endswith(UNREPORTED):
                metrics[name] = {"value": value, "unit": unit}
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
        lines.append(f"  trace.overhead_frac = {overhead:.6g} ratio")
        if first["idle"]:
            lines.append("  not called on this workload (reported as 0): "
                         + ", ".join(first["idle"]))
        if first["missing"]:
            lines.append("  missing targets (no metrics reported): " + ", ".join(first["missing"]))
    lines.append(f"  failed_frac = {failed / max(attempted, 1):.6g} ratio  "
                 f"({failed} of {attempted} experiments failed or not PASS)")
    lines.extend(f"  problem: {p}" for p in problems)
    print("\n".join(lines), flush=True)
    return {"correct": not problems and bool(metrics), "attempted": max(attempted, 1),
            "failed": failed, "metrics": metrics}


def layer_unit(name: str) -> str:
    if name.endswith(".s"):
        return "s"
    if ".us_per_" in name:
        return "us"
    if name.endswith((".distinct_frac", ".overhead_frac")):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [ROOT / "src" / "mildsde" / "__init__.py"] + list(WORKLOADS.values())
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if absent:
        print(f"error: missing from the checkout: {', '.join(absent)}", file=sys.stderr)
        return 2

    print("environment: " + json.dumps(environment()), flush=True)
    workloads = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    workdir = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    results = {}
    try:
        for workload in workloads:
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            raw = measure(workload, args.seed, args.seconds, bool(args.trace), workdir)
            results[workload] = summarize(workload, args.seed, bool(args.trace), raw)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
