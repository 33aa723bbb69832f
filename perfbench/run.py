#!/usr/bin/env python3
"""perfbench: the end-to-end benchmark of cc-fuzz, with a traced twin run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It builds the release `ccfuzz` /
`ccfuzzd` binaries and the `perfbench-tracer` replica (into
``$CARGO_TARGET_DIR``, default ``.bench_build``), then repeats the
workload's job in a closed loop for ``--seconds``, checking every output.

``--trace 0`` reports the end-to-end metrics (medians over the jobs).
``--trace 1`` pairs every job with its traced in-process twin (and the same
twin with span recording off) and reports the per-layer metrics, the
tracing overhead and where the wall time went.
The last stdout line is one JSON object: ``correct``, ``attempted`` and
``failed`` (evaluations; a job whose check fails counts all of its
evaluations as failed) and ``metrics``.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import layers  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

#: End-to-end metrics every run reports: (name, unit, better).
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("evals_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

#: Printed with the end-to-end table but not gated: a fixed seed fixes them
#: (best_score, shrink_ratio), or they are 0 when the build is correct.
REPORTED = [
    ("best_score", "score", "higher"),
    ("shrink_ratio", "share", "higher"),
    ("failed_frac", "share", "lower"),
]

def build(root):
    """Builds the binaries; returns (ccfuzz, ccfuzzd, tracer) paths."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "ccfuzz-corpus", "--bins"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join("perfbench", "tracer", "Cargo.toml")],
    ):
        r = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise SystemExit(f"perfbench: `{' '.join(cmd)}` failed")
    release = os.path.join(root, target, "release")
    return tuple(os.path.join(release, b) for b in ("ccfuzz", "ccfuzzd", "perfbench-tracer"))


def job_seed(seed, i):
    """GA seed of job ``i`` of a run: a pure function of the run's seed."""
    return (seed * 1000 + i + 1) % (1 << 63)


def closed_loop(seconds, job):
    """Runs ``job(i)`` back to back until ``seconds`` have passed (at least
    once)."""
    results, start = [], workloads.now()
    while True:
        results.append(job(len(results)))
        if workloads.now() - start >= seconds:
            return results


def _median_of(jobs, key):
    values = [j[key] for j in jobs if key in j]
    return stats.median(values) if values else 0.0


def end_to_end(jobs):
    good = [j for j in jobs if "setup_s" in j]
    rates = [j["evals"] / (j["wall_s"] - j["setup_s"]) for j in good if j["wall_s"] > j["setup_s"]]
    return {
        "wall_s": _median_of(good, "wall_s"),
        "setup_s": _median_of(good, "setup_s"),
        "evals_per_s": stats.median(rates) if rates else 0.0,
        "peak_rss_mb": _median_of(good, "peak_rss_mb"),
        "best_score": _median_of(good, "best_score"),
        "shrink_ratio": _median_of(good, "shrink_ratio"),
    }


def report_end_to_end(wl, jobs, values, failed_frac):
    print(f"{wl.name}: {len(jobs)} job(s). {wl.why}")
    for name, unit, better in END_TO_END + REPORTED:
        v = failed_frac if name == "failed_frac" else values[name]
        samples = [j[name] for j in jobs if name in j]
        extra = ""
        if len(samples) > 1:
            extra = f"  (n={len(samples)}, quartile spread {stats.quartile_spread(samples):.3f})"
        if name in ("best_score", "shrink_ratio") and not samples:
            print(f"  {name:<14} n/a    {unit} ({better} is better)")
        else:
            print(f"  {name:<14} {v:<12.6g} {unit} ({better} is better){extra}")


def report_layers(wl, metrics, tail_pct):
    print(f"{wl.name}: per-layer metrics (traced run)")
    layer = None
    for m in layers.LAYER_METRICS:
        if m["layer"] != layer:
            layer = m["layer"]
            print(f"  [{layer}] should move: {m['moves']}; barely: {m['flat']}")
        print(f"    {m['name']:<32} {metrics[m['name']]:<12.6g} {m['unit']}")
    print(f"  p99 columns are the p{tail_pct} (highest percentile with >= "
          f"{stats.MIN_BEYOND} samples beyond it; n={int(metrics['evaluate.samples'])})")


def print_checks(jobs):
    for i, j in enumerate(jobs):
        for line in j["checks"]:
            if not line.startswith("ok") or i == 0:
                print(f"  job {i}: {line}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    fixtures = os.path.join(root, "crates", "corpus", "fixtures")
    if not (os.path.isfile(os.path.join(root, "Cargo.toml")) and os.path.isdir(fixtures)):
        print("perfbench: run from the root of a cc-fuzz source checkout", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    ccfuzz, ccfuzzd, tracer = build(root)
    work = os.path.join(root, ".bench_work", f"{wl.name}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ctx = workloads.Context(ccfuzz, ccfuzzd, tracer, fixtures, work)
    try:
        if args.trace:
            def pair(i):
                seed = job_seed(args.seed, i)
                job = workloads.run_job(ctx, wl, seed, f"job{i}")
                traced = workloads.traced_job(ctx, wl, seed, f"trace{i}", job, plain_first=i % 2 == 1)
                for tag in (f"job{i}", f"trace{i}"):
                    shutil.rmtree(os.path.join(work, tag), ignore_errors=True)
                return job, traced

            pairs = closed_loop(args.seconds, pair)
            jobs = [p[0] for p in pairs] + [p[1] for p in pairs]
            if all(j["ok"] for j in jobs):
                metrics, tail_pct = layers.derive(wl, [p[0] for p in pairs], [p[1] for p in pairs])
                report_layers(wl, metrics, tail_pct)
            else:
                metrics = {m["name"]: 0.0 for m in layers.LAYER_METRICS}
        else:
            def one(i):
                job = workloads.run_job(ctx, wl, job_seed(args.seed, i), f"job{i}")
                shutil.rmtree(os.path.join(work, f"job{i}"), ignore_errors=True)
                return job

            jobs = closed_loop(args.seconds, one)
            values = end_to_end(jobs)
            attempted, failed = checks.tally(jobs)
            report_end_to_end(wl, jobs, values, failed / attempted)
            metrics = {name: values[name] for name, _, _ in END_TO_END}
        print_checks(jobs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    attempted, failed = checks.tally(jobs)
    units = {name: unit for name, unit, _ in END_TO_END}
    units.update({m["name"]: m["unit"] for m in layers.LAYER_METRICS})
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
