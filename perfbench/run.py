"""phaseflow benchmark entry point.

    python3 perfbench/run.py --workload fit-ssm --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root. `--trace 0` measures the end-to-end metrics
untraced. `--trace 1` first repeats the untraced measurement for half the
seconds, then installs the span wrappers of bench_trace.py and measures again
for the other half; it reports the per-layer metrics and the tracing overhead
(traced minus untraced). The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}; the line before it carries
the environment block and the quality figures. Run artefacts go to
.perfbench_out/ at the repository root.

`--smoke` runs all workloads at tiny sizes, traced and untraced, and checks
that every metric named in BENCHMARK.json is emitted with its unit.
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

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
DEFAULT_SEED = 1
# Kept unused while changes are written; re-check a claimed gain on it.
HELDOUT_SEED = 9091
DEFAULT_SECONDS = 40


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


if not os.path.isfile(os.path.join(ROOT, "src", "phaseflow", "__init__.py")):
    _fail(f"no phaseflow sources under {os.path.join(ROOT, 'src')}; "
          "run from a full checkout of the repository")
sys.path.insert(0, os.path.join(ROOT, "src"))
# the benchmark measures the users' default worker count
_PHASEFLOW_THREADS = os.environ.pop("PHASEFLOW_THREADS", None)

import numpy as np  # noqa: E402

import bench_trace  # noqa: E402
import bench_workloads as bw  # noqa: E402
from phaseflow import model  # noqa: E402


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def environment(workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "heldout_seed": HELDOUT_SEED,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "infer_workers": model.worker_thread_count(),
        "phaseflow_threads_env_ignored": _PHASEFLOW_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "git_commit": _git_commit(),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


E2E_UNITS = {
    "setup_s": "s",
    "train_fps": "frames/s",
    "infer_fps": "frames/s",
    "step_us_p50": "us",
    "report_us_per_frame": "us/frame",
    "peak_rss_mb": "MB",
}
OVERHEAD = ("setup_s", "train_fps", "infer_fps", "step_us_p50", "report_us_per_frame")
QUALITY_UNITS = {
    "final_loss": ("train.final_loss", "nats/frame"),
    "val_accuracy": ("train.val_accuracy", "ratio"),
    "test_accuracy": ("eval.test_accuracy", "ratio"),
    "ambiguity_accuracy": ("eval.ambiguity_accuracy", "ratio"),
}


def run_workload(wl: bw.Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Returns (result, details): the result line and the block printed
    before it."""
    workdir = os.path.join(OUT_DIR, "work", wl.name)
    os.makedirs(workdir, exist_ok=True)
    checks = bw.Checks()
    details: dict = {"env": environment(wl.name, seed)}
    with bw.count_batch_warnings(checks):
        if not trace:
            m = bw.measure(wl, seed, seconds, workdir, checks)
            m["e2e"]["peak_rss_mb"] = _peak_rss_mb()
            metrics = {k: {"value": m["e2e"][k], "unit": u} for k, u in E2E_UNITS.items()}
        else:
            untraced = bw.measure(wl, seed, seconds / 2, workdir, checks)
            tracer = bench_trace.install(bench_trace.Tracer(wl.name))
            try:
                m = bw.measure(wl, seed, seconds / 2, workdir, checks, tracer=tracer)
            finally:
                tracer.uninstall()
            layer = bench_trace.per_layer_metrics(tracer)
            for k in OVERHEAD:
                layer[f"trace.overhead.{k}"] = (m["e2e"][k] - untraced["e2e"][k],
                                                E2E_UNITS[k])
            # the tail is too unsteady on a shared host to bound, so it is a
            # per-layer value, from the untraced half
            layer["model.step_us_p99_untraced"] = (untraced["e2e"]["step_us_p99"], "us")
            tracer.save(os.path.join(OUT_DIR, f"spans-{wl.name}.npz"))
            details["traced_e2e"] = m["e2e"]
            details["untraced_e2e"] = untraced["e2e"]
            details["spans"] = tracer.totals()
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    fits = max(1, m["fits"] + (untraced["fits"] if trace else 0))
    quality = dict(m["quality"])
    quality["fail_frac"] = checks.failed / max(1, checks.attempted)
    quality["batch_warnings_per_fit"] = checks.batch_warnings / fits
    details.update(quality=quality, samples=m["samples"], medians=m["e2e"],
                   raw_medians=m["raw"], slowness_median=statistics.median(m["slowness"]),
                   sample_values=m["values"], slowness=m["slowness"],
                   failures=checks.failures[:20],
                   train_frames=m["train_frames"], test_frames=m["test_frames"])
    if trace:
        for k, (name, unit) in QUALITY_UNITS.items():
            metrics[name] = {"value": quality.get(k, 0.0), "unit": unit}
        metrics["bench.fail_frac"] = {"value": quality["fail_frac"], "unit": "ratio"}
        metrics["train.batch_warnings_per_fit"] = {
            "value": quality["batch_warnings_per_fit"], "unit": "count"}
    result = {
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    return result, details


def smoke() -> int:
    """Tiny sizes, every workload, both modes: every metric of BENCHMARK.json
    must come out with its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in spec["workloads"]:
        wl = bw.SMOKE_WORKLOADS[w["name"]]
        for trace in (0, 1):
            t0 = time.perf_counter()
            result, _ = run_workload(wl, DEFAULT_SEED, 1.0, bool(trace))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            missing = sorted(set(wanted[trace]) - set(got))
            extra = sorted(set(got) - set(wanted[trace]))
            units = sorted(k for k in wanted[trace] if k in got and got[k] != wanted[trace][k])
            for label, names in (("missing", missing), ("unlisted", extra),
                                 ("wrong unit", units)):
                if names:
                    problems.append(f"{wl.name} trace={trace}: {label}: {names}")
            if not result["correct"]:
                problems.append(f"{wl.name} trace={trace}: {result['failed']} of "
                                f"{result['attempted']} checks failed")
            print(f"smoke {wl.name} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} checks, {time.perf_counter() - t0:.1f} s")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 0 if not problems else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(bw.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at tiny sizes and check the metric set")
    args = ap.parse_args(argv)
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        result, details = run_workload(bw.WORKLOADS[args.workload], args.seed,
                                       args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        return 1
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({"details": details, "result": result}, fh, indent=1, default=float)
    details.pop("spans", None)
    print(json.dumps(details, default=float))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
