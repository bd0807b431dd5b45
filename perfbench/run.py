"""hypergft benchmark: seeded workloads, checked outputs, end-to-end and
per-layer metrics.

    python3 perfbench/run.py --workload grid-sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the repository root.  Each workload runs in fresh interpreters with
numpy/BLAS pinned to one thread: several set-up probes, then one timed or
traced process (see child.py).  Outputs are checked afterwards (refcheck.py);
no flag turns the checks off, and a check that cannot run stops the
benchmark with a non-zero exit and no result.

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones from a separate traced run.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  A fuller
report, with the run context, goes to perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# The benchmark's modules, and the package sources the checks import.
sys.path[:0] = [str(HERE), str(ROOT / "src")]
import speedref  # noqa: E402
import workloads  # noqa: E402

# Fresh interpreters timed for setup_s per run; the timed process is one.
SETUP_SAMPLES = 5
# Samples beyond the reported tail latency.
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 170

_PINNED = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "BLIS_NUM_THREADS",
    )
}

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("failed_share", "ratio"),
    ("wrong_share", "ratio"),
    ("inconclusive_share", "ratio"),
    ("peak_rss_mb", "MB"),
)
# Shares that can be 0 are reported but left out of BENCHMARK.json, whose
# end-to-end metrics are compared as ratios of medians.
_SHARES = ("failed_share", "wrong_share", "inconclusive_share")
_CERTIFYING = ("grid-sweep", "certify-oracle")


class BenchError(Exception):
    """The benchmark could not produce a checked result."""


def _child(workload: str, seed: int, seconds: float, mode: str, spans: Path | None = None) -> dict:
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, **_PINNED)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} process failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _latency_stats(latencies: list[float]) -> dict:
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n - 1)
    return {
        "latency_p50_ms": 1e3 * statistics.median(ordered),
        "latency_tail_ms": 1e3 * ordered[n - 1 - beyond],
        "tail_percentile": 100.0 * (n - beyond) / n,
        "tail_samples_beyond": beyond,
        "samples": n,
    }


def _context(workload: str, seed: int, seconds: float, n_items: int) -> dict:
    import numpy

    try:
        import mpmath

        mp_version = mpmath.__version__
    except ImportError:
        mp_version = None
    try:
        # The ceiling keeps git from searching above the checkout.
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except OSError:
        sha = None
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "items": n_items,
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mp_version,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "threads_pinned": _PINNED,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    items = workloads.generate(workload, seed, workloads.pass_size(workload, seconds))
    report = {"context": _context(workload, seed, seconds, len(items))}
    if trace:
        # Traced and untraced passes run in separate fresh processes, so
        # neither warms a cache for the other.
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
        plain = _child(workload, seed, seconds, "timed")
        res = _child(workload, seed, seconds, "traced", spans_path)
        verdict = _check(workload, items, res["outcomes"], seed)
        if res["outcomes"] != plain["outcomes"]:
            verdict["correct"] = False
            verdict["traced_outputs_differ"] = True
        overhead = sum(res["latencies"]) / sum(plain["latencies"]) - 1.0
        metrics = dict(res["layers"])
        metrics["trace.overhead_share"] = overhead
        for share in _SHARES:
            metrics[f"outcome.{share}"] = verdict[share]
        report.update(
            check=verdict,
            spans_file=str(spans_path.relative_to(ROOT)),
            layer_self_s=res["layer_self_s"],
        )
        report["context"]["trace_overhead_share"] = overhead
        units = _per_layer_units()
    else:
        # Probes before and after the timed process sample set-up at two
        # moments, so one slow spell of the machine moves the median less.
        probes = SETUP_SAMPLES - 1
        setups = [_child(workload, seed, seconds, "setup")["setup_s"] for _ in range(probes // 2)]
        res = _child(workload, seed, seconds, "timed")
        setups.append(res["setup_s"])
        setups += [_child(workload, seed, seconds, "setup")["setup_s"] for _ in range(probes - probes // 2)]
        verdict = _check(workload, items, res["outcomes"], seed)
        # Times at reference machine speed (speedref.py); the wall times as
        # measured go to the report beside them.  Set-up probes run just
        # before and after the timed process, so they take the speed of the
        # whole pass.
        scaled = [t * k for t, k in zip(res["latencies"], res["speed_scales"])]
        lat = _latency_stats(scaled)
        raw = _latency_stats(res["latencies"])
        units_done = sum(workloads.timed_units(workload, o) for o in res["outcomes"])
        ref_median = statistics.median(res["reference_samples_s"])
        metrics = {
            "setup_s": statistics.median(setups) * speedref.REF_BATCH_S[workload] / ref_median,
            "throughput_per_s": units_done / sum(scaled),
            "latency_p50_ms": lat["latency_p50_ms"],
            "latency_tail_ms": lat["latency_tail_ms"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        for share in _SHARES:
            metrics[share] = verdict[share]
        report["context"].update(
            tail_percentile=lat["tail_percentile"],
            tail_samples_beyond=lat["tail_samples_beyond"],
            latency_samples=lat["samples"],
            throughput_units="csv rows" if workload == "grid-sweep" else "inputs",
            throughput_units_done=units_done,
            timed_s=sum(res["latencies"]),
            wall_throughput_per_s=units_done / sum(res["latencies"]),
            wall_latency_p50_ms=raw["latency_p50_ms"],
            wall_latency_tail_ms=raw["latency_tail_ms"],
            reference_samples=len(res["reference_samples_s"]),
            reference_median_s=ref_median,
            reference_batch_s=speedref.REF_BATCH_S[workload],
            wall_setup_s=statistics.median(setups),
            setup_samples_s=setups,
        )
        report["check"] = verdict
        units = dict(END_TO_END)
    report["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    return report


def _check(workload: str, items: list, outcomes: list, seed: int) -> dict:
    import refcheck

    if len(outcomes) != len(items):
        raise BenchError(f"{workload}: {len(outcomes)} outcomes for {len(items)} inputs")
    return refcheck.check(workload, items, outcomes, seed)


def _per_layer_units() -> dict:
    import spans

    units = dict(spans.metric_names())
    units["trace.overhead_share"] = "ratio"
    for share in _SHARES:
        units[f"outcome.{share}"] = "ratio"
    return units


def _print_report(workload: str, report: dict, trace: bool) -> None:
    ctx = report["context"]
    chk = report["check"]
    print(f"== {workload}  seed {ctx['seed']}  {ctx['items']} inputs  "
          f"{'traced' if trace else 'untraced'}")
    for name, m in report["metrics"].items():
        note = ""
        if name == "latency_tail_ms":
            note = (f"  (p{ctx['tail_percentile']:.2f}, {ctx['tail_samples_beyond']} of "
                    f"{ctx['latency_samples']} samples beyond)")
        if name == "inconclusive_share" and workload not in _CERTIFYING:
            note = "  (no certificates in this workload)"
        print(f"  {name:48s} {m['value']:>14.6g} {m['unit']:6s}{note}")
    if trace:
        total = sum(report["layer_self_s"].values()) or 1.0
        shares = ", ".join(
            f"{k} {v / total:.0%}" for k, v in sorted(report["layer_self_s"].items(), key=lambda kv: -kv[1])
        )
        print(f"  self time by layer: {shares}")
    print(f"  check: {chk['checked']} checked, {chk['wrong']} wrong "
          f"({chk['wrong_known_defect']} known defect), {chk['failed']} failed of {chk['attempted']}")
    if chk["wrong_known_defect"]:
        print(f"  known defect: {chk['known_defect']}")
    if chk["wrong_unexpected"]:
        print(f"  UNEXPECTED wrong outputs at inputs {chk['wrong_unexpected'][:20]}")
    print("  context: " + json.dumps(ctx, sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hypergft" / "__init__.py").is_file():
        print(f"no hypergft sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    reports = {}
    try:
        for name in names:
            reports[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            _print_report(name, reports[name], bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, ImportError) as exc:
        print(f"benchmark stopped: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(reports, indent=1, sort_keys=True))

    def keep(name):
        return args.trace or name not in _SHARES

    if len(names) == 1:
        metrics = {k: v for k, v in reports[names[0]]["metrics"].items() if keep(k)}
    else:
        metrics = {
            f"{w}.{k}": v for w, r in reports.items() for k, v in r["metrics"].items() if keep(k)
        }
    result = {
        "correct": all(r["check"]["correct"] for r in reports.values()),
        "attempted": sum(r["check"]["attempted"] for r in reports.values()),
        "failed": sum(r["check"]["failed"] for r in reports.values()),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
