"""One workload process: set up, warm up, then time or trace one pass.

Run by ``run.py`` in a fresh interpreter per workload, with numpy/BLAS thread
pools pinned to one thread.  Prints one JSON object on stdout.

Modes
  setup   import hypergft and warm up; report the set-up time only
  timed   set up, then time each input of the pass once (closed loop, one
          caller), with machine-speed reference samples between inputs
          (speedref.py); report per-input times and speed scales, outcomes
          and ru_maxrss at exit
  traced  the same with spans installed after warm-up; also report the
          per-layer metrics and write the spans
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import workloads  # noqa: E402  (the benchmark's own module, next to this file)


def _import_package() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import hypergft

    where = Path(hypergft.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"hypergft imported from {where}, not from this checkout's src/")


def _setup(workload: str):
    """Set-up time: from before ``import hypergft`` to the end of warm-up."""
    warm = workloads.warmup_inputs(workload)
    t0 = perf_counter()
    _import_package()
    runner = workloads.Runner(workload)
    for item in warm:
        runner(item)
    return runner, perf_counter() - t0


def _run_pass(runner, items, tracer=None, ref=None):
    latencies = []
    outcomes = []
    starts = []
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.item = i
        if ref is not None:
            ref.maybe_sample()
        t0 = perf_counter()
        outcome = runner(item)
        took = perf_counter() - t0
        latencies.append(took)
        outcomes.append(outcome)
        starts.append(t0)
        if ref is not None:
            ref.ran(took)
    if ref is not None:
        ref.sample()
        return latencies, outcomes, [ref.scale(t) for t in starts]
    return latencies, outcomes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "timed", "traced"))
    ap.add_argument("--spans", help="file to write the traced spans to")
    args = ap.parse_args(argv)

    if args.mode != "setup":
        n = workloads.pass_size(args.workload, args.seconds)
        items = workloads.generate(args.workload, args.seed, n)
    runner, setup_s = _setup(args.workload)
    result: dict = {"setup_s": setup_s}
    if args.mode == "timed":
        import speedref

        ref = speedref.SpeedReference(args.workload)
        result["latencies"], result["outcomes"], result["speed_scales"] = _run_pass(
            runner, items, ref=ref
        )
        result["reference_samples_s"] = ref.samples
    elif args.mode == "traced":
        import spans

        tracer = spans.Tracer()
        tracer.install()
        try:
            result["latencies"], result["outcomes"] = _run_pass(runner, items, tracer)
        finally:
            tracer.uninstall()
        if args.spans:
            tracer.write(args.spans)
        result["layers"] = tracer.metrics()
        result["layer_self_s"] = tracer.layer_self_seconds()
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
