"""Tests of the benchmark itself: run with ``python -m pytest perfbench``."""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import refcheck  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# One round of each workload's kinds keeps every test small.
ROUND = {
    "grid-sweep": len(workloads.COMBOS),
    "certify-oracle": len(workloads.COMBOS) * 4,
    "series-eval": len(workloads.SERIES_STRATA),
    "identity-verify": len(workloads.IDENTITY_TAGS),
}
COUNTS = ("failed_share", "wrong_share", "inconclusive_share")


def _run(workload, items, tracer=None):
    runner = workloads.Runner(workload)
    if tracer is not None:
        tracer.install()
    try:
        outcomes = []
        for i, item in enumerate(items):
            if tracer is not None:
                tracer.item = i
            outcomes.append(runner(item))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return outcomes


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    n = 3 * ROUND[workload]
    first = json.dumps(workloads.generate(workload, 3, n), sort_keys=True)
    again = json.dumps(workloads.generate(workload, 3, n), sort_keys=True)
    other = json.dumps(workloads.generate(workload, 4, n), sort_keys=True)
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_count_metrics(workload):
    items = workloads.generate(workload, 5, ROUND[workload])
    results = []
    for _ in range(2):
        tracer = spans.Tracer()
        outcomes = _run(workload, items, tracer)
        layers = tracer.metrics()
        verdict = refcheck.check(workload, items, outcomes, 5)
        counts = {k: v for k, v in layers.items() if not k.endswith("_s")}
        counts.update({k: verdict[k] for k in COUNTS})
        results.append(counts)
    assert results[0] == results[1]
    assert any(v for k, v in results[0].items() if k.endswith(".calls"))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_span_wrappers_leave_outputs_unchanged(workload):
    import hypergft.closedforms
    import hypergft.certifier

    items = workloads.generate(workload, 7, ROUND[workload])
    plain = _run(workload, items)
    tracer = spans.Tracer()
    traced = _run(workload, items, tracer)
    assert traced == plain
    assert tracer.spans
    # every attribute bound to a wrapped function is restored
    assert hypergft.certifier.ladder_sum_block is hypergft.closedforms.ladder_sum_block
    assert not hasattr(hypergft.closedforms.ladder_sum_block, "__wrapped__")


def test_wrappers_cover_every_binding():
    import hypergft.certifier
    import hypergft.closedforms

    tracer = spans.Tracer()
    tracer.install()
    try:
        assert hasattr(hypergft.closedforms.ladder_sum_block, "__wrapped__")
        assert hypergft.certifier.ladder_sum_block is hypergft.closedforms.ladder_sum_block
    finally:
        tracer.uninstall()


def test_series_check_refuses_to_skip_without_mpmath(monkeypatch):
    item = workloads.generate("series-eval", 1, len(workloads.SERIES_STRATA))[0]
    monkeypatch.setitem(sys.modules, "mpmath", None)
    with pytest.raises(ImportError):
        refcheck.series_reference(item)


def test_launcher_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "series-eval",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_reference_copy_never_reaches_the_live_package():
    runner = workloads.Runner("certify-oracle", "hypergft_ref")
    copy = HERE / "hypergft_ref"
    assert copy in Path(runner.certifier.__file__).resolve().parents
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] != "hypergft_ref":
            continue
        assert copy in Path(mod.__file__).resolve().parents
        for value in vars(mod).values():
            origin = getattr(value, "__module__", None) or ""
            assert origin.split(".")[0] != "hypergft", f"{name} uses {origin}"
