"""Span wrappers around the public functions of each hypergft layer.

``Tracer.install`` replaces every module attribute bound to a listed function
(``closedforms.ladder_sum_block`` and ``certifier.ladder_sum_block`` alike)
with a wrapper that records one span per call: function, start, end, parent
span, input id, whether it raised, and a work count read from the return
value.  Spans stay in memory; ``write`` dumps them once the run is over.
Nothing under ``src/`` changes.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter
from typing import Any, Callable

# Layer -> public functions that get spans.
LAYERS: dict[str, tuple[str, ...]] = {
    "cli": ("main",),
    "certifier": (
        "certify_function_class",
        "certify_operator_mapping",
        "hypergeometric_coefficients",
        "hadamard_convolve",
    ),
    "closedforms": (
        "ladder_sum_block",
        "split_outer_sum",
        "family_prefactor",
        "four_f3_at_1",
        "five_f4_at_1",
        "lemma_closed_form",
        "euler_integral",
    ),
    "series": ("pfq_eval", "two_f1_neg1", "weighted_pochhammer_sum"),
    "quadrature": ("adaptive_quad",),
    "oracle": (
        "coefficient_condition_check",
        "disc_sample_check",
        "worst_case_coefficients",
        "identity_residual",
    ),
    "numcore": ("log_gamma", "gamma_ratio", "pochhammer"),
}

# numcore functions are leaves: their self time equals their busy time.
_LEAF_LAYERS = ("numcore",)

FUNCTIONS = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)


def _series_note(args, kwargs, result):
    return [int(result.terms_used), bool(result.converged)]


def _ladder_note(args, kwargs, result):
    return repr((args, sorted(kwargs.items())))


# Work counts read from arguments or return values, per function.
_NOTES: dict[str, Callable[[tuple, dict, Any], Any]] = {
    "series.pfq_eval": _series_note,
    "series.two_f1_neg1": _series_note,
    "series.weighted_pochhammer_sum": _series_note,
    "closedforms.split_outer_sum": lambda a, k, r: int(r.terms_used),
    "closedforms.ladder_sum_block": _ladder_note,
    "quadrature.adaptive_quad": lambda a, k, r: int(r.evaluations),
    "oracle.disc_sample_check": lambda a, k, r: int(r.budget),
}


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for name in FUNCTIONS:
        out += [(f"{name}.calls", "count"), (f"{name}.busy_s", "s")]
        if name.split(".")[0] not in _LEAF_LAYERS:
            out += [(f"{name}.self_s", "s"), (f"{name}.errors", "count")]
    out += [
        ("series.terms", "count"),
        ("series.unconverged", "count"),
        ("closedforms.split_outer_sum.terms", "count"),
        ("closedforms.ladder_sum_block.distinct_ratio", "ratio"),
        ("quadrature.adaptive_quad.evaluations", "count"),
        ("oracle.disc_sample_check.points", "count"),
    ]
    return out


class Tracer:
    """Records spans for one process; ``item`` tags spans with the input id."""

    def __init__(self) -> None:
        # span: [function index, start, end, parent, item, raised, nested, note]
        self.spans: list[list] = []
        self.item = -1
        self._stack: list[int] = []
        self._active = [0] * len(FUNCTIONS)
        self._patched: list[tuple[Any, str, Any]] = []

    def _wrap(self, fid: int, fn: Callable) -> Callable:
        spans, stack, active = self.spans, self._stack, self._active
        note = _NOTES.get(FUNCTIONS[fid])
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            me = len(spans)
            span = [fid, 0.0, 0.0, stack[-1] if stack else -1, tracer.item,
                    False, active[fid] > 0, None]
            spans.append(span)
            stack.append(me)
            active[fid] += 1
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = perf_counter()
                active[fid] -= 1
                stack.pop()
            if note is not None:
                span[7] = note(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every attribute of every loaded hypergft module bound to a
        listed function."""
        originals = {}
        for fid, name in enumerate(FUNCTIONS):
            layer, fn = name.split(".")
            module = importlib.import_module(f"hypergft.{layer}")
            originals[id(getattr(module, fn))] = (fid, getattr(module, fn))
        wrappers = {key: self._wrap(fid, fn) for key, (fid, fn) in originals.items()}
        for modname, module in list(sys.modules.items()):
            if modname != "hypergft" and not modname.startswith("hypergft."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in originals and originals[id(value)][1] is value:
                    setattr(module, attr, wrappers[id(value)])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        out = [t1 - t0 for _fid, t0, t1, *_rest in self.spans]
        for _fid, t0, t1, parent, *_rest in self.spans:
            if parent >= 0:
                out[parent] -= t1 - t0
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics over all recorded spans."""
        n = len(FUNCTIONS)
        calls, busy, self_s, errors = [0] * n, [0.0] * n, [0.0] * n, [0] * n
        terms = unconverged = outer_terms = evaluations = points = 0
        ladder_calls = 0
        ladder_keys: set = set()
        own = self._self_times()
        for i, (fid, t0, t1, _parent, item, raised, nested, note) in enumerate(self.spans):
            calls[fid] += 1
            if not nested:
                busy[fid] += t1 - t0
            self_s[fid] += own[i]
            errors[fid] += raised
            if note is None:
                continue
            name = FUNCTIONS[fid]
            if name.startswith("series."):
                terms += note[0]
                unconverged += not note[1]
            elif name == "closedforms.split_outer_sum":
                outer_terms += note
            elif name == "closedforms.ladder_sum_block":
                ladder_calls += 1
                ladder_keys.add((item, note))
            elif name == "quadrature.adaptive_quad":
                evaluations += note
            elif name == "oracle.disc_sample_check":
                points += note
        out: dict[str, float] = {}
        for fid, name in enumerate(FUNCTIONS):
            out[f"{name}.calls"] = calls[fid]
            out[f"{name}.busy_s"] = busy[fid]
            if name.split(".")[0] not in _LEAF_LAYERS:
                out[f"{name}.self_s"] = self_s[fid]
                out[f"{name}.errors"] = errors[fid]
        out["series.terms"] = terms
        out["series.unconverged"] = unconverged
        out["closedforms.split_outer_sum.terms"] = outer_terms
        # Distinct (input, argument tuple) pairs over calls: 1.0 when no block
        # is computed twice for one input.
        out["closedforms.ladder_sum_block.distinct_ratio"] = (
            len(ladder_keys) / ladder_calls if ladder_calls else 1.0
        )
        out["quadrature.adaptive_quad.evaluations"] = evaluations
        out["oracle.disc_sample_check.points"] = points
        return out

    def layer_self_seconds(self) -> dict[str, float]:
        """Self time summed per layer (module)."""
        totals = {layer: 0.0 for layer in LAYERS}
        for span, own in zip(self.spans, self._self_times()):
            totals[FUNCTIONS[span[0]].split(".")[0]] += own
        return totals

    def write(self, path: str) -> None:
        """One JSON line per span: name, start, end, parent, item."""
        with open(path, "w", encoding="utf-8") as fh:
            for fid, t0, t1, parent, item, raised, _nested, _note in self.spans:
                fh.write(json.dumps({
                    "name": FUNCTIONS[fid], "start": t0, "end": t1,
                    "parent": parent, "item": item, "raised": raised,
                }) + "\n")
