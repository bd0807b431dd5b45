"""Seeded inputs for the four benchmark workloads, and the calls that run them.

Generation uses only the standard library, so input generation stays outside
the set-up time, which starts at ``import hypergft``.  An input is a plain
JSON value (complex numbers are ``[re, im]`` pairs), so the same seed gives
byte-identical inputs.

Each workload cycles round-robin over fixed kinds (class combinations,
evaluation strata, identity tags) and draws every parameter by centred Latin
hypercube sampling within its kind: each parameter takes the midpoints of n
equal strata of its range, and the seed shuffles which values go together.
Every seed covers each range the same way, so per-pass cost, and the costly
tail in particular, stays steady from seed to seed without narrowing any
region.

Executors call the package through module attributes looked up at call time
(``cli.main``, ``certifier.certify_function_class``, ...), so the span
wrappers in ``spans.py`` see every call the benchmark makes.
"""
from __future__ import annotations

import cmath
import importlib
import io
import math
import random
from typing import Callable

WORKLOADS = ("grid-sweep", "certify-oracle", "series-eval", "identity-verify")

# Inputs per second of run length.  A run times one pass over distinct
# inputs, never repeating one, so a cache keyed on arguments can only gain
# from sharing inside an input (the sweep's rows), as it would for a user.
# The rates size a pass to about the run length on a 2-core x86 machine with
# Python 3.11 at the commit that added the benchmark; a faster program then
# finishes the same pass sooner.
RATE = {
    "grid-sweep": 36,
    "certify-oracle": 46,
    "series-eval": 1440,
    "identity-verify": 85,
}

# Hypothesis floors: certificate needs c > |a| + |b| + floor; the highest
# block shift the left side uses is the same number.
_FLOOR = {
    ("function", "starlike"): 1,
    ("function", "convex"): 2,
    ("function", "ucv"): 2,
    ("function", "sp"): 1,
    ("rbeta", "convex"): 1,
    ("rbeta", "ucv"): 1,
    ("s", "starlike"): 2,
    ("s", "convex"): 3,
    ("s", "sp"): 2,
}

CLASSES = ("starlike", "convex", "ucv", "sp")

# All 22 (family order, source, class) combinations; the univalent source has
# no criterion into ucv.
COMBOS = tuple(
    (order, source, klass)
    for order in (3, 4)
    for source in ("function", "rbeta", "s")
    for klass in CLASSES
    if not (source == "s" and klass == "ucv")
)

IDENTITY_TAGS = (
    "pochhammer-split",
    "gauss",
    "shpot-srivastava",
    "4f3-at-1",
    "5f4-at-1",
    "lemma-sec2-part1",
    "lemma-sec2-part2",
    "lemma-sec2-part3",
    "lemma-sec2-part4",
    "lemma-sec3-part1",
    "lemma-sec3-part2",
    "lemma-sec3-part3",
    "lemma-sec3-part4",
    "euler-2f1",
    "euler-3f2quad",
    "euler-4f3",
)

SERIES_STRATA = (
    "disc-2f1",
    "neg-2f1-large",
    "neg-1f1",
    "complex-2f1",
    "near-unit-2f1",
    "large-2f1",
    "gauss-at-1",
    "shpot-at-1",
    "ladder-4f3-at-1",
    "ladder-5f4-at-1",
    "2f1-at-minus-1",
    "weighted",
)

_WEIGHTS = ("linear", "square", "cube", "inv")
_ORACLE_ORDER = 500


def _r(x: float) -> float:
    """Round a drawn parameter so inputs print compactly."""
    return round(x, 6)


def _cx(z: complex) -> list[float]:
    z = complex(z)
    return [_r(z.real), _r(z.imag)]


class _Lhs:
    """Centred Latin hypercube: ``u()`` hands out the next parameter's value
    in [0, 1), the midpoint of one of n strata, each stratum used once per
    kind."""

    def __init__(self, rng: random.Random, n: int):
        self.rng = rng
        self.n = n
        self.dims: list[list[float]] = []
        self.pos = 0

    def start(self, item: int) -> None:
        self.item = item
        self.pos = 0

    def u(self) -> float:
        if self.pos == len(self.dims):
            perm = list(range(self.n))
            self.rng.shuffle(perm)
            self.dims.append([(p + 0.5) / self.n for p in perm])
        value = self.dims[self.pos][self.item]
        self.pos += 1
        return value

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.u()


def _apart(b: float, c: float) -> float:
    """Keep c at least 0.05 from b inside (0.1, 4), as the Shpot-Srivastava
    closed form needs c != b."""
    if abs(c - b) >= 0.05:
        return c
    return b + 0.05 if b + 0.05 <= 4.0 else b - 0.05


def _per_kind(kinds: tuple, n: int, rng: random.Random, draw: Callable) -> list:
    """Round-robin over kinds; each kind gets its own Latin hypercube."""
    if n % len(kinds):
        raise ValueError(f"pass size {n} is not a multiple of {len(kinds)} kinds")
    per = n // len(kinds)
    samplers = {kind: _Lhs(rng, per) for kind in kinds}
    out = []
    for i in range(n):
        kind = kinds[i % len(kinds)]
        lhs = samplers[kind]
        lhs.start(i // len(kinds))
        out.append(draw(kind, lhs))
    return out


def _certify_point(order: int, source: str, klass: str, lhs: _Lhs, near_floor: bool) -> dict:
    """A point inside the certificate's hypothesis region (the regions of the
    soundness acceptance criterion), optionally just above its floor."""
    k = order
    lam = _r(lhs.uniform(0.2, 1.0)) if klass in ("starlike", "convex") else None
    beta = _r(lhs.uniform(0.0, 0.9)) if source == "rbeta" else None
    if source == "rbeta" and klass in ("starlike", "sp"):
        a = lhs.uniform(1.3, 2.2)
        b = lhs.uniform(k + 0.6, k + 2.0)
        floor_c = max(a + k - 1, a + b - 1)
        if near_floor:
            c = floor_c + lhs.uniform(0.05, 0.5)
        else:
            c = floor_c + a + 0.5 + 20.0 * lhs.u() ** 2
        if klass == "starlike" and k == 4 and lhs.u() < 0.3:
            lam = 1.0
    else:
        a = lhs.uniform(0.05, 0.6)
        b = lhs.uniform(0.1, 1.2)
        top = _FLOOR[(source, klass)]
        c_hyp = a + b + top
        if near_floor:
            c = c_hyp + lhs.uniform(0.05, 0.5)
        else:
            c_conv = 2 * a + b + 2 * top + 1.2 if k == 4 else 0.0
            c = max(c_hyp + 0.2, c_conv) + 0.3 + 20.0 * lhs.u() ** 2
    return {
        "order": order, "source": source, "class": klass,
        "a": _r(a), "b": _r(b), "c": _r(c), "lam": lam, "beta": beta,
    }


def _gen_grid_sweep(rng: random.Random, n: int) -> list:
    def draw(combo, lhs):
        order, source, klass = combo
        p = _certify_point(order, source, klass, lhs, near_floor=False)
        argv = [
            "sweep", "--family", f"split{order}", "--class", klass, "--source", source,
            "--a", repr(p["a"]), "--b", repr(p["b"]), "--c", repr(p["c"]),
        ]
        if source == "rbeta":
            lo = _r(lhs.uniform(0.0, 0.45))
            argv += ["--beta", f"{lo!r}:{_r(lo + 0.4)!r}:0.1"]
            if p["lam"] is not None:
                argv += ["--lambda", repr(p["lam"])]
        elif klass in ("starlike", "convex"):
            lo = _r(lhs.uniform(0.2, 0.55))
            argv += ["--lambda", f"{lo!r}:{_r(lo + 0.4)!r}:0.1"]
        return {"argv": argv}

    return _per_kind(COMBOS, n, rng, draw)


def _gen_certify_oracle(rng: random.Random, n: int) -> list:
    # Every fourth visit of a combination sits just above the hypothesis
    # floor, where verdicts flip and the outer expansions need most terms.
    counter = {combo: 0 for combo in COMBOS}

    def draw(combo, lhs):
        counter[combo] += 1
        return _certify_point(*combo, lhs, near_floor=counter[combo] % 4 == 0)

    return _per_kind(COMBOS, n, rng, draw)


def _ladder(a: float, b: float, c: float, k: int) -> tuple[list, list]:
    upper = [[a, 0.0]] + [[(b + j) / k, 0.0] for j in range(k)]
    lower = [[(c + j) / k, 0.0] for j in range(k)]
    return upper, lower


def _gen_series_eval(rng: random.Random, n: int) -> list:
    def pfq(stratum, upper, lower, z):
        return {"fn": "pfq", "stratum": stratum, "upper": upper, "lower": lower, "z": z}

    def real(*xs):
        return [[_r(x), 0.0] for x in xs]

    def draw(stratum, lhs):
        if stratum == "disc-2f1":
            a, b, c = lhs.uniform(0.1, 3.0), lhs.uniform(0.1, 3.0), lhs.uniform(0.5, 5.0)
            return pfq(stratum, real(a, b), real(c), [_r(lhs.uniform(-0.9, 0.9)), 0.0])
        if stratum == "neg-2f1-large":
            a, b, c = lhs.uniform(5.0, 30.0), lhs.uniform(5.0, 30.0), lhs.uniform(1.0, 10.0)
            return pfq(stratum, real(a, b), real(c), [_r(lhs.uniform(-0.95, -0.3)), 0.0])
        if stratum == "neg-1f1":
            a, b = lhs.uniform(0.5, 5.0), lhs.uniform(0.5, 5.0)
            return pfq(stratum, real(a), real(b), [_r(lhs.uniform(-30.0, -2.0)), 0.0])
        if stratum == "complex-2f1":
            a = cmath.rect(lhs.uniform(0.2, 3.0), lhs.uniform(-math.pi, math.pi))
            b = cmath.rect(lhs.uniform(0.2, 3.0), lhs.uniform(-math.pi, math.pi))
            c = complex(lhs.uniform(0.5, 5.0), lhs.uniform(-2.0, 2.0))
            z = cmath.rect(lhs.uniform(0.05, 0.9), lhs.uniform(-math.pi, math.pi))
            return pfq(stratum, [_cx(a), _cx(b)], [_cx(c)], _cx(z))
        if stratum == "near-unit-2f1":
            a, b = lhs.uniform(0.1, 2.0), lhs.uniform(0.1, 2.0)
            c = a + b + lhs.uniform(0.5, 3.0)
            return pfq(stratum, real(a, b), real(c), [_r(lhs.uniform(0.95, 0.995)), 0.0])
        if stratum == "large-2f1":
            a, b, c = lhs.uniform(10.0, 50.0), lhs.uniform(10.0, 50.0), lhs.uniform(20.0, 80.0)
            return pfq(stratum, real(a, b), real(c), [_r(lhs.uniform(0.05, 0.6)), 0.0])
        if stratum == "gauss-at-1":
            a, b = lhs.uniform(0.05, 3.0), lhs.uniform(0.05, 3.0)
            c = a + b + lhs.uniform(1.0, 5.0)
            return pfq(stratum, real(a, b), real(c), [1.0, 0.0])
        if stratum == "shpot-at-1":
            a, b, c = lhs.uniform(0.05, 0.5), lhs.uniform(0.1, 4.0), lhs.uniform(0.1, 4.0)
            c = _apart(b, c)
            a, b, c = _r(a), _r(b), _r(c)
            return pfq(stratum, real(a, b, c), real(b + 1.0, c + 1.0), [1.0, 0.0])
        if stratum == "ladder-4f3-at-1":
            a, b = _r(lhs.uniform(0.05, 1.5)), _r(lhs.uniform(0.1, 4.0))
            c = _r(a + b + lhs.uniform(0.75, 5.0))
            upper, lower = _ladder(a, b, c, 3)
            item = pfq(stratum, upper, lower, [1.0, 0.0])
            item["ladder"] = [a, b, c, 3]
            return item
        if stratum == "ladder-5f4-at-1":
            a, b = _r(lhs.uniform(0.05, 0.45)), _r(lhs.uniform(0.1, 3.0))
            c = _r(a + b + lhs.uniform(1.25, 5.0))
            upper, lower = _ladder(a, b, c, 4)
            item = pfq(stratum, upper, lower, [1.0, 0.0])
            item["ladder"] = [a, b, c, 4]
            return item
        if stratum == "2f1-at-minus-1":
            a, b, c = lhs.uniform(0.1, 8.0), lhs.uniform(0.1, 8.0), lhs.uniform(0.5, 10.0)
            return {"fn": "neg1", "stratum": stratum, "a": _r(a), "b": _r(b), "c": _r(c)}
        # weighted ladder sums at z = 1, in the lemma regions of the verify sampler
        weight = _WEIGHTS[min(int(lhs.u() * 4), 3)]
        k = 3 if lhs.u() < 0.5 else 4
        if weight == "inv":
            a = lhs.uniform(1.3, 2.8)
            b = lhs.uniform(k + 0.6, k + 4.0)
            c = max(a + k - 1, a + b - 1) + lhs.uniform(1.0, 4.0)
        else:
            d = _WEIGHTS.index(weight) + 1
            a, b = lhs.uniform(0.05, 0.5), lhs.uniform(0.1, 2.5)
            c = a + b + d + lhs.uniform(1.5, 4.0)
        return {
            "fn": "weighted", "stratum": stratum, "weight": weight,
            "a": _r(a), "b": _r(b), "c": _r(c), "order": k,
        }

    return _per_kind(SERIES_STRATA, n, rng, draw)


def _gen_identity_verify(rng: random.Random, n: int) -> list:
    """Parameters from the regions of the ``hypergft verify`` sampler."""

    def draw(tag, lhs):
        z = 0.3
        order = 3
        n = 16
        if tag == "pochhammer-split":
            a = cmath.rect(lhs.uniform(0.05, 10.0), lhs.uniform(-math.pi, math.pi))
            order = 3 if lhs.u() < 0.5 else 4
            n = min(int(lhs.u() * 31), 30)
            return {"tag": tag, "a": _cx(a), "b": 1.0, "c": 4.0, "order": order, "n": n, "z": z}
        if tag == "gauss":
            a, b = lhs.uniform(0.05, 3.0), lhs.uniform(0.05, 3.0)
            c = a + b + lhs.uniform(1.0, 5.0)
        elif tag == "shpot-srivastava":
            a, b = lhs.uniform(0.05, 0.5), lhs.uniform(0.1, 4.0)
            c = _apart(b, lhs.uniform(0.1, 4.0))
        elif tag == "4f3-at-1":
            a, b = lhs.uniform(0.05, 1.5), lhs.uniform(0.1, 4.0)
            c = a + b + lhs.uniform(0.75, 5.0)
        elif tag == "5f4-at-1":
            order = 4
            a, b = lhs.uniform(0.05, 0.45), lhs.uniform(0.1, 3.0)
            c = a + b + lhs.uniform(1.25, 5.0)
        elif tag.startswith("lemma-"):
            part = int(tag[-1])
            order = 3 if "sec2" in tag else 4
            if part == 4:
                a = lhs.uniform(1.3, 2.8)
                b = lhs.uniform(order + 0.6, order + 4.0)
                c = max(a + order - 1, a + b - 1) + lhs.uniform(1.0, 4.0)
            else:
                a, b = lhs.uniform(0.05, 0.5), lhs.uniform(0.1, 2.5)
                c = a + b + part + lhs.uniform(1.5, 4.0)
        else:  # euler-*
            a, b = lhs.uniform(0.2, 1.2), lhs.uniform(0.4, 2.0)
            c = a + b + lhs.uniform(0.8, 3.0)
            z = _r(lhs.uniform(0.05, 0.7))
        return {"tag": tag, "a": _r(a), "b": _r(b), "c": _r(c), "order": order, "n": n, "z": z}

    return _per_kind(IDENTITY_TAGS, n, rng, draw)


_GENERATORS = {
    "grid-sweep": _gen_grid_sweep,
    "certify-oracle": _gen_certify_oracle,
    "series-eval": _gen_series_eval,
    "identity-verify": _gen_identity_verify,
}


_KINDS = {
    "grid-sweep": len(COMBOS),
    "certify-oracle": len(COMBOS),
    "series-eval": len(SERIES_STRATA),
    "identity-verify": len(IDENTITY_TAGS),
}


def pass_size(workload: str, seconds: float) -> int:
    """Inputs in one pass: whole rounds of the workload's kinds."""
    kinds = _KINDS[workload]
    return kinds * max(1, round(seconds * RATE[workload] / kinds))


def generate(workload: str, seed: int, n: int) -> list:
    """The ``n`` inputs of one pass of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}/{seed}")
    return _GENERATORS[workload](rng, n)


def warmup_inputs(workload: str) -> list:
    """A fixed, seed-independent input per kind, run before timing starts."""
    return generate(workload, seed=-1, n=_KINDS[workload])


# ------------------------------------------------------------- execution


def _c(pair) -> complex:
    return complex(pair[0], pair[1])


def _eval_payload(res) -> dict:
    v = complex(res.value)
    return {
        "value": [v.real, v.imag],
        "tail_bound": float(res.tail_bound),
        "terms": int(res.terms_used),
        "converged": bool(res.converged),
    }


class Runner:
    """Runs single inputs of one workload against an imported hypergft, or
    against the frozen copy ``hypergft_ref`` that measures machine speed."""

    def __init__(self, workload: str, package: str = "hypergft"):
        pkg = importlib.import_module(package)
        mod = {
            name: importlib.import_module(f"{package}.{name}")
            for name in ("certifier", "classes", "cli", "errors", "families", "oracle", "series")
        }
        self.hypergft = pkg
        self.cli, self.certifier = mod["cli"], mod["certifier"]
        self.oracle, self.series = mod["oracle"], mod["series"]
        self.error = mod["errors"].HypergftError
        classes, families = mod["classes"], mod["families"]
        self.ClassKind, self.ClassSpec = classes.ClassKind, classes.ClassSpec
        self.SourceClass, self.SourceKind = classes.SourceClass, classes.SourceKind
        self.Family, self.FamilyParams = families.Family, families.FamilyParams
        self.run = {
            "grid-sweep": self._grid_sweep,
            "certify-oracle": self._certify_oracle,
            "series-eval": self._series_eval,
            "identity-verify": self._identity_verify,
        }[workload]

    def __call__(self, item: dict) -> dict:
        """Outcome of one input: a JSON value; ``failed`` marks a raised
        package error, an unconverged result or a CLI error row."""
        try:
            return self.run(item)
        except self.error as exc:
            return {"failed": True, "error": type(exc).__name__}

    def _grid_sweep(self, item: dict) -> dict:
        out = io.StringIO()
        code = self.cli.main(list(item["argv"]), out=out)
        rows = out.getvalue().splitlines()[1:]
        return {
            "failed": code != 0 or any(r.split(",")[8] == "error" for r in rows),
            "exit": code,
            "rows": rows,
        }

    def _spec(self, item: dict):
        return self.ClassSpec(self.ClassKind(item["class"]), item["lam"])

    def _family_params(self, item: dict):
        return self.FamilyParams(item["a"], item["b"], item["c"], self.Family(item["order"]))

    def _source(self, item: dict):
        return self.SourceClass(self.SourceKind(item["source"]), item["beta"])

    def _certify_oracle(self, item: dict) -> dict:
        certifier = self.certifier
        fp = self._family_params(item)
        spec = self._spec(item)
        if item["source"] == "function":
            cert = certifier.certify_function_class(fp, spec)
        else:
            cert = certifier.certify_operator_mapping(fp, self._source(item), spec)
        out = {
            "failed": False,
            "verdict": cert.verdict.value,
            "lhs": float(cert.lhs),
            "lhs_tail_bound": float(cert.lhs_tail_bound),
        }
        if cert.verdict.value == "certified":
            target = certifier.hypergeometric_coefficients(fp, _ORACLE_ORDER)
            if item["source"] != "function":
                target = certifier.hadamard_convolve(
                    target, self.oracle.worst_case_coefficients(self._source(item), _ORACLE_ORDER)
                )
            coeff = self.oracle.coefficient_condition_check(target, spec)
            disc = self.oracle.disc_sample_check(target, spec)
            out["coeff_passed"] = bool(coeff.passed)
            out["disc_passed"] = bool(disc.passed)
            out["disc_worst"] = float(disc.worst_value)
        return out

    def _series_eval(self, item: dict) -> dict:
        series = self.series
        fn = item["fn"]
        if fn == "pfq":
            params = series.PFQParams(
                tuple(_c(u) for u in item["upper"]), tuple(_c(l) for l in item["lower"])
            )
            res = series.pfq_eval(params, _c(item["z"]))
        elif fn == "neg1":
            res = series.two_f1_neg1(item["a"], item["b"], item["c"])
        else:
            res = series.weighted_pochhammer_sum(self._family_params(item), item["weight"])
        out = _eval_payload(res)
        out["failed"] = not res.converged
        return out

    def _identity_verify(self, item: dict) -> dict:
        tag = item["tag"]
        a = _c(item["a"]) if isinstance(item["a"], list) else item["a"]
        fp = self.FamilyParams(a, item["b"], item["c"], self.Family(item["order"]))
        residual = self.oracle.identity_residual(
            tag, fp, n=item["n"], z=item["z"], policy=self.hypergft.DEFAULT_POLICY
        )
        return {"failed": False, "residual": float(residual)}


def timed_units(workload: str, outcome: dict) -> int:
    """Units one input adds to throughput: CSV rows for the sweep, else 1."""
    if workload == "grid-sweep":
        return len(outcome.get("rows", ()))
    return 1


def certificates(workload: str, outcome: dict) -> list[str]:
    """Verdicts of the certificates one input produced."""
    if workload == "grid-sweep":
        return [r.split(",")[8] for r in outcome.get("rows", ())]
    if workload == "certify-oracle" and "verdict" in outcome:
        return [outcome["verdict"]]
    return []

