"""Split-ladder parameter families for the quartic and quintic series."""
from __future__ import annotations

import cmath
import enum
from dataclasses import dataclass

from .errors import PoleError
from .numcore import POLE_TOL, is_nonpositive_integer


class Family(enum.Enum):
    """Which split ladder generates the upper/lower parameter lists."""

    SPLIT3 = 3  # z * 4F3(a, b/3, (b+1)/3, (b+2)/3; c/3, (c+1)/3, (c+2)/3; z)
    SPLIT4 = 4  # z * 5F4(a, b/4, ..., (b+3)/4; c/4, ..., (c+3)/4; z)

    @property
    def order(self) -> int:
        return self.value


def parse_family(name: str) -> Family:
    key = name.strip().lower()
    if key in ("split3", "3", "4f3"):
        return Family.SPLIT3
    if key in ("split4", "4", "5f4"):
        return Family.SPLIT4
    raise ValueError(f"unknown family {name!r}; expected split3 or split4")


def weighted_sum_region(a: float, b: float, c: float, k: int, d: int) -> str | None:
    """The region condition that real (a, b, c) violates, or None when
    W_d = sum_{n>=0} (n+1)^d T_n of the order-k ladder converges.

    The region is c > a + b + d for d >= 0 and c > max(a + k - 1, a + b - 1)
    for d = -1.
    """
    if d >= 0:
        if c - a - b > d:
            return None
        return f"c > a + b + {d}" if d else "c > a + b"
    if c > a + k - 1 and c > a + b - 1:
        return None
    return f"c > max(a + {k - 1}, a + b - 1)"


def part4_pole(a: complex, b: complex, k: int) -> str | None:
    """The pole condition that (a, b) violates, or None when the closed
    form of W_-1 for the order-k ladder is defined: a != 1, b != 1..k."""
    if abs(a - 1.0) <= POLE_TOL:
        return "a != 1"
    for m in range(1, k + 1):
        if abs(b - m) <= POLE_TOL:
            return f"b != {m}"
    return None


def closed_form_region(a: complex, b: complex, c: float, k: int, d: int) -> str | None:
    """The condition that (a, b, c) violates, or None when the closed form of
    W_d for the order-k ladder holds: off the poles of ``part4_pole`` when
    d = -1, and W_d convergent (``weighted_sum_region``) at Re a, Re b."""
    return (d == -1 and part4_pole(a, b, k)) or weighted_sum_region(
        complex(a).real, complex(b).real, c, k, d)


@dataclass(frozen=True)
class FamilyParams:
    """The triple (a, b, c) feeding a split-ladder hypergeometric function.

    a and b may be complex but must be finite and nonzero; c is real,
    finite and positive so the lower ladder stays clear of gamma poles.
    """

    a: complex
    b: complex
    c: float
    family: Family = Family.SPLIT3

    def __post_init__(self) -> None:
        for name in ("a", "b", "c"):
            if not cmath.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if abs(complex(self.a)) <= POLE_TOL:
            raise ValueError("a must be nonzero")
        if abs(complex(self.b)) <= POLE_TOL:
            raise ValueError("b must be nonzero")
        if complex(self.c).imag:
            raise ValueError("c must be real")
        if not self.c > 0:
            raise ValueError("c must be positive")
        k = self.family.order
        for j in range(k):
            if is_nonpositive_integer((self.c + j) / k):
                raise PoleError(f"lower ladder entry (c+{j})/{k} is a gamma pole")

    @property
    def order(self) -> int:
        return self.family.order

    def upper_params(self) -> tuple[complex, ...]:
        k = self.order
        return (complex(self.a),) + tuple((complex(self.b) + j) / k for j in range(k))

    def lower_params(self) -> tuple[complex, ...]:
        k = self.order
        return tuple(complex(self.c + j) / k for j in range(k))
