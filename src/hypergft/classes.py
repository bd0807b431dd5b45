"""Target function classes and source classes for certification.

The four target classes are two regions for w = z g'/g, each taken with or
without the Alexander lift g = z f' in place of g = f:

                    g = f        g = z f' (lifted)
    lambda-disc     starlike     convex             |w - 1| < lambda
    parabola        sp           ucv                |w - 1| < Re w

(the parabola is Ronning's; for g = z f', w - 1 = z f''/f').  Everything
the certifier and the oracles need of a class is read from ``ClassSpec``:
the region's threshold, whether it is lifted and whether it is parabolic,
and the coefficient weight that follows from the two.  A source class is
read from ``SourceClass`` the same way: the extremal coefficient modulus
``scale * n**shift``.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass


class ClassKind(enum.Enum):
    STARLIKE = "starlike"  # |z f'/f - 1| < lambda
    CONVEX = "convex"      # z f' starlike of the same order
    UCV = "ucv"            # z f' in sp: |z f''/f'| < Re(1 + z f''/f')
    SP = "sp"              # Re(z f'/f) > |z f'/f - 1|


class SourceKind(enum.Enum):
    FUNCTION = "function"  # the ladder function itself
    RBETA = "rbeta"        # Re[e^{i eta}(f' - beta)] > 0 for some phase
    FULL_S = "s"           # univalent functions, |a_n| <= n


@dataclass(frozen=True)
class ClassSpec:
    """A target class; lambda is required for starlike/convex and must be
    omitted for the uniformly-convex pair, whose conditions carry none."""

    kind: ClassKind
    lam: float | None = None

    def __post_init__(self) -> None:
        if not self.parabolic:
            if self.lam is None:
                raise ValueError(f"{self.kind.value} requires lambda in (0, 1]")
            if not 0.0 < self.lam <= 1.0:
                raise ValueError(f"lambda must lie in (0, 1], got {self.lam}")
        else:
            if self.lam is not None:
                raise ValueError(f"{self.kind.value} takes no lambda")

    @property
    def threshold(self) -> float:
        """Right side of the coefficient sufficient condition."""
        return self.lam if self.lam is not None else 1.0

    @property
    def lifted(self) -> bool:
        """The region applies to z f' rather than to f."""
        return self.kind in (ClassKind.CONVEX, ClassKind.UCV)

    @property
    def parabolic(self) -> bool:
        """The region is Ronning's parabola rather than the lambda-disc."""
        return self.kind in (ClassKind.UCV, ClassKind.SP)

    @property
    def weight(self) -> tuple[int, float, float]:
        """(D, alpha, beta) of the coefficient weight n^(D-1) (alpha n + beta):
        the disc's n + lam - 1 or the parabola's 2n - 1, times n when lifted."""
        alpha, beta = (2.0, -1.0) if self.parabolic else (1.0, self.threshold - 1.0)
        return (2 if self.lifted else 1), alpha, beta


@dataclass(frozen=True)
class SourceClass:
    """A source class, by the extremal modulus scale * n**shift of its
    coefficients a_n, n >= 2."""

    kind: SourceKind
    beta: float | None = None

    def __post_init__(self) -> None:
        if self.kind is SourceKind.RBETA:
            if self.beta is None or not 0.0 <= self.beta < 1.0:
                raise ValueError("rbeta requires 0 <= beta < 1")
        elif self.beta is not None:
            raise ValueError(f"{self.kind.value} takes no beta")

    @property
    def shift(self) -> int:
        """Power of n in the extremal modulus: the function 0, S +1, R(beta) -1."""
        return {SourceKind.FUNCTION: 0, SourceKind.FULL_S: 1, SourceKind.RBETA: -1}[self.kind]

    @property
    def scale(self) -> float:
        """Factor of the extremal modulus: 2(1 - beta) for R(beta), else 1."""
        return 2.0 * (1.0 - float(self.beta)) if self.kind is SourceKind.RBETA else 1.0
