"""Target function classes and source classes for certification."""
from __future__ import annotations

import enum
from dataclasses import dataclass


class ClassKind(enum.Enum):
    STARLIKE = "starlike"  # |z f'/f - 1| < lambda
    CONVEX = "convex"      # z f' starlike of the same order
    UCV = "ucv"            # |z f''/f'| < Re(1 + z f''/f')
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
        if self.kind in (ClassKind.STARLIKE, ClassKind.CONVEX):
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


@dataclass(frozen=True)
class SourceClass:
    kind: SourceKind
    beta: float | None = None

    def __post_init__(self) -> None:
        if self.kind is SourceKind.RBETA:
            if self.beta is None or not 0.0 <= self.beta < 1.0:
                raise ValueError("rbeta requires 0 <= beta < 1")
        elif self.beta is not None:
            raise ValueError(f"{self.kind.value} takes no beta")
