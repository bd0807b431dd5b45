"""Normalized power series z + sum_{n>=2} a_n z^n as finite coefficient vectors."""
from __future__ import annotations

from dataclasses import dataclass

NORMALIZATION_TOL = 1e-12


@dataclass(frozen=True)
class PowerSeries:
    """Coefficients a_1..a_N, indexed from n = 1; normalized means a_1 = 1."""

    coefficients: tuple[complex, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "coefficients", tuple(complex(c) for c in self.coefficients)
        )
        if not self.coefficients:
            raise ValueError("a power series needs at least the n = 1 coefficient")

    @property
    def order(self) -> int:
        return len(self.coefficients)

    @property
    def is_normalized(self) -> bool:
        return abs(self.coefficients[0] - 1.0) <= NORMALIZATION_TOL

    def coefficient(self, n: int) -> complex:
        """a_n for 1 <= n <= order."""
        if not 1 <= n <= self.order:
            raise IndexError(f"coefficient index {n} outside 1..{self.order}")
        return self.coefficients[n - 1]
