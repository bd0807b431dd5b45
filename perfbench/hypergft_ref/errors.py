"""Exception hierarchy shared by all hypergft modules."""


class HypergftError(Exception):
    """Base class for all errors raised by this package."""


class PoleError(HypergftError):
    """An argument landed on (or within tolerance of) a gamma pole."""


class ZeroError(HypergftError):
    """A gamma ratio is exactly zero because a denominator argument is a pole."""


class ConstraintError(HypergftError):
    """Parameters violate the validity region of an identity or formula."""


class DivergentError(HypergftError):
    """The requested series diverges at the given argument."""


class NoConvergenceError(HypergftError):
    """The term budget ran out before the truncation tail could be certified."""


class HypothesisError(HypergftError):
    """Theorem hypotheses are violated; the sufficient condition does not apply.

    Distinct from a NotCertified verdict: a certificate compares an inequality
    inside the theorem's region, while this error means the region itself was
    left, so the theorem says nothing either way.
    """


class NormalizationError(HypergftError):
    """A power series is not normalized to a_1 = 1."""


class InsufficientOrderError(HypergftError):
    """Too few coefficients to bound the tail of a coefficient-sum check."""


class DivisionNearZeroError(HypergftError):
    """All sample points of a disc check fell too close to a zero of f."""


class QuadratureError(HypergftError):
    """Adaptive quadrature could not reach the requested tolerance in budget."""
