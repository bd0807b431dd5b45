import pytest

# (n+1)^d = sum_j e_j n (n-1) ... (n-j+1): the e_j for d = 0..3.
_FALLING = {0: (1,), 1: (1, 1), 2: (1, 3, 1), 3: (1, 7, 6, 1)}


@pytest.fixture
def weighted_reference():
    """ref(upper, lower, z, d) = sum_n (n+1)^d prod(u)_n / prod(l)_n / n! z^n
    from mpmath's pFq at 20 digits, as sum_j e_j z^j (u)_j/(l)_j pFq(u+j; l+j; z)
    for d >= 0 and (1/z) int_0^z pFq for d = -1."""
    mpmath = pytest.importorskip("mpmath")

    def ref(upper, lower, z, d):
        with mpmath.workdps(20):
            up = [mpmath.mpc(u) for u in upper]
            lo = [mpmath.mpc(l) for l in lower]
            z = mpmath.mpc(z)
            if d == -1:
                um, lm = [u - 1 for u in up], [l - 1 for l in lo]
                total = mpmath.fprod(lm) / (mpmath.fprod(um) * z) * (mpmath.hyper(um, lm, z) - 1)
                return complex(total)
            return complex(mpmath.fsum(
                e * z**j * mpmath.fprod(mpmath.rf(u, j) for u in up)
                / mpmath.fprod(mpmath.rf(l, j) for l in lo)
                * mpmath.hyper([u + j for u in up], [l + j for l in lo], z)
                for j, e in enumerate(_FALLING[d])
            ))

    return ref
