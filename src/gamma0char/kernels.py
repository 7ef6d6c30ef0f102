"""The hot kernels: Dedekind sums and the integer-valued eta-log function.

These are the inner loops of the package.  Everything here works on plain
arbitrary-precision integers and returns reduced ``(num, den)`` pairs so that
no Fraction overhead leaks into the loops.
"""

from math import gcd


def backend_name() -> str:
    """Name of the kernel implementation; the package has only the pure one."""
    return "pure"


# Above this size the vectorised int64 path of the naive sum could overflow
# (the unreduced numerator is bounded by 6*k**3).
_NAIVE_VECTOR_LIMIT = 10**6


def dedekind_naive(h: int, k: int) -> tuple[int, int]:
    """Dedekind sum s(h, k) by direct summation, as a reduced (num, den).

    Direct evaluation of sum_{r=1}^{k-1} (r/k)*(hr/k - floor(hr/k) - 1/2),
    cleared to the integer 12*k^2*s(h,k) = 12*sum(r*(h*r mod k)) - 3*k^2*(k-1).
    Caller guarantees gcd(h, k) == 1 and k >= 1.
    """
    h %= k
    if k == 1:
        return 0, 1
    if k <= _NAIVE_VECTOR_LIMIT:
        import numpy as np

        r = np.arange(1, k, dtype=np.int64)
        x = int(r.dot(h * r % k))
    else:
        x = sum(r * (h * r % k) for r in range(1, k))
    num = 12 * x - 3 * k * k * (k - 1)
    den = 12 * k * k
    g = gcd(num, den)
    return num // g, den // g


def dedekind_fast(h: int, k: int) -> tuple[int, int]:
    """Dedekind sum s(h, k) via the reciprocity descent, reduced (num, den).

    Uses s(h,k) = (h^2+k^2+1)/(12hk) - 1/4 - s(k mod h, h) along the Euclid
    chain of (h, k), so the cost is O(log k) exact rational steps.  Caller
    guarantees gcd(h, k) == 1 and k >= 1.
    """
    h %= k
    num, den = 0, 1
    sign = 1
    while h:
        # term = (h^2 + k^2 + 1)/(12hk) - 1/4  ==  (4*(h^2+k^2+1) - 12hk) / (48hk)
        hk12 = 12 * h * k
        t_num = 4 * (h * h + k * k + 1) - hk12
        t_den = 4 * hk12
        num = num * t_den + sign * t_num * den
        den = den * t_den
        g = gcd(num, den)
        num //= g
        den //= g
        sign = -sign
        h, k = k % h, h
    return num, den


def psi4(a: int, b: int, c: int, d: int) -> int:
    """The integer invariant of a determinant-1 matrix (four-case formula).

    c > 0: (a+d)/c + 12 s(-d, c) - 3;   c < 0: (a+d)/c + 12 s(d, -c) + 3;
    c == 0: b for a > 0 and -b - 6 for a < 0.  The rational expression always
    simplifies to an integer; a non-integral value means corrupted input and
    raises ArithmeticError rather than rounding.
    """
    if c == 0:
        return b if a > 0 else -b - 6
    if c > 0:
        num, den = dedekind_fast(-d, c)
        off = -3
    else:
        num, den = dedekind_fast(d, -c)
        off = 3
    # (a+d)/c + 12*num/den + off  over the common denominator c*den
    total = (a + d) * den + 12 * num * c + off * c * den
    q, r = divmod(total, c * den)
    if r:
        raise ArithmeticError(
            f"non-integral value for matrix ({a},{b},{c},{d}): {total}/{c * den}"
        )
    return q


def scan_fast_vs_naive(kmax: int) -> int:
    """Compare the two Dedekind sum routes on every coprime pair with k <= kmax.

    Returns the number of pairs checked; raises AssertionError on the first
    disagreement.
    """
    if kmax < 1:
        return 0
    if dedekind_fast(0, 1) != (0, 1) or dedekind_naive(0, 1) != (0, 1):
        raise AssertionError("dedekind mismatch at (0, 1)")
    checked = 1
    for k in range(2, kmax + 1):
        for h in range(1, k):
            if gcd(h, k) != 1:
                continue
            if dedekind_fast(h, k) != dedekind_naive(h, k):
                raise AssertionError(f"dedekind mismatch at (h, k) = ({h}, {k})")
            checked += 1
    return checked
