"""The hot kernels: Dedekind sums and the integer-valued eta-log function.

These are the inner loops of the package, on plain arbitrary-precision
integers, returning reduced ``(num, den)`` pairs.  ``psi4`` and
``dedekind_fast`` share one Euclid walk: by the Barkan-Hickerson-Knuth formula
(Barkan, Hickerson, Knuth 1977), 12*s(h, k) is the alternating sum of the
partial quotients of h/k plus (h + h*)/k, h*h* == 1 mod k, plus a parity term.
"""

from math import gcd


def backend_name() -> str:
    """Name of the kernel implementation; the package has only the pure one."""
    return "pure"


# Up to this size the vectorised int64 path of the naive sum cannot overflow:
# its largest int64 value is the dot product sum(r*(h*r mod k)) < k**3/2,
# 5*10**17 at k = 10**6 (the numerator built from it is a Python int).
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


def _walk(x: int, y: int) -> int:
    """W with 12*s(x, y) = W + (x + x*)/y, x* = x^-1 mod y in [0, y); y >= 1.

    For x/y = [q0; q1, ..., qn] (Euclid chain, qn >= 2 if n >= 1),
    W = -q0 + sum_{i=1..n} (-1)^(i+1) q_i + (0 if n == 0, -3 if n is odd,
    else -1).  One divmod per step; no gcd and no fraction.
    """
    q, x = divmod(x, y)
    w = -q
    if not x:
        return w
    while True:
        q, y = divmod(y, x)
        w += q
        if not y:
            return w - 3
        q, x = divmod(x, y)
        w -= q
        if not x:
            return w - 1


def dedekind_fast(h: int, k: int) -> tuple[int, int]:
    """Dedekind sum s(h, k) from the partial quotients of h/k, reduced (num, den).

    s(h, k) = (k*W + h + h*)/(12k), W from ``_walk`` and h* = h^-1 mod k
    (Barkan, Hickerson, Knuth 1977): O(log k) integer steps, one modular
    inverse, one reduction.  Caller guarantees gcd(h, k) == 1 and k >= 1.
    """
    num = k * _walk(h, k) + h + pow(h, -1, k)
    g = gcd(num, 12 * k)
    return num // g, 12 * k // g


def psi4(a: int, b: int, c: int, d: int) -> int:
    """The integer invariant of a determinant-1 matrix (four-case formula).

    c > 0: (a+d)/c - 12 s(d, c) - 3;   c < 0: (a+d)/c + 12 s(d, -c) + 3;
    c == 0: b for a > 0 and -b - 6 for a < 0.  As a == d^-1 mod c, the
    (d + d*)/c part of 12 s(d, c) cancels (Barkan, Hickerson, Knuth 1977):
    c > 0 gives floor(a/c) - 3 - W(d, c) (see ``_walk``), c < 0 the value at
    -M plus 6.  A determinant other than 1 raises ArithmeticError.
    """
    if a * d - b * c != 1:
        raise ArithmeticError(f"determinant of ({a},{b},{c},{d}) is {a * d - b * c}, not 1")
    if c > 0:
        return a // c - 3 - _walk(d, c)
    if c < 0:
        return a // c + 3 - _walk(-d, -c)
    return b if a > 0 else -b - 6

