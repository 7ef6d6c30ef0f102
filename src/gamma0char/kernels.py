"""The hot kernel ``psi4``, the integer-valued eta-log function of a matrix.

It runs on plain arbitrary-precision integers and holds the package's one
Euclid walk (Barkan, Hickerson, Knuth 1977); ``exact.dedekind_sum_fast``
reads Dedekind sums off it.
"""


def backend_name() -> str:
    """Name of the kernel implementation; the package has only the pure one."""
    return "pure"


def psi4(a: int, b: int, c: int, d: int) -> int:
    """The integer invariant of a determinant-1 matrix (four-case formula).

    c > 0: (a+d)/c - 12 s(d, c) - 3;   c < 0: (a+d)/c + 12 s(d, -c) + 3;
    c == 0: b for a > 0 and -b - 6 for a < 0.  As a == d^-1 mod c, the
    (d + d*)/c part of 12 s(d, c) cancels (Barkan, Hickerson, Knuth 1977):
    for c > 0 the value is floor(a/c) - 3 - W(d, c), where, for
    d/c = [q0; q1, ..., qn] (Euclid chain, qn >= 2 if n >= 1),
    W = -q0 + sum_{i=1..n} (-1)^(i+1) q_i + (0 if n == 0, -3 if n is odd,
    else -1).  For c < 0 it is the value at -M plus 6.  This is the package's
    one Euclid walk; each step is a ``//`` and a ``%``, whose single-digit
    fast paths ``divmod`` lacks.  A determinant other than 1 raises
    ArithmeticError.
    """
    if a * d - b * c != 1:
        raise ArithmeticError(f"determinant of ({a},{b},{c},{d}) is {a * d - b * c}, not 1")
    if c > 0:
        w = a // c - 3
    elif c < 0:
        w = a // c + 3
        c, d = -c, -d
    else:
        return b if a > 0 else -b - 6
    # w -= W(d, c), one partial quotient per step
    w += d // c
    d %= c
    if not d:
        return w
    while True:
        w -= c // d
        c %= d
        if not c:
            return w + 3
        w += d // c
        d %= c
        if not d:
            return w + 1
