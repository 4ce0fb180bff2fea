"""Truncated Laurent series model of k_infinity = F_q((1/theta)).

A value is stored as digits c_v, ..., c_end (exponents of 1/theta, so
val(1/theta) = 1 and val(theta) = -1) together with a precision bound:
digits at exponents <= prec are exact, nothing is claimed beyond.  A prec
of math.inf marks an exact value (embedded polynomial, monomial, or the
exact zero), and the arithmetic does not special-case it: inf + k = inf
and min(n, inf) = n carry exactness through sums, products, shifts and
powers.  It is tested for only where an int is needed (the window cuts,
``to_json``, printing) or where exactness changes the answer
(``is_exact_zero``, ``agrees_with``, the exact monomial in ``inv``).  A
value whose digits all vanish up to a finite prec is
"indistinguishable from zero at precision prec" -- distinct from the exact
zero, and callers must branch on it explicitly.

Precision is absolute (an exponent cutoff), not relative: every evaluator
in this package has an a-priori truncation bound, so eager fixed-window
arithmetic is enough.  Digit windows are multiplied and inverted by the
``backend`` kernels, one implementation for every q.
"""

from __future__ import annotations

import math

import numpy as np

from . import backend
from .errors import DomainError
from .scalar import BiPoly, Field, Poly, RatFunc, binary_power

INF = math.inf


class Laurent:
    """Truncated Laurent series in 1/theta over F_q.

    Attributes:
        field: the coefficient field.
        val:   exponent of the first stored digit (lowest 1/theta power);
               for an empty window this is prec + 1 (a lower bound on the
               true valuation), which is +inf for the exact zero.
        prec:  digits at exponents <= prec are exact (int or math.inf).
        coeffs: int64 digits for exponents val .. val+len-1; first and last
               entries nonzero (trailing exact zeros are implied).
    """

    __slots__ = ("field", "val", "prec", "coeffs")

    def __init__(self, field: Field, val, coeffs, prec):
        arr = np.asarray(coeffs, dtype=np.int64)
        if prec != INF:
            prec = int(prec)
            if arr.size and val + arr.size - 1 > prec:
                arr = arr[: max(0, prec - val + 1)]
        # the O(1) end checks come first: most windows need no trimming,
        # and a full scan on every short window costs more than it saves
        lead, tail = 0, arr.size
        if tail and arr[0] == 0:
            lead = int(np.argmax(arr != 0))
            if arr[lead] == 0:
                lead = tail
        if tail > lead and arr[tail - 1] == 0:
            tail -= int(np.argmax(arr[::-1] != 0))
        arr = arr[lead:tail].copy()
        val = val + lead if arr.size else prec + 1
        arr.flags.writeable = False
        self.field = field
        self.val = val
        self.prec = prec
        self.coeffs = arr

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, field):
        """The exact zero."""
        return cls(field, 0, [], INF)

    @classmethod
    def zero_to_prec(cls, field, prec):
        """Indistinguishable from zero at precision prec (the exact zero for
        prec = INF)."""
        return cls(field, prec + 1, [], prec)

    @classmethod
    def one(cls, field):
        return cls(field, 0, [1], INF)

    @classmethod
    def monomial(cls, field, c, exponent):
        """c * theta^{-exponent}, exact."""
        return cls(field, exponent, [c], INF)

    @classmethod
    def from_poly(cls, f: Poly):
        """Exact embedding of a theta-polynomial."""
        if f.is_zero:
            return cls.zero(f.field)
        return cls(f.field, -int(f.degree), f.coeffs[::-1], INF)

    @classmethod
    def from_bipoly(cls, h: BiPoly, a: int, b: int, prec=INF):
        """sum of h_ij theta^{a i + b j} over the monomials t^i theta^j of h,
        for a, b >= 1: the substitution t <- theta^a, theta <- theta^b, exact
        through prec.  Column j lands on the 1/theta-exponents -j b - i a, so
        only the top columns reach an exponent <= prec once b outgrows the
        window; they are the only ones read, and b may be far past int64.
        Monomials that collide are summed."""
        fld = h.field
        rows, cols = h.coeffs.shape
        span = (rows - 1) * a  # column j spans exponents -j b - span .. -j b
        lo = -(cols - 1) * b - span
        j = cols
        while j > 0 and -(j - 1) * b - span <= prec:
            j -= 1
        if j == cols:  # no column reaches prec, or h is zero
            return cls.zero_to_prec(fld, prec)
        # columns j .. cols-1 are read; the highest exponent they reach is -j b
        top = min(prec, -j * b)
        window = np.zeros(top - lo + 1, dtype=np.int64)
        for k in range(cols - 1, j - 1, -1):
            first = (cols - 1 - k) * b  # exponent -k b - span, less lo
            n = min(rows, (top - lo - first) // a + 1)
            dst = window[first : first + (n - 1) * a + 1 : a]
            dst[:] = fld.add(dst, h.coeffs[rows - n :, k][::-1])
        return cls(fld, lo, window, prec)

    @classmethod
    def from_ratfunc(cls, r: RatFunc, prec):
        """Laurent expansion of num/den at infinity, exact through prec: num
        times 1/den, which is exact when den is a monomial."""
        num, den = cls.from_poly(r.num), cls.from_poly(r.den)
        if den.coeffs.size > 1 and num.val - den.val > prec:
            return cls.zero_to_prec(r.field, prec)  # no digit reaches prec
        return num * den.inv(prec - num.val)

    # -- predicates ----------------------------------------------------------

    @property
    def is_exact_zero(self):
        return self.coeffs.size == 0 and self.prec == INF

    @property
    def is_zero_to_precision(self):
        """True when no nonzero digit is known (exact zero included)."""
        return self.coeffs.size == 0

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other):
        if self.field is not other.field:
            raise DomainError("mixed fields")

    def __add__(self, other):
        self._check(other)
        fld = self.field
        prec = min(self.prec, other.prec)
        if self.coeffs.size == 0 and other.coeffs.size == 0:
            return Laurent.zero_to_prec(fld, prec)
        # low starts first; an empty operand is high, and adds nothing
        low, high = self, other
        if not low.coeffs.size or (high.coeffs.size and high.val < low.val):
            low, high = high, low
        lo = int(low.val)
        hi = lo + low.coeffs.size - 1
        if high.coeffs.size:
            hi = max(hi, int(high.val) + high.coeffs.size - 1)
        hi = min(hi, prec)
        if hi < lo:
            return Laurent.zero_to_prec(fld, prec)
        # copy low's window, then add high into the overlap and copy the rest
        out = np.zeros(hi - lo + 1, dtype=np.int64)
        n = min(low.coeffs.size, out.size)
        out[:n] = low.coeffs[:n]
        if high.coeffs.size:
            a = int(high.val) - lo
            src = high.coeffs[: max(0, out.size - a)]
            m = max(0, min(src.size, n - a))
            out[a : a + m] = fld.add(out[a : a + m], src[:m])
            out[a + m : a + src.size] = src[m:]
        return Laurent(fld, lo, out, prec)

    def __neg__(self):
        if self.coeffs.size == 0:
            return self
        return Laurent(self.field, self.val, self.field.neg(self.coeffs), self.prec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        fld = self.field
        prec = min(self.val + other.prec, other.val + self.prec)  # INF at an exact zero
        if self.coeffs.size == 0 or other.coeffs.size == 0:
            return Laurent.zero_to_prec(fld, prec)
        val = int(self.val) + int(other.val)
        a, b = self.coeffs, other.coeffs
        if prec != INF:
            # the result keeps k digits, and digit i of either operand only
            # reaches digits >= i of the product
            k = int(prec) - val + 1
            a, b = a[:k], b[:k]
        return Laurent(fld, val, backend.convolve_mod(a, b, fld), prec)

    def scale(self, c: int):
        """Multiply by a field constant."""
        if not 0 <= c < self.field.q:
            c = self.field.from_int(c)
        if c == 0:
            return Laurent.zero(self.field)
        if self.coeffs.size == 0:
            return self
        return Laurent(self.field, self.val, self.field.mul(c, self.coeffs), self.prec)

    def shift(self, k: int):
        """Multiply by theta^{-k} (exact monomial): valuation moves by k."""
        return Laurent(self.field, self.val + k, self.coeffs, self.prec + k)

    def inv(self, prec=None):
        """Multiplicative inverse, exact through prec - 2*val digits."""
        if self.is_exact_zero:
            raise DomainError("division by exact zero in k_infinity")
        if self.is_zero_to_precision:
            raise DomainError(
                f"cannot invert a value indistinguishable from zero at precision {self.prec}"
            )
        fld = self.field
        v = int(self.val)
        if self.prec == INF and self.coeffs.size == 1:
            return Laurent.monomial(fld, fld.inv(int(self.coeffs[0])), -v)
        out_prec = min(self.prec - 2 * v, INF if prec is None else prec)
        if out_prec == INF:
            raise DomainError("inverse of an exact non-monomial needs a target precision")
        digits = out_prec + v + 1
        if digits <= 0:
            raise DomainError("no digits representable at the requested precision")
        out = backend.series_recip_mod(self.coeffs[:digits], digits, fld)
        return Laurent(fld, -v, out, out_prec)

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        return binary_power(self, k, Laurent.one(self.field))

    def qth_power(self, m: int, out_prec=None):
        """Raise to the q^m-th power: exponents dilate by q^m (coefficients
        of F_q are Frobenius-fixed); precision scales to (prec+1)*q^m - 1."""
        if m < 0:
            raise DomainError("qth_power wants m >= 0")
        if m == 0:
            return self if out_prec is None else self.truncate(out_prec)
        step = self.field.q ** m
        prec = (self.prec + 1) * step - 1
        if out_prec is not None:
            prec = min(prec, out_prec)
        if self.coeffs.size == 0:
            return Laurent.zero_to_prec(self.field, prec)
        src = self.coeffs
        if prec != INF:
            keep = int(prec // step - self.val) + 1
            if keep <= 0:
                return Laurent.zero_to_prec(self.field, prec)
            src = src[:keep]
        out = np.zeros((src.size - 1) * step + 1, dtype=np.int64)
        out[::step] = src
        return Laurent(self.field, int(self.val) * step, out, prec)

    def truncate(self, prec):
        if prec >= self.prec:
            return self
        return Laurent(self.field, self.val, self.coeffs, prec)

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Laurent):
            return NotImplemented
        return (
            self.field is other.field
            and self.val == other.val
            and self.prec == other.prec
            and np.array_equal(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash((self.field.q, self.val, self.prec, self.coeffs.tobytes()))

    def agrees_with(self, other, through=None) -> bool:
        """Digit-for-digit agreement through the common precision (or an
        explicit exponent bound)."""
        self._check(other)
        bound = min(self.prec, other.prec) if through is None else through
        if bound == INF:
            return self.val == other.val and np.array_equal(self.coeffs, other.coeffs)
        diff = self - other
        return diff.coeffs.size == 0 or diff.val > bound

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "q": self.field.q,
            "val": None if self.val == INF else int(self.val),
            "prec": None if self.prec == INF else int(self.prec),
            "coeffs": [int(c) for c in self.coeffs],
        }

    def __repr__(self):
        body = format_laurent(self)
        return f"Laurent({body})"


def _theta_power(exponent: int) -> str:
    """theta^{-exponent} as printed: θ^-k, 1 or θ^k."""
    return "1" if exponent == 0 else f"θ^{-exponent}"


def format_laurent(x: Laurent, max_terms=12) -> str:
    if x.is_exact_zero:
        return "0"
    if x.is_zero_to_precision:
        return f"O({_theta_power(int(x.prec) + 1)})"
    parts = []
    for i, c in enumerate(x.coeffs[:max_terms]):
        if c == 0:
            continue
        e = int(x.val) + i
        if e == 0:
            parts.append(str(int(c)))
        else:
            head = "" if c == 1 else f"{int(c)}*"
            parts.append(f"{head}{_theta_power(e)}")
    if x.coeffs.size > max_terms:
        parts.append("...")
    if x.prec != INF:
        parts.append(f"O({_theta_power(int(x.prec) + 1)})")
    return " + ".join(parts)
