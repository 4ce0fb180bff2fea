"""Exact arithmetic over F_q, F_q[x] (x in {theta, t}), F_q[t][theta] and F_q(theta).

Field elements are canonical integers 0..q-1.  For q = p^e with e > 1 the
integer's base-p digits are the coefficients of the residue polynomial
modulo a fixed irreducible; multiplication goes through exp/log tables
(q <= 2^16).  The irreducible is found by Rabin's test, on the same
``Poly`` and F_p product as every other polynomial, and the tables start
from one ``backend.convolve_mod`` per candidate generator, so F_p[y]
arithmetic exists once.  The chosen irreducible is exposed so runs are
reproducible.

``Poly`` and ``BiPoly`` are one dense core, ``_Dense``: a trimmed int64
grid whose last axis is the variable that a Frobenius twist dilates (theta
for a ``BiPoly``).  Addition, negation, subtraction, scaling, powers,
equality, hashing, the operand check and ``dilate`` are written once
there, so ``frobenius_twist`` is ``dilate(q^n)`` and ``inverse_twist`` one
strided read of the last axis.  Products, division and the gcd stay on
each class.

``field(q)`` hands out one shared instance per q, also to threads that
ask for a new q at the same time.  Everything is immutable after
construction and all operations are pure functions, so values can be
shared freely across threads.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from . import backend, cache
from .errors import BudgetError, DomainError, InvalidIndexError

THETA = "theta"
TVAR = "t"

_MAX_Q = 1 << 16


# ---------------------------------------------------------------------------
# the field
# ---------------------------------------------------------------------------

def _is_irreducible(f):
    """Rabin's test for a monic f over F_p of degree e >= 2: f divides
    x^(p^e) - x, and x^(p^(e/l)) - x is prime to f for every prime l | e."""
    p, e = f.field.p, f.degree
    x = Poly.gen(f.field)
    frob = [x]  # frob[k] = x^(p^k) mod f
    for _ in range(e):
        frob.append(frob[-1] ** p % f)
    if frob[e] != x:
        return False
    return all((frob[e // ell] - x).gcd(f).degree == 0 for ell in _prime_factors(e))


def _prime_factors(n):
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def _matrix_power(m, k: int, p: int):
    """m^k mod p for a square int64 matrix m and k >= 1."""
    out = None
    while True:
        if k & 1:
            out = m if out is None else out @ m % p
        k >>= 1
        if not k:
            return out
        m = m @ m % p


def _find_irreducible(p, e):
    # first monic irreducible of degree e in lexicographic order of the
    # low-coefficient integer encoding; recorded for reproducibility
    fp = field(p)
    for code in range(1, p ** e):
        f = Poly(fp, base_q_digits(p ** e + code, p))
        if code % p and _is_irreducible(f):
            return tuple(int(c) for c in f.coeffs)
    raise RuntimeError("no irreducible found")  # unreachable for prime p


def _fold_matrix(irreducible, p):
    """The e x (2e-1) matrix over F_p whose column k holds the digits of y^k
    modulo the monic irreducible f of degree e: a product of two residues
    has y-degree <= 2e - 2, and this matrix reduces its digits at once."""
    e = len(irreducible) - 1
    fold = np.zeros((e, 2 * e - 1), dtype=np.int64)
    fold[:, :e] = np.eye(e, dtype=np.int64)
    low = np.array(irreducible[:e], dtype=np.int64)
    for k in range(e, 2 * e - 1):
        # y^k = y * y^(k-1), and y^e = -(f_0 + f_1 y + ... + f_{e-1} y^(e-1))
        fold[1:, k] = fold[:-1, k - 1]
        fold[:, k] = (fold[:, k] - fold[e - 1, k - 1] * low) % p
    return fold


class Field:
    """F_q with q = p^e <= 2^16; elements are canonical ints 0..q-1.

    For e > 1 the irreducible is the first monic one of degree e over F_p
    when its low coefficients are read as the base-p digits of an integer
    (Rabin's test, in ``Poly`` over ``field(p)``).  The tables hold the
    powers of the least g >= 2 with g^((q-1)/l) != 1 for every prime
    l | q-1 (g = 1 at q = 2).  Multiplying by g is one F_p-linear map on
    the e digits, whose matrix comes from one ``backend.convolve_mod``
    (which reads p, e, the digit table and the fold matrix but never the
    exp/log tables); the search for g and the powers are products of such
    matrices mod p.  Build fields through ``field(q)``, which shares one
    instance per q between callers and threads.

    Everything that depends on the field alone is built once, here:

    * ``_exp`` holds g^k at k and at k + q - 1, then zeros, and ``_log[0]``
      is the sentinel 2(q - 1), which lands every sum of logs with a zero
      operand in the zeros: ``mul`` is two gathers and one add, with no
      mask;
    * for e > 1, ``_digits`` is the e x q uint8 table whose column a holds
      the base-p digits of a (e >= 2 forces p <= 2^8), ``_powers`` the
      place values p^i that recombine them, and ``_fold`` the e x (2e-1)
      matrix over F_p whose column k holds the digits of y^k modulo the
      irreducible.  ``add`` and ``sub`` act on gathered digits in one
      pass (XOR at p = 2), ``neg`` reads a q-entry table, and ``backend``
      splits arrays into digit planes and reduces their products with
      the same tables.

    Arithmetic methods accept ints or int64 numpy arrays (broadcasting like
    ufuncs) and return the same kind.
    """

    __slots__ = ("p", "e", "q", "irreducible", "_exp", "_log", "_powers", "_digits", "_fold",
                 "_neg")

    def __init__(self, q: int):
        p, e = _factor_prime_power(q)
        self.p = p
        self.e = e
        self.q = q
        self.irreducible = _find_irreducible(p, e) if e > 1 else None
        self._powers = p ** np.arange(e)
        self._digits = self._fold = self._neg = None
        if e > 1:
            self._digits = np.empty((e, q), dtype=np.uint8)
            rest = np.arange(q)
            for row in self._digits:
                row[:] = rest % p
                rest //= p
            self._fold = _fold_matrix(self.irreducible, p)
            self._neg = self._digitwise(0, np.arange(q), np.subtract)
        self._build_tables()

    def _build_tables(self):
        q, p = self.q, self.p
        # the digits of g^k, k < q - 1, fill by doubling: rows [k, 2k) are
        # rows [0, k) times the matrix of g^k, which then squares
        planes = np.zeros((q - 1, self.e), dtype=np.int64)
        planes[0, 0] = 1
        times = self._generator_matrix()
        k = 1
        while k < q - 1:
            n = min(k, q - 1 - k)
            np.matmul(planes[:n], times, out=planes[k : k + n])
            planes[k : k + n] %= p
            times = times @ times % p
            k += n
        exp = planes @ self._powers
        del planes
        # a sum of two unit logs is at most 2(q - 2); a sum with the sentinel
        # lies in [2(q - 1), 4(q - 1)], where every entry is 0
        self._exp = np.concatenate([exp, exp, np.zeros(2 * q - 1, dtype=np.int64)])
        self._log = np.full(q, 2 * (q - 1), dtype=np.int64)
        self._log[exp] = np.arange(q - 1)
        units = np.arange(1, q)
        if np.any(self.mul(units, self.inv(units)) != 1):
            raise RuntimeError("inconsistent multiplication tables")

    def _generator_matrix(self):
        """The matrix of x -> g*x for the least g >= 2 with g^((q-1)/l) != 1
        for every prime l | q-1 (g = 1 at q = 2).  Multiplying by c is an
        F_p-linear map on the base-p digits: row j of its matrix holds the
        digits of c*y^j, and a product of elements has the product of their
        matrices.  For e > 1 the search starts at p, since the elements
        below p lie in F_p, whose units have orders dividing p - 1."""
        q, p, powers = self.q, self.p, self._powers
        ells = _prime_factors(q - 1)
        one = np.eye(1, self.e, dtype=np.int64)[0]
        for g in range(p if self.e > 1 else 2, q):
            c = np.array([g], dtype=np.int64)
            times = backend.convolve_mod(powers, c, self)[:, None] // powers % p
            # row 0 of a power of the matrix holds the digits of that power of g
            if all((_matrix_power(times, (q - 1) // ell, p)[0] != one).any() for ell in ells):
                return times
        return np.ones((1, 1), dtype=np.int64)  # q = 2

    # -- vectorised ops ----------------------------------------------------

    def add(self, a, b):
        if self.e == 1:
            return (a + b) % self.p
        return self._digitwise(a, b, np.add)

    def sub(self, a, b):
        if self.e == 1:
            return (a - b) % self.p
        return self._digitwise(a, b, np.subtract)

    def neg(self, a):
        if self.e == 1:
            return (-a) % self.p
        out = self._neg[np.asarray(a, dtype=np.int64)]
        return out if out.shape else int(out)

    def _digitwise(self, a, b, op):
        """a op b digit by digit for e > 1, op np.add or np.subtract: XOR at
        p = 2, else one pass over the gathered base-p digits."""
        a_arr = np.asarray(a, dtype=np.int64)
        b_arr = np.asarray(b, dtype=np.int64)
        if self.p == 2:
            out = a_arr ^ b_arr
        else:
            if a_arr.shape != b_arr.shape:
                a_arr, b_arr = np.broadcast_arrays(a_arr, b_arr)
            digits = op(self._digits.take(a_arr, axis=1), self._digits.take(b_arr, axis=1),
                        dtype=np.int64)
            digits %= self.p
            out = (self._powers @ digits.reshape(self.e, -1)).reshape(a_arr.shape)
        return out if out.shape else int(out)

    def mul(self, a, b):
        a_arr = np.asarray(a, dtype=np.int64)
        b_arr = np.asarray(b, dtype=np.int64)
        if self.e == 1:
            out = (a_arr * b_arr) % self.p
        else:
            out = self._exp.take(self._log.take(a_arr) + self._log.take(b_arr))
        return out if out.shape else int(out)

    def inv(self, a):
        a_arr = np.asarray(a, dtype=np.int64)
        if np.any(a_arr == 0):
            raise ZeroDivisionError("inverse of 0 in F_q")
        out = self._exp[(self.q - 1 - self._log[a_arr]) % (self.q - 1)]
        return out if out.shape else int(out)

    def pow(self, a, k: int):
        a = int(a)
        if a == 0:
            if k == 0:
                return 1
            if k < 0:
                raise ZeroDivisionError("negative power of 0 in F_q")
            return 0
        return int(self._exp[(self._log[a] * (k % (self.q - 1))) % (self.q - 1)])

    def from_int(self, n: int) -> int:
        """Canonical image of an integer (lands in the prime subfield)."""
        return n % self.p

    def __repr__(self):
        return f"F({self.q})"


def _factor_prime_power(q):
    if q < 2 or q > _MAX_Q:
        raise DomainError(f"q must be a prime power in [2, {_MAX_Q}], got {q}")
    primes = _prime_factors(q)
    if len(primes) != 1:
        raise DomainError(f"q = {q} is not a prime power")
    (p,) = primes
    return p, len(base_q_digits(q, p)) - 1  # p^e has e + 1 base-p digits


_FIELDS: dict = {}
# reentrant: building F_{p^e} asks for field(p)
_FIELDS_LOCK = threading.RLock()


def field(q: int) -> Field:
    """Shared immutable Field instance for F_q: one per q, also when several
    threads ask for a new q at once."""
    fld = _FIELDS.get(q)
    if fld is None:
        with _FIELDS_LOCK:
            fld = _FIELDS.get(q)
            if fld is None:
                fld = _FIELDS[q] = Field(q)
    return fld


def binary_power(base, k: int, one):
    """base ** k for k >= 0 by square-and-multiply, the products taken as
    result * base; ``one`` is the value for k = 0.  No square is taken past
    the top bit of k."""
    result = one if k == 0 else None
    while k:
        if k & 1:
            result = base if result is None else result * base
        k >>= 1
        if k:
            base = base * base
    return result


# ---------------------------------------------------------------------------
# the dense core shared by Poly and BiPoly
# ---------------------------------------------------------------------------

class _Dense:
    """A trimmed, read-only int64 grid of F_q coefficients whose last axis
    holds the powers of ``var``: the one variable of a ``Poly``, theta for a
    ``BiPoly``.  Each subclass keeps its constructor and trimming and builds
    values of its own kind through ``_like(coeffs)``; the arithmetic that
    reads the grid alone lives here once.  Operands must share the class,
    the field and ``var``.
    """

    __slots__ = ()

    @property
    def is_zero(self):
        return self.coeffs.size == 0

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.field is other.field
            and self.var == other.var
            and np.array_equal(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash((self.field.q, self.var, self.coeffs.shape, self.coeffs.tobytes()))

    def _check(self, other):
        if type(other) is not type(self) or self.field is not other.field or self.var != other.var:
            raise DomainError("mixed fields, variables or polynomial kinds")

    def __add__(self, other):
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if a.shape != b.shape:
            shape = tuple(map(max, a.shape, b.shape))
            a, b = _padded(a, shape), _padded(b, shape)
        return self._like(self.field.add(a, b))

    def __neg__(self):
        if self.is_zero:
            return self
        return self._like(self.field.neg(self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: int):
        if not 0 <= c < self.field.q:
            c = self.field.from_int(c)
        if c == 0 or self.is_zero:
            return self._like(self.coeffs[:0])
        return self._like(self.field.mul(c, self.coeffs))

    def __pow__(self, k: int):
        if k < 0:
            raise DomainError(f"negative {type(self).__name__} power")
        one = np.ones((1,) * self.coeffs.ndim, dtype=np.int64)
        return binary_power(self, k, self._like(one))

    def dilate(self, k: int):
        """Substitute var -> var^k (k >= 1) on the last axis."""
        if self.is_zero or k == 1:
            return self
        *rows, cols = self.coeffs.shape
        out = np.zeros((*rows, (cols - 1) * k + 1), dtype=np.int64)
        out[..., ::k] = self.coeffs
        return self._like(out)


def _padded(a, shape):
    """a zero-padded at the high end of each axis to ``shape``."""
    if a.shape == shape:
        return a
    out = np.zeros(shape, dtype=np.int64)
    out[tuple(map(slice, a.shape))] = a
    return out


# ---------------------------------------------------------------------------
# dense univariate polynomials
# ---------------------------------------------------------------------------

class Poly(_Dense):
    """Dense polynomial over F_q in one named variable (theta or t).

    coeffs[i] is the coefficient of x^i; the leading coefficient is nonzero
    unless the polynomial is zero (empty coeffs, degree -inf).
    """

    __slots__ = ("field", "var", "coeffs")

    def __init__(self, field: Field, coeffs, var: str = THETA):
        if var not in (THETA, TVAR):
            raise DomainError(f"unknown variable tag {var!r}")
        arr = np.asarray(coeffs, dtype=np.int64)
        if arr.ndim != 1:
            raise DomainError("coefficients must be one-dimensional")
        n = arr.size
        if n and arr[-1] == 0:  # the O(1) check first, as in Laurent
            nonzero = np.flatnonzero(arr)
            n = int(nonzero[-1]) + 1 if nonzero.size else 0
        arr = arr[:n].copy()
        arr.flags.writeable = False
        self.field = field
        self.var = var
        self.coeffs = arr

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, field, var=THETA):
        return cls(field, [], var)

    @classmethod
    def one(cls, field, var=THETA):
        return cls(field, [1], var)

    @classmethod
    def constant(cls, field, c, var=THETA):
        return cls(field, [field.from_int(c) if not 0 <= c < field.q else c], var)

    @classmethod
    def gen(cls, field, var=THETA):
        return cls(field, [0, 1], var)

    @classmethod
    def monomial(cls, field, c, k, var=THETA):
        coeffs = np.zeros(k + 1, dtype=np.int64)
        coeffs[k] = c
        return cls(field, coeffs, var)

    # -- structure ----------------------------------------------------------

    @property
    def degree(self):
        return self.coeffs.size - 1 if self.coeffs.size else -math.inf

    @property
    def is_one(self):
        return self.coeffs.size == 1 and self.coeffs[0] == 1

    def leading(self):
        if self.is_zero:
            raise DomainError("zero polynomial has no leading coefficient")
        return int(self.coeffs[-1])

    @property
    def is_monic(self):
        return not self.is_zero and self.coeffs[-1] == 1

    def _like(self, coeffs):
        return Poly(self.field, coeffs, self.var)

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        f = self.field
        if self.is_zero or other.is_zero:
            return Poly.zero(f, self.var)
        return Poly(f, backend.convolve_mod(self.coeffs, other.coeffs, f), self.var)

    def shift(self, k: int):
        """Multiply by x^k."""
        if self.is_zero or k == 0:
            return self
        return Poly(self.field, np.concatenate([np.zeros(k, dtype=np.int64), self.coeffs]), self.var)

    def __divmod__(self, other):
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        f = self.field
        rem = np.array(self.coeffs, dtype=np.int64)
        db = other.coeffs.size - 1
        if rem.size - 1 < db:
            return Poly.zero(f, self.var), self
        quo = np.zeros(rem.size - db, dtype=np.int64)
        inv_lead = f.inv(other.leading())
        for k in range(rem.size - 1, db - 1, -1):
            if rem[k] == 0:
                continue
            c = f.mul(int(rem[k]), inv_lead)
            quo[k - db] = c
            rem[k - db : k + 1] = f.sub(rem[k - db : k + 1], f.mul(c, other.coeffs))
        return Poly(f, quo, self.var), Poly(f, rem[:db] if db else [], self.var)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other):
        q, r = divmod(self, other)
        if not r.is_zero:
            raise DomainError("division is not exact")
        return q

    def monic(self):
        if self.is_zero or self.is_monic:
            return self
        return Poly(self.field, self.field.mul(self.field.inv(self.leading()), self.coeffs), self.var)

    def gcd(self, other):
        self._check(other)
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic() if not a.is_zero else a

    def with_var(self, var: str):
        return Poly(self.field, self.coeffs, var) if var != self.var else self

    def __repr__(self):
        return f"Poly({self.var}; {format_poly(self)})"


def format_poly(f: Poly) -> str:
    sym = "θ" if f.var == THETA else f.var
    if f.is_zero:
        return "0"
    parts = []
    for k in range(f.coeffs.size - 1, -1, -1):
        c = int(f.coeffs[k])
        if c == 0:
            continue
        if k == 0:
            parts.append(str(c))
        else:
            head = "" if c == 1 else f"{c}*"
            parts.append(f"{head}{sym}" + (f"^{k}" if k > 1 else ""))
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# bivariate polynomials: F_q[theta][t], canonical 2-D coefficient grid
# ---------------------------------------------------------------------------

class BiPoly(_Dense):
    """Polynomial in t whose coefficients are polynomials in theta.

    coeffs[i, j] is the coefficient of t^i * theta^j; the grid is trimmed so
    the last t-row and the widest theta-column are nonzero.
    """

    __slots__ = ("field", "coeffs")
    var = THETA  # the variable of the last axis, which ``dilate`` substitutes

    def __init__(self, field: Field, coeffs):
        arr = np.asarray(coeffs, dtype=np.int64)
        if arr.ndim != 2:
            raise DomainError("BiPoly wants a 2-D coefficient grid")
        live = np.flatnonzero(arr.any(axis=1))
        rows = live[-1] + 1 if live.size else 0
        live = np.flatnonzero(arr[:rows].any(axis=0))
        cols = live[-1] + 1 if live.size else 0
        arr = arr[:rows, :cols].copy()
        arr.flags.writeable = False
        self.field = field
        self.coeffs = arr

    @classmethod
    def zero(cls, field):
        return cls(field, np.zeros((0, 0), dtype=np.int64))

    @classmethod
    def one(cls, field):
        return cls(field, [[1]])

    @classmethod
    def from_poly(cls, f: Poly):
        if f.is_zero:
            return cls.zero(f.field)
        if f.var == THETA:
            return cls(f.field, f.coeffs[None, :])
        return cls(f.field, f.coeffs[:, None])

    @classmethod
    def t_minus_theta_power(cls, field, k: int, n: int = 1):
        """(t - theta^k)^n."""
        base = np.zeros((2, k + 1), dtype=np.int64)
        base[0, k] = field.neg(1)
        base[1, 0] = 1
        return cls(field, base) ** n

    def _like(self, coeffs):
        return BiPoly(self.field, coeffs)

    @property
    def t_degree(self):
        return self.coeffs.shape[0] - 1 if self.coeffs.size else -math.inf

    @property
    def theta_degree(self):
        return self.coeffs.shape[1] - 1 if self.coeffs.size else -math.inf

    def __mul__(self, other):
        if isinstance(other, Poly):
            other = BiPoly.from_poly(other)
        self._check(other)
        f = self.field
        if self.is_zero or other.is_zero:
            return BiPoly.zero(f)
        return BiPoly(f, backend.bipoly_mul_mod(self.coeffs, other.coeffs, f))

    # -- t-polynomial view ---------------------------------------------------

    def t_coeffs(self):
        return [Poly(self.field, row, THETA) for row in self.coeffs]

    def exact_div_t(self, den: Poly) -> "BiPoly":
        """Exact division by a polynomial in t alone (raises if inexact)."""
        if den.var != TVAR:
            raise DomainError("divisor must be a polynomial in t")
        if den.is_zero:
            raise ZeroDivisionError("division by zero")
        f = self.field
        n = self.coeffs.shape[0] - den.coeffs.size + 1  # t-rows of the quotient
        quo = BiPoly.zero(f)
        if n > 0:
            # reversed in t, the quotient is rev(self) / rev(den) mod t^n
            recip = backend.series_recip_mod(den.coeffs[::-1], n, f)
            rev = backend.bipoly_mul_mod(self.coeffs[::-1][:n], recip[:, None], f)
            quo = BiPoly(f, rev[n - 1 :: -1])
        if quo * den != self:
            raise DomainError("division is not exact")
        return quo

    def __repr__(self):
        return f"BiPoly({format_bipoly(self)})"


def format_bipoly(f: BiPoly) -> str:
    """The nonzero t-rows as t^i*(theta-polynomial), joined by " + "; "0"
    for the zero polynomial."""
    rows = [f"t^{i}*({format_poly(c)})" for i, c in enumerate(f.t_coeffs()) if not c.is_zero]
    return " + ".join(rows) or "0"


# ---------------------------------------------------------------------------
# rational functions over F_q(theta)
# ---------------------------------------------------------------------------

class RatFunc:
    """Reduced fraction of theta-polynomials with a monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.var != THETA or den.var != THETA:
            raise DomainError("rational functions are over F_q(theta)")
        if num.is_zero:
            num, den = num, Poly.one(num.field)
        else:
            g = num.gcd(den)
            if g.degree > 0:
                num, den = num.exact_div(g), den.exact_div(g)
            lead = den.leading()
            if lead != 1:
                inv = num.field.inv(lead)
                num = num.scale(inv)
                den = den.scale(inv)
        self.num = num
        self.den = den

    @classmethod
    def from_poly(cls, f: Poly):
        return cls(f, Poly.one(f.field))

    @classmethod
    def constant(cls, field, c: int):
        return cls.from_poly(Poly.constant(field, c))

    @classmethod
    def zero(cls, field):
        return cls.from_poly(Poly.zero(field))

    @classmethod
    def one(cls, field):
        return cls.from_poly(Poly.one(field))

    @property
    def field(self):
        return self.num.field

    @property
    def is_zero(self):
        return self.num.is_zero

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        g = self.den.gcd(other.den)
        da = self.den.exact_div(g) if g.degree > 0 else self.den
        db = other.den.exact_div(g) if g.degree > 0 else other.den
        num = self.num * db + other.num * da
        return RatFunc(num, da * other.den)

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if other.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def inv(self):
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero rational function")
        return RatFunc(self.den, self.num)

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        return RatFunc(self.num ** k, self.den ** k)

    def infty_degree(self):
        """deg num - deg den (so |r| = q^infty_degree); -inf for zero."""
        if self.is_zero:
            return -math.inf
        return int(self.num.degree - self.den.degree)

    def __repr__(self):
        if self.den.is_one:
            return f"RatFunc({format_poly(self.num)})"
        return f"RatFunc(({format_poly(self.num)})/({format_poly(self.den)}))"


# ---------------------------------------------------------------------------
# the paper's standard quantities and twisting
# ---------------------------------------------------------------------------

def bracket_L(fld: Field, d: int) -> Poly:
    """L_d = (theta - theta^q) ... (theta - theta^{q^d}); L_0 = 1."""
    if d < 0:
        raise InvalidIndexError("bracket_L wants d >= 0")

    def compute(_):
        if d == 0:
            return Poly.one(fld)
        return bracket_L(fld, d - 1) * (Poly.gen(fld) - Poly.monomial(fld, 1, fld.q ** d))

    return cache.remember("bracket_L", (fld.q, d), None, compute)


def bracket_D(fld: Field, i: int) -> Poly:
    """D_i = prod_{j=0}^{i-1} (theta^{q^i} - theta^{q^j}); D_0 = 1."""
    if i < 0:
        raise InvalidIndexError("bracket_D wants i >= 0")

    def compute(_):
        result = Poly.one(fld)
        for j in range(i):
            result = result * (
                Poly.monomial(fld, 1, fld.q ** i) - Poly.monomial(fld, 1, fld.q ** j)
            )
        return result

    return cache.remember("bracket_D", (fld.q, i), None, compute)


def base_q_digits(n: int, q: int):
    digits = []
    while n:
        digits.append(n % q)
        n //= q
    return digits


def carlitz_gamma_degree(q: int, n: int) -> int:
    """deg Gamma_n = sum n_i i q^i over the base-q digits n_i of n - 1, since
    deg D_i = i q^i."""
    return sum(digit * i * q ** i for i, digit in enumerate(base_q_digits(n - 1, q)))


def carlitz_gamma(fld: Field, n: int) -> Poly:
    """Carlitz gamma Gamma_n = prod_i D_i^{n_i} with n-1 = sum n_i q^i."""
    if n <= 0:
        raise InvalidIndexError(f"carlitz_gamma wants n >= 1, got {n}")
    result = Poly.one(fld)
    for i, digit in enumerate(base_q_digits(n - 1, fld.q)):
        if digit:
            result = result * bracket_D(fld, i) ** digit
    return result


def frobenius_twist(f, n: int):
    """n-fold Frobenius twist: every theta-coefficient a goes to a^{q^n}.

    Coefficients in F_q are fixed, so theta-exponents dilate by q^n: for a
    theta-polynomial this is the exact q^n-th power, a BiPoly raises each
    theta-coefficient exactly, and a t-polynomial over F_q is fixed.
    """
    if n < 0:
        raise InvalidIndexError("frobenius_twist wants n >= 0")
    if not isinstance(f, _Dense):
        raise DomainError(f"cannot twist {type(f).__name__}")
    return f if f.var == TVAR else f.dilate(f.field.q ** n)


def inverse_twist(f):
    """One-step inverse twist; defined only when all theta-exponents are
    divisible by q (coefficients in F_q have unique q-th roots, namely
    themselves)."""
    if not isinstance(f, _Dense):
        raise DomainError(f"cannot inverse-twist {type(f).__name__}")
    if f.var == TVAR:
        return f
    kept = f.coeffs[..., :: f.field.q]
    if np.count_nonzero(kept) != np.count_nonzero(f.coeffs):
        raise DomainError("inverse twist: theta-exponent not divisible by q")
    return f._like(kept)


def poly_eval_at_theta_power(f: BiPoly, n: int) -> Poly:
    """Exact substitution t <- theta^{q^n}; n = 0 evaluates at t = theta."""
    if n < 0:
        raise InvalidIndexError("poly_eval_at_theta_power wants n >= 0")
    fld = f.field
    if f.is_zero:
        return Poly.zero(fld)
    step = fld.q ** n
    rows, cols = f.coeffs.shape
    out = np.zeros((rows - 1) * step + cols, dtype=np.int64)
    for i in range(rows):
        out[i * step : i * step + cols] = fld.add(out[i * step : i * step + cols], f.coeffs[i])
    return Poly(fld, out)


MONIC_BUDGET = 10 ** 6


def enumerate_monic(fld: Field, d: int):
    """Yield every monic polynomial of degree d (q^d of them); raises
    BudgetError when q^d exceeds MONIC_BUDGET."""
    if fld.q ** d > MONIC_BUDGET:
        raise BudgetError(f"enumerating q^d = {fld.q ** d} monic polynomials "
                          f"exceeds the budget {MONIC_BUDGET}")
    if d == 0:
        yield Poly.one(fld)
        return
    coeffs = np.zeros(d + 1, dtype=np.int64)
    coeffs[d] = 1
    while True:
        yield Poly(fld, coeffs)
        pos = 0
        while pos < d:
            coeffs[pos] += 1
            if coeffs[pos] < fld.q:
                break
            coeffs[pos] = 0
            pos += 1
        else:
            return
