"""Exact arithmetic over F_q, F_q[x] (x in {theta, t}), F_q[t][theta] and F_q(theta).

Field elements are canonical integers 0..q-1.  For q = p^e with e > 1 the
integer's base-p digits are the coefficients of the residue polynomial
modulo a fixed irreducible; multiplication goes through exp/log tables
(q <= 2^16).  The chosen irreducible is exposed so runs are reproducible.

Everything is immutable after construction and all operations are pure
functions, so values can be shared freely across threads.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import backend
from .errors import BudgetError, DomainError, InvalidIndexError

THETA = "theta"
TVAR = "t"

_MAX_Q = 1 << 16


# ---------------------------------------------------------------------------
# small helpers over F_p coefficient lists, used only to build field tables
# ---------------------------------------------------------------------------

def _fp_polymul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return out


def _fp_polymod(a, mod, p):
    a = list(a)
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], p - 2, p)
    while len(a) - 1 >= dm and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) - 1 < dm:
            break
        shift = len(a) - 1 - dm
        f = (a[-1] * inv_lead) % p
        for i, c in enumerate(mod):
            a[shift + i] = (a[shift + i] - f * c) % p
        while a and a[-1] == 0:
            a.pop()
    return a + [0] * (dm - len(a))


def _fp_powmod_x(exp, mod, p):
    # x^exp mod (mod), coefficients mod p
    result = [1]
    base = [0, 1]
    while exp > 0:
        if exp & 1:
            result = _fp_polymod(_fp_polymul(result, base, p), mod, p)
        base = _fp_polymod(_fp_polymul(base, base, p), mod, p)
        exp >>= 1
    return result


def _fp_rem(a, b, p):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    while b and b[-1] == 0:
        b = b[:-1]
    db = len(b) - 1
    inv_lead = pow(b[-1], p - 2, p)
    while a and len(a) - 1 >= db:
        f = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - db
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - f * c) % p
        while a and a[-1] == 0:
            a.pop()
    return a


def _fp_gcd(a, b, p):
    a, b = list(a), list(b)
    while any(b):
        a, b = b, _fp_rem(a, b, p)
    while a and a[-1] == 0:
        a.pop()
    return a


def _is_irreducible(f, p):
    # f monic of degree e over F_p; Rabin irreducibility test
    e = len(f) - 1
    if e == 1:
        return True
    probe = _fp_powmod_x(p ** e, f, p)
    probe[1] = (probe[1] - 1) % p
    if any(probe):
        return False
    for ell in _prime_factors(e):
        probe = _fp_powmod_x(p ** (e // ell), f, p)
        probe[1] = (probe[1] - 1) % p
        if len(_fp_gcd(probe, f, p)) - 1 > 0:
            return False
    return True


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


def _find_irreducible(p, e):
    # first monic irreducible of degree e in lexicographic order of the
    # low-coefficient integer encoding; recorded for reproducibility
    for code in range(p ** e):
        coeffs = []
        c = code
        for _ in range(e):
            coeffs.append(c % p)
            c //= p
        f = coeffs + [1]
        if f[0] == 0:
            continue
        if _is_irreducible(f, p):
            return f
    raise RuntimeError("no irreducible found")  # unreachable for prime p


# ---------------------------------------------------------------------------
# the field
# ---------------------------------------------------------------------------

class Field:
    """F_q with q = p^e <= 2^16; elements are canonical ints 0..q-1.

    Arithmetic methods accept ints or int64 numpy arrays (broadcasting like
    ufuncs) and return the same kind.
    """

    __slots__ = ("p", "e", "q", "irreducible", "_exp", "_log")

    def __init__(self, q: int):
        p, e = _factor_prime_power(q)
        self.p = p
        self.e = e
        self.q = q
        if e == 1:
            self.irreducible = None
        else:
            self.irreducible = tuple(_find_irreducible(p, e))
        self._build_tables()

    def _build_tables(self):
        q = self.q
        exp = np.zeros(2 * (q - 1), dtype=np.int64)
        log = np.zeros(q, dtype=np.int64)
        g = self._find_generator()
        acc = 1
        for i in range(q - 1):
            exp[i] = acc
            exp[i + q - 1] = acc
            log[acc] = i
            acc = self._mul_slow(acc, g)
        if acc != 1:
            raise RuntimeError("generator order mismatch")
        self._exp = exp
        self._log = log
        for a in range(1, q):
            if self.mul(a, self.inv(a)) != 1:
                raise RuntimeError("inconsistent multiplication tables")

    def _mul_slow(self, a, b):
        p, e = self.p, self.e
        if e == 1:
            return (a * b) % p
        da = [(a // p ** i) % p for i in range(e)]
        db = [(b // p ** i) % p for i in range(e)]
        prod = _fp_polymod(_fp_polymul(da, db, p), list(self.irreducible), p)
        return sum(c * p ** i for i, c in enumerate(prod))

    def _find_generator(self):
        q = self.q
        factors = _prime_factors(q - 1) if q > 2 else set()
        for g in range(2, q) if q > 2 else [1]:
            ok = True
            for ell in factors:
                if self._pow_slow(g, (q - 1) // ell) == 1:
                    ok = False
                    break
            if ok:
                return g
        return 1

    def _pow_slow(self, a, k):
        r = 1
        while k:
            if k & 1:
                r = self._mul_slow(r, a)
            a = self._mul_slow(a, a)
            k >>= 1
        return r

    # -- vectorised ops ----------------------------------------------------

    def add(self, a, b):
        if self.e == 1:
            return (a + b) % self.p
        return self._digitwise(a, b, lambda x, y: (x + y) % self.p)

    def sub(self, a, b):
        if self.e == 1:
            return (a - b) % self.p
        return self._digitwise(a, b, lambda x, y: (x - y) % self.p)

    def neg(self, a):
        if self.e == 1:
            return (-a) % self.p
        return self._digitwise(a, 0, lambda x, y: (-x) % self.p)

    def _digitwise(self, a, b, op):
        a_arr = np.asarray(a, dtype=np.int64)
        b_arr = np.asarray(b, dtype=np.int64)
        out = np.zeros(np.broadcast(a_arr, b_arr).shape, dtype=np.int64)
        p = self.p
        for i in range(self.e):
            out += op((a_arr // p ** i) % p, (b_arr // p ** i) % p) * p ** i
        return out if out.shape else int(out)

    def mul(self, a, b):
        a_arr = np.asarray(a, dtype=np.int64)
        b_arr = np.asarray(b, dtype=np.int64)
        if self.e == 1:
            out = (a_arr * b_arr) % self.p
            return out if out.shape else int(out)
        nz = (a_arr != 0) & (b_arr != 0)
        idx = self._log[a_arr * nz] + self._log[b_arr * nz]
        out = np.where(nz, self._exp[idx], 0)
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

    def sum(self, a):
        a_arr = np.asarray(a, dtype=np.int64)
        if self.e == 1:
            return int(a_arr.sum() % self.p)
        out = 0
        p = self.p
        for i in range(self.e):
            out += int(((a_arr // p ** i) % p).sum() % p) * p ** i
        return out

    def dot(self, a, b):
        return self.sum(self.mul(a, b))

    def from_int(self, n: int) -> int:
        """Canonical image of an integer (lands in the prime subfield)."""
        return n % self.p

    def units(self):
        return range(1, self.q)

    def __repr__(self):
        return f"F({self.q})"


def _factor_prime_power(q):
    if q < 2 or q > _MAX_Q:
        raise DomainError(f"q must be a prime power in [2, {_MAX_Q}], got {q}")
    p = q
    for d in range(2, int(q ** 0.5) + 1):
        if q % d == 0:
            p = d
            break
    e = 0
    m = q
    while m % p == 0:
        m //= p
        e += 1
    if m != 1:
        raise DomainError(f"q = {q} is not a prime power")
    return p, e


@lru_cache(maxsize=None)
def field(q: int) -> Field:
    """Shared immutable Field instance for F_q."""
    return Field(q)


# ---------------------------------------------------------------------------
# dense univariate polynomials
# ---------------------------------------------------------------------------

class Poly:
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
        while n > 0 and arr[n - 1] == 0:
            n -= 1
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
    def is_zero(self):
        return self.coeffs.size == 0

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

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return (
            self.field is other.field
            and self.var == other.var
            and np.array_equal(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash((self.field.q, self.var, self.coeffs.tobytes()))

    def _check(self, other):
        if self.field is not other.field or self.var != other.var:
            raise DomainError("mixed fields or variables")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        n = max(self.coeffs.size, other.coeffs.size)
        a = np.zeros(n, dtype=np.int64)
        b = np.zeros(n, dtype=np.int64)
        a[: self.coeffs.size] = self.coeffs
        b[: other.coeffs.size] = other.coeffs
        return Poly(self.field, self.field.add(a, b), self.var)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        if self.is_zero:
            return self
        return Poly(self.field, self.field.neg(self.coeffs), self.var)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        f = self.field
        if self.is_zero or other.is_zero:
            return Poly.zero(f, self.var)
        return Poly(f, backend.convolve_mod(self.coeffs, other.coeffs, f), self.var)

    def scale(self, c: int):
        c = c % self.field.q if 0 <= c < self.field.q else self.field.from_int(c)
        if c == 0 or self.is_zero:
            return Poly.zero(self.field, self.var)
        return Poly(self.field, self.field.mul(c, self.coeffs), self.var)

    def __pow__(self, k: int):
        if k < 0:
            raise DomainError("negative polynomial power")
        result = Poly.one(self.field, self.var)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

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

    # -- specialisations ----------------------------------------------------

    def dilate(self, k: int):
        """Substitute x -> x^k (k >= 1)."""
        if self.is_zero or k == 1:
            return self
        out = np.zeros((self.coeffs.size - 1) * k + 1, dtype=np.int64)
        out[:: k] = self.coeffs
        return Poly(self.field, out, self.var)

    def with_var(self, var: str):
        return Poly(self.field, self.coeffs, var) if var != self.var else self

    def __repr__(self):
        return f"Poly({self.var}; {format_poly(self)})"


def format_poly(f: Poly, var=None) -> str:
    var = var or f.var
    sym = "θ" if var == THETA else var
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

class BiPoly:
    """Polynomial in t whose coefficients are polynomials in theta.

    coeffs[i, j] is the coefficient of t^i * theta^j; the grid is trimmed so
    the last t-row and the widest theta-column are nonzero.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs):
        arr = np.asarray(coeffs, dtype=np.int64)
        if arr.ndim != 2:
            raise DomainError("BiPoly wants a 2-D coefficient grid")
        rows = arr.shape[0]
        while rows > 0 and not arr[rows - 1].any():
            rows -= 1
        cols = arr.shape[1] if rows else 0
        while cols > 0 and not arr[:rows, cols - 1].any():
            cols -= 1
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

    @property
    def is_zero(self):
        return self.coeffs.size == 0

    @property
    def t_degree(self):
        return self.coeffs.shape[0] - 1 if self.coeffs.size else -math.inf

    @property
    def theta_degree(self):
        if self.coeffs.size == 0:
            return -math.inf
        nz = np.nonzero(self.coeffs.any(axis=0))[0]
        return int(nz[-1])

    def __eq__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.field is other.field and self.coeffs.shape == other.coeffs.shape and np.array_equal(
            self.coeffs, other.coeffs
        )

    def __hash__(self):
        return hash((self.field.q, self.coeffs.shape, self.coeffs.tobytes()))

    def _check(self, other):
        if self.field is not other.field:
            raise DomainError("mixed fields")

    def __add__(self, other):
        self._check(other)
        rows = max(self.coeffs.shape[0], other.coeffs.shape[0])
        cols = max(
            self.coeffs.shape[1] if self.coeffs.size else 0,
            other.coeffs.shape[1] if other.coeffs.size else 0,
        )
        a = np.zeros((rows, cols), dtype=np.int64)
        b = np.zeros((rows, cols), dtype=np.int64)
        if self.coeffs.size:
            a[: self.coeffs.shape[0], : self.coeffs.shape[1]] = self.coeffs
        if other.coeffs.size:
            b[: other.coeffs.shape[0], : other.coeffs.shape[1]] = other.coeffs
        return BiPoly(self.field, self.field.add(a, b))

    def __neg__(self):
        if self.is_zero:
            return self
        return BiPoly(self.field, self.field.neg(self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            other = BiPoly.from_poly(other)
        self._check(other)
        f = self.field
        if self.is_zero or other.is_zero:
            return BiPoly.zero(f)
        return BiPoly(f, backend.bipoly_mul_mod(self.coeffs, other.coeffs, f))

    def __pow__(self, k: int):
        if k < 0:
            raise DomainError("negative BiPoly power")
        result = BiPoly.one(self.field)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def scale(self, c: int):
        if not 0 <= c < self.field.q:
            c = self.field.from_int(c)
        if c == 0 or self.is_zero:
            return BiPoly.zero(self.field)
        return BiPoly(self.field, self.field.mul(c, self.coeffs))

    # -- t-polynomial view ---------------------------------------------------

    def t_coeff(self, i: int) -> Poly:
        if self.is_zero or i > self.coeffs.shape[0] - 1:
            return Poly.zero(self.field, THETA)
        return Poly(self.field, self.coeffs[i], THETA)

    def t_coeffs(self):
        return [self.t_coeff(i) for i in range(self.coeffs.shape[0])] if self.coeffs.size else []

    def exact_div_t(self, den: Poly) -> "BiPoly":
        """Exact division by a polynomial in t alone (raises if inexact)."""
        if den.var != TVAR:
            raise DomainError("divisor must be a polynomial in t")
        if den.is_zero:
            raise ZeroDivisionError("division by zero")
        f = self.field
        rows = [self.t_coeff(i) for i in range(int(self.t_degree) + 1)] if not self.is_zero else []
        dd = int(den.degree)
        inv_lead = f.inv(den.leading())
        quo = [Poly.zero(f, THETA)] * max(0, len(rows) - dd)
        rem = list(rows)
        for k in range(len(rem) - 1, dd - 1, -1):
            c = rem[k]
            if c.is_zero:
                continue
            c = c.scale(inv_lead)
            quo[k - dd] = c
            for i, dcoef in enumerate(den.coeffs):
                if dcoef:
                    rem[k - dd + i] = rem[k - dd + i] - c.scale(int(dcoef))
        if any(not r.is_zero for r in rem[:dd]):
            raise DomainError("division is not exact")
        if not quo:
            return BiPoly.zero(f)
        cols = max((r.coeffs.size for r in quo), default=0)
        out = np.zeros((len(quo), max(cols, 1)), dtype=np.int64)
        for i, r in enumerate(quo):
            out[i, : r.coeffs.size] = r.coeffs
        return BiPoly(f, out)

    def __repr__(self):
        if self.is_zero:
            return "BiPoly(0)"
        rows = [
            f"t^{i}*({format_poly(self.t_coeff(i))})"
            for i in range(self.coeffs.shape[0])
            if not self.t_coeff(i).is_zero
        ]
        return "BiPoly(" + " + ".join(rows) + ")"


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

_BRACKET_CACHE: dict = {}


def bracket_L(fld: Field, d: int) -> Poly:
    """L_d = (theta - theta^q) ... (theta - theta^{q^d}); L_0 = 1."""
    if d < 0:
        raise InvalidIndexError("bracket_L wants d >= 0")
    key = (fld.q, "L", d)
    hit = _BRACKET_CACHE.get(key)
    if hit is not None:
        return hit
    if d == 0:
        result = Poly.one(fld)
    else:
        prev = bracket_L(fld, d - 1)
        factor = Poly.gen(fld) - Poly.monomial(fld, 1, fld.q ** d)
        result = prev * factor
    _BRACKET_CACHE[key] = result
    return result


def bracket_D(fld: Field, i: int) -> Poly:
    """D_i = prod_{j=0}^{i-1} (theta^{q^i} - theta^{q^j}); D_0 = 1."""
    if i < 0:
        raise InvalidIndexError("bracket_D wants i >= 0")
    key = (fld.q, "D", i)
    hit = _BRACKET_CACHE.get(key)
    if hit is not None:
        return hit
    result = Poly.one(fld)
    for j in range(i):
        result = result * (
            Poly.monomial(fld, 1, fld.q ** i) - Poly.monomial(fld, 1, fld.q ** j)
        )
    _BRACKET_CACHE[key] = result
    return result


def base_q_digits(n: int, q: int):
    digits = []
    while n:
        digits.append(n % q)
        n //= q
    return digits


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

    For a theta-polynomial this is the exact q^n-th power (coefficients in
    F_q are fixed, so exponents dilate); a t-polynomial over F_q is fixed;
    for a BiPoly each theta-coefficient polynomial is raised exactly.
    """
    if n < 0:
        raise InvalidIndexError("frobenius_twist wants n >= 0")
    if n == 0 or (isinstance(f, Poly) and f.is_zero) or (isinstance(f, BiPoly) and f.is_zero):
        return f
    if isinstance(f, Poly):
        if f.var == TVAR:
            return f
        return f.dilate(f.field.q ** n)
    if isinstance(f, BiPoly):
        k = f.field.q ** n
        rows, cols = f.coeffs.shape
        out = np.zeros((rows, (cols - 1) * k + 1), dtype=np.int64)
        out[:, ::k] = f.coeffs
        return BiPoly(f.field, out)
    raise DomainError(f"cannot twist {type(f).__name__}")


def inverse_twist(f):
    """One-step inverse twist; defined only when all theta-exponents are
    divisible by q (coefficients in F_q have unique q-th roots, namely
    themselves)."""
    if isinstance(f, Poly):
        if f.var == TVAR or f.is_zero:
            return f
        q = f.field.q
        if any(int(c) and k % q for k, c in enumerate(f.coeffs)):
            raise DomainError("inverse twist: theta-exponent not divisible by q")
        return Poly(f.field, f.coeffs[::q], f.var)
    if isinstance(f, BiPoly):
        if f.is_zero:
            return f
        q = f.field.q
        cols = f.coeffs.shape[1]
        bad = [j for j in range(cols) if j % q and f.coeffs[:, j].any()]
        if bad:
            raise DomainError("inverse twist: theta-exponent not divisible by q")
        return BiPoly(f.field, f.coeffs[:, ::q])
    raise DomainError(f"cannot inverse-twist {type(f).__name__}")


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


def enumerate_monic(fld: Field, d: int, budget: int = 10 ** 6):
    """Yield every monic polynomial of degree d (q^d of them)."""
    if fld.q ** d > budget:
        raise BudgetError(
            f"enumerating q^d = {fld.q ** d} monic polynomials exceeds the budget {budget}"
        )
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
