"""The acceptance suite: one callable per criterion, shared by
``ffzeta verify suite`` and tests/test_acceptance.py.

Each criterion returns a human-readable detail string and raises
AssertionError on failure.  Time limits are part of the contract and are
checked by the callers; ``run_suite`` prints one pass/fail line per
criterion.
"""

from __future__ import annotations

import random
import time

from . import anderson, indices, relations, zeta
from .indices import Index, g_map, g_inverse
from .laurent import Laurent
from .scalar import (
    BiPoly,
    Poly,
    RatFunc,
    TVAR,
    bracket_L,
    carlitz_gamma,
    field,
    frobenius_twist,
    poly_eval_at_theta_power,
)


def _at_inputs(fld, s):
    return [anderson.at_polynomial(fld, sj - 1) for sj in s]


def criterion_1_anderson_thakur():
    """AT polynomial closed forms, exact, q in {2, 3}."""
    for q in (2, 3):
        fld = field(q)
        assert anderson.at_polynomial(fld, 0) == BiPoly.one(fld), f"H_0 != 1 (q={q})"
        n = q * q - q - 1
        expect = BiPoly.from_poly(carlitz_gamma(fld, q * q - q).with_var(TVAR))
        assert anderson.at_polynomial(fld, n) == expect, f"H_{{q^2-q-1}} mismatch (q={q})"
        n = q ** 3 - 1
        expect = BiPoly.from_poly(carlitz_gamma(fld, q ** 3).with_var(TVAR))
        assert anderson.at_polynomial(fld, n) == expect, f"H_{{q^3-1}} mismatch (q={q})"
        n = q * q - q
        gamma_t = carlitz_gamma(fld, n + 1).with_var(TVAR)
        num = BiPoly.from_poly(gamma_t) * (BiPoly.t_minus_theta_power(fld, q, 1) ** (q - 1))
        expect = num.exact_div_t(bracket_L(fld, 1).with_var(TVAR) ** (q - 1))
        assert anderson.at_polynomial(fld, n) == expect, f"H_{{q^2-q}} mismatch (q={q})"
    return "H_0, H_{q^2-q-1}, H_{q^3-1}, H_{q^2-q} exact for q in {2,3}"


def criterion_2_power_sum_identities():
    """S_d(1) L_d = 1 and the pi-cancelled interpolation identity, exact."""
    for q in (2, 3, 5):
        fld = field(q)
        for d in range(5):
            prod = zeta.power_sum_exact(fld, d, 1) * RatFunc.from_poly(bracket_L(fld, d))
            assert prod == RatFunc.one(fld), f"S_{d}(1)L_{d} != 1 (q={q})"
    for q in (2, 3):
        fld = field(q)
        for n in range(1, q * q + q + 1):
            h = anderson.at_polynomial(fld, n - 1)
            gamma = RatFunc.from_poly(carlitz_gamma(fld, n))
            for d in range(4):
                lhs = gamma * zeta.power_sum_exact(fld, d, n)
                hd = poly_eval_at_theta_power(frobenius_twist(h, d), 0)
                rhs = RatFunc(hd, bracket_L(fld, d) ** n)
                assert lhs == rhs, f"interpolation identity fails (q={q}, n={n}, d={d})"
    return "S_d(1)L_d = 1 (q in {2,3,5}, d <= 4); Gamma_n S_d(n) = H_{n-1}^{(d)}(theta)/L_d^n (q in {2,3}, n <= q^2+q, d <= 3)"


def criterion_3_carlitz_coincidence():
    """zeta_A(1) and log_C(1) agree beyond valuation 60 at N = 60."""
    for q in (2, 3):
        fld = field(q)
        diff = zeta.mzv(fld, (1,), 60) - zeta.carlitz_log(fld, 1, 60)
        assert diff.is_zero_to_precision and diff.prec >= 60, f"q={q}: {diff!r}"
    return "val(zeta_A(1) - log_C(1)) > 60 for q in {2,3}"


def criterion_4_specializations():
    """Deformation values vs Gamma-scaled mzv / cmpl / amzv at q = 3."""
    fld = field(3)
    n = 60
    for s in [(1,), (2,), (1, 2), (2, 1)]:
        dv = anderson.deformation_value(fld, s, _at_inputs(fld, s), n)
        gamma = Poly.one(fld)
        for sj in s:
            gamma = gamma * carlitz_gamma(fld, sj)
        gz = Laurent.from_poly(gamma) * zeta.mzv(fld, s, n)
        assert dv.agrees_with(gz), f"AT specialization mismatch at {s}"
        assert min(dv.prec, gz.prec) >= n - int(gamma.degree), s
    theta = RatFunc.from_poly(Poly.gen(fld))
    one = RatFunc.one(fld)
    for s, us in [((2,), [theta]), ((2, 1), [theta, one])]:
        dv = anderson.deformation_value(fld, s, us, n)
        cv = zeta.cmpl(fld, s, us, n)
        assert dv.agrees_with(cv), f"constant specialization mismatch at {s}"
    for s, eps in [((1,), (-1,)), ((2, 1), (-1, 1))]:
        dv = anderson.deformation_value(fld, s, _at_inputs(fld, s), n, eps=eps)
        av = zeta.amzv(fld, s, eps, n)
        assert dv.agrees_with(av), f"sign specialization mismatch at {s}, {eps}"
    return "Prop.-style specializations match mzv/cmpl/amzv digit-for-digit (q=3, N=60)"


def criterion_5_difference_systems():
    """Omega's difference equation, the block system for {(4),(3,1)}, and
    the Frobenius specialization identity."""
    for q in (2, 3):
        fld = field(q)
        assert anderson.omega_unit_equation_check(fld, 8, 40), f"omega check (q={q})"
        fam = [(4,), (3, 1)]
        system = anderson.build_block_system(
            fld, fam, [_at_inputs(fld, s) for s in fam], [1, 1], 8, 40
        )
        assert anderson.verify_difference_system(system), f"psi = Phi^(1) psi^(1) fails (q={q})"
        for s in [(1,), (2,)]:
            ok = anderson.specialization_frobenius_check(fld, s, _at_inputs(fld, s), 30)
            assert ok, f"specialization check fails (q={q}, s={s})"
    return "omega equation, {(4),(3,1)} block system, Frobenius specialization (q in {2,3})"


def criterion_6_vanishing_orders():
    """Vanishing-order profiles equal the g-images and are disjoint."""
    fld = field(3)
    p = anderson.vanishing_order_profile(fld, (3, 1), _at_inputs(fld, (3, 1)), 8, 60)
    assert p == g_map((3, 1)) == frozenset({1}), p
    fld = field(5)
    p1 = anderson.vanishing_order_profile(fld, (1, 2, 2, 1), _at_inputs(fld, (1, 2, 2, 1)), 16, 400)
    assert p1 == g_map((1, 2, 2, 1)) == frozenset({1, 3, 5}), p1
    p2 = anderson.vanishing_order_profile(fld, (2, 2, 2), _at_inputs(fld, (2, 2, 2)), 16, 400)
    assert p2 == g_map((2, 2, 2)) == frozenset({2, 4}), p2
    assert not (p1 & p2), "profiles not disjoint"
    assert 6 not in p1 and 6 not in p2, "profiles meet the Omega^w order"
    return "profiles = g-images for (3,1) q=3 and (1,2,2,1),(2,2,2) q=5; pairwise disjoint"


def criterion_7_combinatorics():
    """g-map round trips, Theorem-style depth-2 bounds, the q=5 w=6 partition."""
    for w in range(1, 11):
        for s in indices.compositions(w):
            assert g_inverse(g_map(s), w) == s, s
    for q in (2, 3, 4, 5):
        for w in range(2, 31):
            b1r, _ = indices.dim_lower_bound(w, 2, q)
            assert b1r == w - (w - 1) // (q - 1), (q, w)
    target = (frozenset({1, 3, 5}), frozenset({2, 4}))
    found = None
    for part in indices.q_admissible_partitions(6, 5):
        if set(part) == set(target):
            found = part
            break
    assert found is not None, "partition {{1,3,5},{2,4}} not enumerated"
    fam = sorted(g_inverse(t, 6) for t in found)
    assert fam == [Index((1, 2, 2, 1)), Index((2, 2, 2))], fam
    return "g-inverse round trip (w <= 10), depth-2 bounds (w <= 30), q=5 w=6 partition"


def criterion_8_relation_hunter():
    """Planted recovery, the Carlitz coincidence certificate, the
    Bernoulli-Carlitz certificate, and clean independence reports."""
    details = []
    rng = random.Random(20260810)
    n = 80
    for trial in range(20):
        q = (2, 3, 5)[trial % 3]
        fld = field(q)
        v1 = Laurent(fld, 0, [1] + [rng.randrange(q) for _ in range(n)], n)
        v2 = Laurent(fld, 0, [0, 1] + [rng.randrange(q) for _ in range(n - 1)], n)
        c1 = Poly(fld, [rng.randrange(q) for _ in range(2)] + [1])
        c2 = Poly(fld, [rng.randrange(q) for _ in range(2)] + [rng.randrange(1, q)])
        v3 = relations.combine([v1, v2], [c1, c2])
        vec = relations.ValueVector.of(["v1", "v2", "v3"], [v1, v2, v3])
        certs = relations.find_relations(vec, 2)
        assert len(certs) == 1, f"planted kernel dimension {len(certs)} != 1 (trial {trial})"
        got = certs[0].coeffs
        planted = (c1, c2, Poly(fld, [fld.neg(1)]))
        assert _proportional(fld, got, planted), f"planted kernel mismatch (trial {trial})"
    details.append("planted recovery 20/20")

    for q in (2, 3):
        fld = field(q)
        vec = relations.ValueVector.evaluate(fld, ["zeta(1)", "logc(1)"], 100)
        certs = relations.find_relations(vec, 0)
        assert len(certs) == 1, f"Carlitz coincidence: {len(certs)} certificates (q={q})"
        c = certs[0].coeffs
        assert _proportional(fld, c, (Poly.one(fld), Poly(fld, [fld.neg(1)]))), c
    details.append("(1,-1) certificate for {zeta(1), logC(1)}")

    fld = field(3)
    labels = ["zeta(2)", "pitilde(1)"]
    certs = relations.find_relations(relations.ValueVector.evaluate(fld, labels, 150), 3)
    assert certs, "no Bernoulli-Carlitz certificate found"
    vec2 = relations.ValueVector.evaluate(fld, labels, 300)
    surviving = [c for c in certs if relations.verify_relation(vec2, c)]
    assert surviving, "Bernoulli-Carlitz certificate failed reverification"
    details.append(f"zeta(2)/pi~^2 certificate reverified ({len(surviving)} cert(s))")

    vec = relations.ValueVector.evaluate(fld, ["zeta(3)", "zeta(2,1)"], 150)
    assert not relations.find_relations(vec, 4), "spurious relation for {zeta(3), zeta(2,1)}"
    report = relations.independence_report(fld, indices.independent_family(5, 2, 3), 4, 150)
    assert report["verdict"].startswith("consistent"), report["verdict"]
    assert not report["certificates"]
    fld5 = field(5)
    report = relations.independence_report(
        fld5, [(6,), (1, 2, 2, 1), (2, 2, 2)], 4, 150
    )
    assert report["verdict"].startswith("consistent"), report["verdict"]
    assert not report["certificates"]
    details.append("independence reports clean at D=4, N=150")
    return "; ".join(details)


def _proportional(fld, a, b):
    """Coefficient tuples equal up to one nonzero field scalar."""
    k = next((i for i, pb in enumerate(b) if not pb.is_zero), None)
    if k is None or a[k].is_zero:
        return False
    ratio = fld.mul(a[k].leading(), fld.inv(b[k].leading()))
    return all(pa == pb.scale(ratio) for pa, pb in zip(a, b))


def criterion_9_torsion():
    """The Carlitz-module torsion checks."""
    fld = field(2)
    theta = RatFunc.from_poly(Poly.gen(fld))
    image = anderson.carlitz_tensor_t_action(fld, 1, [theta])
    assert image[0].is_zero, "[t] theta != 0 at q=2"
    ann = anderson.torsion_search(fld, 1, [theta], 3)
    assert ann == Poly(fld, [0, 1], TVAR), ann
    fld = field(3)
    assert anderson.torsion_search(fld, 1, [1], 4) is None, "1 reported torsion at q=3"
    return "[t] kills theta (q=2, n=1); no annihilator for 1 (q=3, Dmax=4)"


CRITERIA = [
    ("1-anderson-thakur-examples", criterion_1_anderson_thakur, 5.0),
    ("2-power-sum-identities", criterion_2_power_sum_identities, 30.0),
    ("3-carlitz-coincidence", criterion_3_carlitz_coincidence, 5.0),
    ("4-prop-specializations", criterion_4_specializations, 60.0),
    ("5-difference-systems", criterion_5_difference_systems, 60.0),
    ("6-vanishing-orders", criterion_6_vanishing_orders, 60.0),
    ("7-combinatorics", criterion_7_combinatorics, 5.0),
    ("8-relation-hunter", criterion_8_relation_hunter, 600.0),
    ("9-torsion", criterion_9_torsion, 5.0),
]

QUICK_SKIP = {"8-relation-hunter"}


def run_suite(quick: bool = False, out=None) -> int:
    """Run every criterion, print one pass/fail line each; 0 iff all green."""
    import sys

    out = out or sys.stdout
    failures = 0
    for name, fn, limit in CRITERIA:
        if quick and name in QUICK_SKIP:
            print(f"SKIP {name} (quick mode)", file=out)
            continue
        start = time.monotonic()
        try:
            detail = fn()
            elapsed = time.monotonic() - start
            if elapsed > limit:
                failures += 1
                print(f"FAIL {name} ({elapsed:.1f}s > limit {limit:.0f}s)", file=out)
            else:
                print(f"PASS {name} ({elapsed:.1f}s): {detail}", file=out)
        except Exception as exc:  # noqa: BLE001 - report and keep going
            elapsed = time.monotonic() - start
            failures += 1
            print(f"FAIL {name} ({elapsed:.1f}s): {exc}", file=out)
    return 1 if failures else 0
