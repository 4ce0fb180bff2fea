"""The relation hunter: planted recovery, margins, reverification, reports."""

import random

import numpy as np
import pytest

from ffzeta import relations, zeta
from ffzeta.errors import DomainError, MarginError, ResolutionError
from ffzeta.indices import compositions, independent_family
from ffzeta.laurent import INF, Laurent
from ffzeta.relations import RelationCertificate, ValueVector
from ffzeta.scalar import Poly, field

rng = random.Random(47)


def rand_value(fld, n, val=0):
    digits = [rng.randrange(fld.q) for _ in range(n - val + 1)]
    digits[0] = rng.randrange(1, fld.q)
    return Laurent(fld, val, digits, n)


def test_value_vector_validation():
    fld = field(3)
    v = rand_value(fld, 40)
    with pytest.raises(DomainError):
        ValueVector(("a",), (v, v))
    with pytest.raises(MarginError):
        ValueVector(("a", "b"), (v, rand_value(fld, 50)))
    with pytest.raises(DomainError):
        ValueVector(("a",), (Laurent.zero(fld),))
    vec = ValueVector.of(["a", "b"], [v, rand_value(fld, 50)])
    assert vec.prec == 40
    # a value that shows no digit cannot be told from zero, so no
    # certificate may rest on it
    with pytest.raises(ResolutionError, match="^b shows no digit through precision 40$"):
        ValueVector.of(["a", "b"], [v, Laurent.zero_to_prec(fld, 40)])
    with pytest.raises(ResolutionError, match="^b shows no digit"):
        ValueVector.of(["a", "b"], [v, rand_value(fld, 50, val=45)])  # blind once truncated
    # an exact zero is refused as such, not truncated into a value that
    # merely shows no digit
    with pytest.raises(DomainError, match="^exact-zero entries are not allowed"):
        ValueVector.of(["a", "b"], [v, Laurent.zero(fld)])


def test_evaluate_refuses_a_value_that_shows_no_digit():
    # gnzeta(1,2,2,1) at q = 5 starts at 1/theta^225 (the CLI tests pin the
    # refusal at prec 100); its leading term names that valuation at any prec
    fld = field(5)
    labels = ["gnzeta(6)", "gnzeta(1,2,2,1)"]
    with pytest.raises(ResolutionError, match=r"^gnzeta\(1,2,2,1\) shows no digit through "
                       r"precision 10; raise prec to at least 225$"):
        ValueVector.evaluate(fld, labels, 10)
    assert relations.leading_valuation(fld, labels[1]) == 225
    vec = ValueVector.evaluate(fld, labels, 225)
    assert vec.prec == 225 and int(vec.values[1].val) == 225
    # the leading term names the first digit of a logc label too
    with pytest.raises(ResolutionError, match=r"^logc\(1/theta\^5\) shows no digit through "
                       r"precision 3; raise prec to at least 5$"):
        ValueVector.evaluate(field(3), ["zeta(1)", "logc(1/theta^5)"], 3)


TIER1_LABELS = {
    2: ["zeta(1)", "zeta(3)", "gnzeta(3)", "zeta(1,1,1,1,1)"],
    3: ["zeta(3)", "zeta(1,2)", "zeta(2,1)", "prod(zeta(1),zeta(2))", "amzv(2,1;-1,1)",
        "zeta(2,1,2)", "gnzeta(2)", "gnzeta(1,3)"]
       + [f"gnzeta({','.join(map(str, s))})" for w in (4, 5, 8) for r in (2, 3)
          for s in independent_family(w, r, 3)],
    5: ["zeta(1,2,2,1)", "gnzeta(6)", "gnzeta(1,2,2,1)", "gnzeta(2,2,2)"],
}


def first_digit(fld, label, val):
    """The exponent of a label's first digit, read from its value at prec
    val: val itself when the first digit is there."""
    return relations.eval_value_expr(fld, label, val).val


@pytest.mark.parametrize("q", sorted(TIER1_LABELS))
def test_leading_valuation_equals_the_probe(q):
    # the probe is one evaluation, at the predicted valuation
    fld = field(q)
    for label in TIER1_LABELS[q] + ["cmpl(2,1;theta;1)", "logc(1)", "pitilde(1)",
                                    "prod(zeta(1),logc(1))"]:
        val = relations.leading_valuation(fld, label)
        assert first_digit(fld, label, val) == val, label


def _point_text(rnd, p, deg):
    """A random point of degree deg (deg num - deg den) with F_p
    coefficients, as label text."""
    b = rnd.randrange(3) + max(0, -deg)

    def poly(n, lead):
        coeffs = [lead] + [rnd.randrange(p) for _ in range(n)]
        return "+".join(f"{c}*theta^{n - k}" for k, c in enumerate(coeffs) if c)

    num = poly(deg + b, rnd.randrange(1, p))
    return num if b == 0 else f"{num}/{poly(b, 1)}"


def closed_form_grid():
    """(q, label) pairs: 40 random cmpl and logc labels per q, of depth 1-3,
    entries s_j <= 4 and points of degree -2 up to the convergence limit
    deg u_j (q-1) < q s_j; and pitilde(m), m <= 5."""
    rnd = random.Random(31)
    cases = []
    for q in (2, 3, 4, 5, 7, 8, 9, 25):
        p = field(q).p
        for _ in range(40):
            s = [rnd.randint(1, 4) for _ in range(rnd.randint(1, 3))]
            points = [_point_text(rnd, p, rnd.randint(-2, (q * n - 1) // (q - 1))) for n in s]
            if s == [1] and rnd.random() < 0.5:
                cases.append((q, f"logc({points[0]})"))
            else:
                cases.append((q, f"cmpl({','.join(map(str, s))};{';'.join(points)})"))
    cases += [(q, f"pitilde({m})") for q in (2, 3, 4, 5, 7, 8, 9, 25, 27) for m in range(1, 6)]
    return cases


def test_closed_form_valuations_on_a_grid():
    # val Li_s(u) = sum_j s_j deg L_{r-j} - deg u_j q^{r-j}, val pitilde(m) = -qm
    grid = closed_form_grid() + [(3, "logc(1/theta^5)"), (3, "pitilde(1)")]
    assert len(grid) == 367
    for q, label in grid:
        fld = field(q)
        val = relations.leading_valuation(fld, label)
        assert first_digit(fld, label, val) == val, (q, label)
    # the two valuations at or below zero
    assert relations.leading_valuation(field(3), "logc(1/theta^5)") == 5
    assert relations.leading_valuation(field(3), "pitilde(1)") == -3


def test_evaluate_refuses_a_first_digit_off_the_leading_term(monkeypatch):
    fld = field(3)
    labels = ["zeta(3)", "zeta(1,2)"]
    real = relations.leading_valuation
    monkeypatch.setattr(relations, "leading_valuation",
                        lambda f, label: real(f, label) + (label == "zeta(1,2)"))
    with pytest.raises(ResolutionError, match=r"^zeta\(1,2\) shows its first digit at 3 "
                       r"through precision 60, but its leading term has valuation 4$"):
        ValueVector.evaluate(fld, labels, 60)
    # a prediction past the first digit is refused too, not mistaken for a
    # value that cannot be told from zero
    monkeypatch.setattr(relations, "leading_valuation",
                        lambda f, label: real(f, label) - (label == "zeta(1,2)"))
    with pytest.raises(ResolutionError, match="leading term has valuation 2$"):
        ValueVector.evaluate(fld, labels, 2)


def test_margin_error():
    fld = field(3)
    vec = ValueVector.of(["a", "b"], [rand_value(fld, 20), rand_value(fld, 20)])
    with pytest.raises(MarginError, match="margin rule"):
        relations.find_relations(vec, 3)  # 8 unknowns need 28 digits, have 21
    # the named prec is the least that meets the rule at the values' valuations

    def vec_at(prec):
        values = [Laurent(fld, val, [1] * (prec - val + 1), prec) for val in (2, 5)]
        return ValueVector.of(["a", "b"], values)

    with pytest.raises(MarginError, match="raise prec to 29$"):
        relations.find_relations(vec_at(20), 3)
    with pytest.raises(MarginError):
        relations.find_relations(vec_at(28), 3)
    relations.find_relations(vec_at(29), 3)


def test_planted_relation_recovery():
    for q in (2, 3, 5):
        fld = field(q)
        n = 70
        v1, v2 = rand_value(fld, n), rand_value(fld, n)
        c1 = Poly(fld, [rng.randrange(q), rng.randrange(q), 1])
        c2 = Poly(fld, [rng.randrange(q), 1])
        v3 = relations.combine([v1, v2], [c1, c2])
        vec = ValueVector.of(["v1", "v2", "v3"], [v1, v2, v3])
        certs = relations.find_relations(vec, 2)
        assert len(certs) == 1
        # certificate is a scalar multiple of (c1, c2, -1)
        got = certs[0].coeffs
        assert not got[2].is_zero and got[2].degree == 0
        lam = fld.neg(int(got[2].coeffs[0]))
        assert got[0] == c1.scale(lam)
        assert got[1] == c2.scale(lam)


@pytest.mark.parametrize("q,d", [(2, 1), (3, 2), (5, 3), (9, 2)])
def test_digits_past_n_minus_d_drop_a_vector_the_rows_keep(q, d):
    # v3 = a v1 + b v2: the degree-0 relation reads only exponents <= N - D
    # in the kernel's rows, so a digit of v3 perturbed in (N - D, N] leaves
    # it in the kernel of the rows, and only the digits past N - D drop it
    fld = field(q)
    n = 90
    v1, v2 = rand_value(fld, n), rand_value(fld, n)
    a, b = rng.randrange(1, q), rng.randrange(1, q)
    v3 = relations.combine([v1, v2], [Poly(fld, [a]), Poly(fld, [b])])
    kept = relations.find_relations(ValueVector.of(["v1", "v2", "v3"], [v1, v2, v3]), d)
    assert [c.residual_val for c in kept] == [n - max(p.degree for p in c.coeffs) for c in kept]
    flat = [c for c in kept if all(p.degree <= 0 for p in c.coeffs)]
    assert len(flat) == 1 and flat[0].residual_val == n
    for x in range(n - d + 1, n + 1):
        digits = np.zeros(n - int(v3.val) + 1, dtype=np.int64)
        digits[: v3.coeffs.size] = v3.coeffs
        digits[x - int(v3.val)] = fld.add(int(digits[x - int(v3.val)]), 1)
        bent = Laurent(fld, int(v3.val), digits, n)
        residual = relations.combine([v1, v2, bent], flat[0].coeffs)
        assert residual.truncate(n - d).is_zero_to_precision  # the rows see nothing
        assert not residual.is_zero_to_precision
        vec = ValueVector.of(["v1", "v2", "v3"], [v1, v2, bent])
        assert relations.find_relations(vec, d) == [], x


ORACLE_HUNTS = [
    (2, "zeta(1),logc(1)", 0, 100),
    (3, "zeta(1),logc(1)", 0, 60),
    (3, "zeta(1),logc(1),prod(zeta(1),pitilde(1))", 0, 60),
    (4, "logc(1),cmpl(1;1)", 0, 400),
    (2, "gnzeta(3),zeta(3)", 2, 57),
    (3, "zeta(1,2),zeta(3)", 3, 200),
    (3, "zeta(3),zeta(1,2),zeta(2,1),prod(zeta(1),zeta(2))", 1, 120),
    (9, "logc(1),cmpl(1;1),pitilde(1)", 2, 1500),
    (3, ",".join("zeta(%s)" % ",".join(map(str, s)) for s in compositions(6)), 9, 800),
]


@pytest.mark.parametrize("q,labels,d,n", ORACLE_HUNTS,
                         ids=["z2", "certs", "prod", "c4", "g2", "t3", "s3", "h9", "w6"])
def test_certificates_recombine_to_zero_through_residual_val(q, labels, d, n):
    # combine, which find_relations does not call, is the oracle
    fld = field(q)
    vec = ValueVector.evaluate(fld, relations.split_top(labels, ","), n)
    certs = relations.find_relations(vec, d)
    assert certs
    for cert in certs:
        residual = relations.combine(vec.values, cert.coeffs)
        assert residual.is_zero_to_precision
        assert residual.prec == cert.residual_val == n - max(c.degree for c in cert.coeffs)


def test_no_false_positives_on_random_values():
    fld = field(3)
    for _ in range(10):
        vec = ValueVector.of(
            ["a", "b", "c"], [rand_value(fld, 80) for _ in range(3)]
        )
        assert relations.find_relations(vec, 2) == []


def test_certificates_reverify_and_random_vectors_fail():
    fld = field(3)
    n = 100
    vals = [zeta.mzv(fld, (1,), n), zeta.carlitz_log(fld, 1, n)]
    vec = ValueVector.of(["zeta(1)", "logc(1)"], vals)
    certs = relations.find_relations(vec, 0)
    assert len(certs) == 1
    cert = certs[0]
    vals2 = [zeta.mzv(fld, (1,), 2 * n), zeta.carlitz_log(fld, 1, 2 * n)]
    vec2 = ValueVector.of(["zeta(1)", "logc(1)"], vals2)
    assert relations.verify_relation(vec2, cert)
    # a wrong coefficient vector on the same values fails
    bad = RelationCertificate(
        labels=cert.labels,
        coeffs=(Poly.one(fld), Poly.one(fld)),
        q=3,
        degree_bound=0,
        prec=n,
        residual_val=n,
    )
    assert not relations.verify_relation(vec2, bad)
    with pytest.raises(MarginError):
        relations.verify_relation(vec, cert)  # not doubled
    zero = RelationCertificate(cert.labels, (Poly.zero(fld), Poly.zero(fld)), 3, 0, n, n)
    with pytest.raises(DomainError):
        relations.verify_relation(vec2, zero)


def test_certificate_json_roundtrip():
    fld = field(3)
    cert = RelationCertificate(
        labels=("a", "b"),
        coeffs=(Poly(fld, [1, 2]), Poly(fld, [2])),
        q=3,
        degree_bound=1,
        prec=60,
        residual_val=59,
    )
    assert RelationCertificate.from_json(cert.to_json(), fld) == cert


def test_combine_refuses_mismatched_lengths():
    fld = field(3)
    values = [rand_value(fld, 20), rand_value(fld, 20)]
    for coeffs in ([Poly.one(fld)], [Poly.one(fld)] * 3):
        with pytest.raises(DomainError, match="values but"):
            relations.combine(values, coeffs)


def test_prod_is_exact_through_prec_with_a_factor_of_negative_valuation():
    # pitilde(1) has valuation -3 at q = 3, so zeta(1) must be read to 63
    fld = field(3)
    v = relations.eval_value_expr(fld, "prod(zeta(1),pitilde(1))", 60)
    assert (v.val, v.prec) == (-3, 60)
    deep = zeta.mzv(fld, (1,), 200) * zeta.carlitz_period_power(fld, 1, 200)
    assert v == deep.truncate(60)
    assert relations.leading_valuation(fld, "prod(logc(0),pitilde(1))") == INF
    assert relations.eval_value_expr(fld, "prod(logc(0),pitilde(1))", 60).is_exact_zero


def test_stuffle_closure_weight_three():
    # zeta(1) zeta(2) lies in the span of weight-3 multizeta values (q = 3)
    fld = field(3)
    n = 120
    z1z2 = (zeta.mzv(fld, (1,), n) * zeta.mzv(fld, (2,), n)).truncate(n)
    labels = ["zeta(3)", "zeta(1,2)", "zeta(2,1)", "prod"]
    values = [
        zeta.mzv(fld, (3,), n),
        zeta.mzv(fld, (1, 2), n),
        zeta.mzv(fld, (2, 1), n),
        z1z2,
    ]
    vec = ValueVector.of(labels, values)
    certs = relations.find_relations(vec, 1)
    expressing = [c for c in certs if not c.coeffs[3].is_zero]
    assert expressing, "no relation expressing the product"
    # reverify at doubled precision
    n2 = 2 * n
    z1z2 = (zeta.mzv(fld, (1,), n2) * zeta.mzv(fld, (2,), n2)).truncate(n2)
    vec2 = ValueVector.of(
        labels,
        [zeta.mzv(fld, (3,), n2), zeta.mzv(fld, (1, 2), n2), zeta.mzv(fld, (2, 1), n2), z1z2],
    )
    assert all(relations.verify_relation(vec2, c) for c in expressing)


def test_thakur_relation_at_q3():
    # (theta - theta^q) zeta(1, q-1) = zeta(q), here at q = 3 and D = 3
    fld = field(3)
    labels = ["zeta(1,2)", "zeta(3)"]
    n = 200

    def vec_at(prec):
        return ValueVector.of(labels, [relations.eval_value_expr(fld, lab, prec)
                                       for lab in labels])

    certs = relations.find_relations(vec_at(n), 3)
    assert len(certs) == 1
    a, b = certs[0].coeffs
    assert b.degree == 0
    assert a == Poly(fld, [0, fld.neg(1), 0, 1]).scale(int(b.coeffs[0]))
    assert relations.verify_relation(vec_at(2 * n), certs[0])


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: near-relations among same-weight "
                   "MZVs pass the margin rule and the 2N reverification")
def test_certificates_verified_at_2n_vanish_at_4n():
    # the 32 MZVs of weight 6 at q = 3, D = 9 (= q^2), N = 800: five of the
    # certificates that verify at 2N have residuals of valuation 1623 < 4N
    fld = field(3)
    labels = ["zeta(%s)" % ",".join(map(str, s)) for s in compositions(6)]
    n = 800

    def vec_at(prec):
        return ValueVector.of(labels, [relations.eval_value_expr(fld, lab, prec)
                                       for lab in labels])

    certs = relations.find_relations(vec_at(n), 9)
    at_2n, at_4n = vec_at(2 * n), vec_at(4 * n)
    verified = [c for c in certs if relations.verify_relation(at_2n, c)]
    assert verified
    false = [c for c in verified
             if not relations.combine(at_4n.values, c.coeffs).is_zero_to_precision]
    assert not false, f"{len(false)} of {len(verified)} verified certificates fail at 4N"


def test_independence_report_trivial_family():
    fld = field(3)
    report = relations.independence_report(fld, [(4,)], 2, 60)
    assert report["verdict"].startswith("consistent")
    assert report["g_independent"]
    assert report["g_images"] == [[0]]


def test_independence_report_conclusive_on_a_value_deeper_than_prec():
    # gnzeta(1,2,2,1) starts 225 digits down, far past 16 N: its leading
    # term gives that valuation, so the report reaches it
    report = relations.independence_report(field(5), [(6,), (1, 2, 2, 1)], 0, 10)
    assert report["verdict"] == "consistent with the independence criterion up to (D=0, N=10)"
    assert report["certificates"] == []


def test_independence_report_evaluates_each_label_once(monkeypatch):
    fld = field(5)
    family = [(6,), (1, 2, 2, 1), (2, 2, 2)]
    calls = []
    real = relations.eval_value_expr

    def spy(f, label, prec):
        calls.append(label)
        return real(f, label, prec)

    monkeypatch.setattr(relations, "eval_value_expr", spy)
    report = relations.independence_report(fld, family, 2, 100)
    assert report["verdict"].startswith("consistent")
    assert sorted(calls) == sorted(["gnzeta(6)", "gnzeta(1,2,2,1)", "gnzeta(2,2,2)"])


def test_independence_report_takes_each_leading_valuation_once(monkeypatch):
    fld = field(5)
    family = [(6,), (1, 2, 2, 1), (2, 2, 2)]
    calls = []
    real = relations.leading_valuation

    def spy(f, label):
        calls.append(label)
        return real(f, label)

    monkeypatch.setattr(relations, "leading_valuation", spy)
    relations.independence_report(fld, family, 2, 100)
    assert sorted(calls) == sorted(["gnzeta(6)", "gnzeta(1,2,2,1)", "gnzeta(2,2,2)"])


def test_independence_report_refuses_a_first_digit_off_the_leading_term(monkeypatch):
    real = relations.leading_valuation
    monkeypatch.setattr(relations, "leading_valuation",
                        lambda f, label: real(f, label) + (label == "gnzeta(1,2,2,1)"))
    with pytest.raises(ResolutionError, match=r"^gnzeta\(1,2,2,1\) shows its first digit at 225 "
                       r"through precision 236, but its leading term has valuation 226$"):
        relations.independence_report(field(5), [(6,), (1, 2, 2, 1)], 0, 10)


def test_independence_report_small_family():
    fld = field(3)
    report = relations.independence_report(fld, independent_family(4, 2, 3), 2, 80)
    assert report["verdict"].startswith("consistent")
    assert not report["certificates"]
    assert set(report) >= {"family", "q", "D", "N", "g_images", "certificates", "verdict"}
