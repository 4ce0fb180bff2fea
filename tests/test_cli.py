"""CLI surface: parsing, JSON output, determinism, cache transparency,
exit codes."""

import json

import pytest

from ffzeta import cache, cli, relations
from ffzeta.errors import DomainError
from ffzeta.scalar import Poly, RatFunc, field


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def run_json(capsys, *argv):
    rc, out = run_cli(capsys, *argv, "--json")
    return rc, json.loads(out)


def strip_meta(payload):
    payload = dict(payload)
    meta = dict(payload.get("meta", {}))
    meta.pop("generated_at", None)
    payload["meta"] = meta
    return payload


# -- parsers -------------------------------------------------------------------

def test_parse_poly():
    fld = field(3)
    assert relations.parse_poly(fld, "theta^2+2*theta+1") == Poly(fld, [1, 2, 1])
    assert relations.parse_poly(fld, "-theta") == Poly(fld, [0, 2])
    assert relations.parse_poly(fld, "7") == Poly(fld, [1])
    with pytest.raises(Exception):
        relations.parse_poly(fld, "theta^^2")


def test_parse_ratfunc():
    fld = field(3)
    r = relations.parse_ratfunc(fld, "theta/theta^2+1")
    assert r == RatFunc(Poly(fld, [0, 1]), Poly(fld, [1, 0, 1]))
    assert relations.parse_ratfunc(fld, "1") == RatFunc.one(fld)


def test_zero_denominator_is_a_domain_error(capsys):
    with pytest.raises(DomainError):
        relations.parse_ratfunc(field(2), "1/0")
    rc = cli.main(["cmpl", "--q", "2", "--index", "2", "--points", "1/0", "--prec", "10"])
    assert rc == 2
    rc = cli.main([
        "relations", "hunt", "--q", "3", "--labels", "zeta(1),logc(1/0)",
        "--deg-bound", "0", "--prec", "40",
    ])
    assert rc == 2


# -- subcommands ------------------------------------------------------------------

def test_zeta_digits_example(capsys):
    rc, payload = run_json(capsys, "zeta", "--q", "2", "--index", "1", "--prec", "5")
    assert rc == 0
    assert payload["value"] == {"q": 2, "val": 0, "prec": 5, "coeffs": [1, 0, 1, 1, 1, 1]}
    assert payload["meta"]["field"] == {"q": 2, "p": 2, "e": 1}


def test_gmap_example(capsys):
    rc, payload = run_json(capsys, "indices", "gmap", "--w", "6", "--index", "1,2,2,1")
    assert rc == 0
    assert payload["g_image"] == [1, 3, 5]


def test_bound_example(capsys):
    rc, payload = run_json(capsys, "indices", "bound", "--q", "3", "--w", "10", "--r", "3")
    assert rc == 0
    assert payload["bound_1r"] == 3 and payload["bound_r"] == 2


def test_family_and_partitions(capsys):
    rc, payload = run_json(capsys, "indices", "family", "--q", "3", "--w", "5", "--r", "2")
    assert rc == 0
    assert payload["family"] == [[5], [2, 3], [4, 1]]
    rc, payload = run_json(capsys, "indices", "partitions", "--w", "6", "--q", "5")
    assert rc == 0
    assert [[1, 3, 5], [2, 4]] in payload["partitions"]


def test_atpoly(capsys):
    rc, payload = run_json(capsys, "atpoly", "--q", "3", "--n", "3")
    assert rc == 0
    assert payload["coeffs_t_by_theta"] == [[0, 0, 0, 2], [2, 0, 0, 0], [0, 0, 0, 0], [2, 0, 0, 0]]


def test_amzv_and_cmpl_run(capsys):
    rc, payload = run_json(
        capsys, "amzv", "--q", "3", "--index", "1", "--signs", "-1", "--prec", "20"
    )
    assert rc == 0 and payload["value"]["prec"] == 20
    rc, payload = run_json(
        capsys, "cmpl", "--q", "2", "--index", "2", "--points", "theta", "--prec", "20"
    )
    assert rc == 0 and payload["value"]["q"] == 2


def test_relations_hunt_finds_carlitz_coincidence(capsys, tmp_path):
    out_file = tmp_path / "certs.json"
    rc, payload = run_json(
        capsys,
        "relations", "hunt",
        "--q", "2",
        "--labels", "zeta(1),logc(1)",
        "--deg-bound", "0",
        "--prec", "100",
        "--out", str(out_file),
    )
    assert rc == 0
    assert len(payload["certificates"]) == 1
    assert payload["certificates"][0]["coeffs"] == [[1], [1]]  # (1, -1) in F_2
    # verify the saved certificate file
    rc, out = run_cli(capsys, "relations", "verify", "--cert", str(out_file))
    assert rc == 0 and "VERIFIED" in out


def test_relations_report(capsys):
    rc, payload = run_json(
        capsys,
        "relations", "report",
        "--q", "3", "--w", "4", "--r", "2",
        "--deg-bound", "2", "--prec", "80",
    )
    assert rc == 0
    assert payload["verdict"].startswith("consistent")


def test_determinism_modulo_timestamp(capsys):
    _, a = run_json(capsys, "zeta", "--q", "3", "--index", "2,1", "--prec", "40")
    _, b = run_json(capsys, "zeta", "--q", "3", "--index", "2,1", "--prec", "40")
    assert strip_meta(a) == strip_meta(b)


def test_cache_transparency(capsys, tmp_path):
    args = ["zeta", "--q", "3", "--index", "2,1", "--prec", "80", "--json"]
    rc, cold = run_cli(capsys, "--cache-dir", str(tmp_path), *args)
    assert rc == 0
    cache.clear_memos()
    rc, warm = run_cli(capsys, "--cache-dir", str(tmp_path), *args)
    assert rc == 0
    rc, nocache = run_cli(capsys, *args)
    assert rc == 0
    assert strip_meta(json.loads(cold)) == strip_meta(json.loads(warm)) == strip_meta(json.loads(nocache))


def test_domain_error_exit_code(capsys):
    rc = cli.main(["zeta", "--q", "3", "--index", "2,x", "--prec", "10"])
    assert rc == 2
    rc = cli.main(["cmpl", "--q", "2", "--index", "1", "--points", "theta^2", "--prec", "10"])
    assert rc == 2  # divergent point
    rc = cli.main([
        "relations", "hunt", "--q", "3", "--labels", "pitilde(x),zeta(3)",
        "--deg-bound", "0", "--prec", "40",
    ])
    assert rc == 2  # malformed label
    assert capsys.readouterr().err.splitlines()[-1] == "error: malformed period power 'x'"


@pytest.mark.parametrize("argv", [
    ["zeta", "--q", "3", "--index", "2"],
    ["zeta", "--q", "3", "--index", "2,1"],
    ["amzv", "--q", "3", "--index", "2", "--signs=-1"],
    ["amzv", "--q", "3", "--index", "2,1", "--signs=-1,1"],
    ["cmpl", "--q", "3", "--index", "2", "--points", "theta"],
    ["cmpl", "--q", "3", "--index", "2,1", "--points", "theta,1"],
    ["cmpl", "--q", "2", "--index", "2,1", "--points", "1/theta+1,theta/theta^2+1"],
])
def test_value_command_labels_round_trip(capsys, argv):
    rc, payload = run_json(capsys, *argv, "--prec", "40")
    assert rc == 0
    fld = field(int(argv[2]))
    value = relations.eval_value_expr(fld, payload["label"], 40)
    assert value.to_json() == payload["value"]


def test_resource_error_exit_code(capsys):
    rc = cli.main(["atpoly", "--q", "2", "--n", "500"])
    assert rc == 3  # budget
    rc = cli.main(["zeta", "--q", "3", "--index", "402", "--prec", "500"])
    assert rc == 3  # the power sums of entry 402 need H_401
    assert "index entry 402" in capsys.readouterr().err
    rc = cli.main([
        "relations", "hunt", "--q", "3", "--labels", "zeta(1),zeta(2)",
        "--deg-bound", "5", "--prec", "20",
    ])
    assert rc == 3  # margin


def test_margin_error_names_a_prec_that_passes(capsys):
    hunt = ["relations", "hunt", "--q", "3", "--labels", "zeta(1),zeta(2)", "--deg-bound", "5"]
    assert cli.main(hunt + ["--prec", "20"]) == 3
    err = capsys.readouterr().err
    assert "margin rule" in err and err.strip().endswith("raise prec to 31")
    assert cli.main(hunt + ["--prec", "30"]) == 3
    capsys.readouterr()
    assert cli.main(hunt + ["--prec", "31"]) == 0
    assert "margin rule" not in capsys.readouterr().err


def test_value_expressions(capsys):
    fld = field(3)
    v = relations.eval_value_expr(fld, "prod(zeta(1),zeta(2))", 40)
    import ffzeta.zeta as z

    want = (z.mzv(fld, (1,), 40) * z.mzv(fld, (2,), 40)).truncate(40)
    assert v == want
    v = relations.eval_value_expr(fld, "pitilde(1)", 30)
    assert v.val == -3
    v = relations.eval_value_expr(fld, "gnzeta(2,1)", 30)
    assert not v.is_zero_to_precision


def test_memory_error_exit_code_names_prec(capsys, monkeypatch):
    from ffzeta import zeta as zmod

    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(zmod, "mzv", out_of_memory)
    rc = cli.main(["zeta", "--q", "3", "--index", "1", "--prec", "100000000"])
    assert rc == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and "--prec 100000000" in err[0]
