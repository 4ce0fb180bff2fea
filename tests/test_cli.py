"""CLI surface: parsing, JSON output, determinism, cache transparency,
exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

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


BLIND_HUNT = ["relations", "hunt", "--q", "5", "--labels", "gnzeta(6),gnzeta(1,2,2,1)",
              "--deg-bound", "0", "--prec", "100"]


def test_hunt_refuses_a_value_that_shows_no_digit(capsys, tmp_path):
    # gnzeta(1,2,2,1) starts at 1/theta^225, so at prec 100 it cannot be
    # told from zero; the certificate [0, 1] would claim it is zero
    out_file = tmp_path / "blind.json"
    assert cli.main(BLIND_HUNT + ["--out", str(out_file)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and not out_file.exists()
    assert err == ("error: gnzeta(1,2,2,1) shows no digit through precision 100; "
                   "raise prec to at least 225\n")


PREC_ZERO_HUNT = ["relations", "hunt", "--q", "3", "--labels", "zeta(1),logc(1/theta^5)",
                  "--deg-bound", "0", "--prec", "0"]


def test_hunt_at_prec_zero_names_a_prec_past_the_first_digit(capsys):
    # logc(1/theta^5) starts at 1/theta^5, which its leading term names
    assert cli.main(PREC_ZERO_HUNT) == 3
    assert capsys.readouterr().err == ("error: logc(1/theta^5) shows no digit through "
                                       "precision 0; raise prec to at least 5\n")


@pytest.mark.parametrize("labels, prec, first", [
    ("zeta(1),logc(1/theta^20)", "1", 20),
    ("zeta(1),cmpl(2,1;1/theta^30;1)", "2", 96),  # 2 deg L_1 + 30 q
])
def test_hunt_names_a_first_digit_far_past_prec(capsys, labels, prec, first):
    argv = ["relations", "hunt", "--q", "3", "--labels", labels, "--deg-bound", "0",
            "--prec", prec]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err.endswith(f"raise prec to at least {first}\n")


@pytest.mark.parametrize("labels, zero", [
    ("logc(0),zeta(1)", "logc(0)"),
    ("cmpl(2,1;theta;0),zeta(3)", "cmpl(2,1;theta;0)"),
    ("prod(logc(0),zeta(1)),zeta(2)", "prod(logc(0),zeta(1))"),
])
def test_hunt_refuses_an_exact_zero_unevaluated(capsys, monkeypatch, labels, zero):
    # no precision shows a digit of an exact zero, so it is a domain error
    monkeypatch.setattr(relations, "eval_value_expr", None)
    argv = ["relations", "hunt", "--q", "3", "--labels", labels, "--deg-bound", "0",
            "--prec", "60"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (f"error: {zero} is exactly zero, and exact-zero "
                                       "entries are not allowed in a value vector\n")


def test_evaluate_refuses_before_it_evaluates(capsys, tmp_path, monkeypatch):
    calls = []
    evaluate = relations.eval_value_expr

    def spy(*args):
        calls.append(args[1])
        return evaluate(*args)

    monkeypatch.setattr(relations, "eval_value_expr", spy)
    for argv in (BLIND_HUNT, PREC_ZERO_HUNT):
        assert cli.main(argv) == 3
        assert calls == []
    # every other evaluation reads each label once
    labels = ["zeta(1)", "logc(1)", "prod(zeta(1),logc(1))"]
    out = tmp_path / "c.json"
    for argv in (["hunt", "--q", "3", "--labels", ",".join(labels), "--deg-bound", "0",
                  "--prec", "60", "--out", str(out)], ["verify", "--cert", str(out)]):
        calls.clear()
        assert cli.main(["relations"] + argv) == 0
        assert sorted(calls) == sorted(labels)
    capsys.readouterr()


def test_verify_refuses_a_certificate_on_a_value_that_shows_no_digit(capsys, tmp_path):
    # the certificate an unguarded hunt writes for BLIND_HUNT: at 2N = 200
    # the value still shows no digit, so its residual vanishes trivially
    cert = {"labels": ["gnzeta(6)", "gnzeta(1,2,2,1)"], "coeffs": [[0], [1]], "q": 5,
            "degree_bound": 0, "prec": 100, "residual_val": 100}
    path = tmp_path / "blind.json"
    path.write_text(json.dumps({"q": 5, "certificates": [cert]}), encoding="utf-8")
    assert cli.main(["relations", "verify", "--cert", str(path)]) == 3
    out, err = capsys.readouterr()
    assert "VERIFIED" not in out
    assert "gnzeta(1,2,2,1) shows no digit through precision 200" in err


def test_prod_hunt_with_a_factor_of_negative_valuation_verifies(capsys, tmp_path):
    # pitilde(1) has valuation -3: the factors are read deep enough that the
    # product is exact through 60, so the certificates are too
    out_file = tmp_path / "c.json"
    rc, payload = run_json(capsys, "relations", "hunt", "--q", "3", "--labels",
                           "zeta(1),logc(1),prod(zeta(1),pitilde(1))", "--deg-bound", "0",
                           "--prec", "60", "--out", str(out_file))
    assert rc == 0 and payload["certificates"]
    assert all(c["prec"] == 60 for c in payload["certificates"])
    assert cli.main(["relations", "verify", "--cert", str(out_file)]) == 0


@pytest.mark.parametrize("q,labels,coeffs", [
    (3, ["zeta(1)", "logc(1)"], [[2], [1], [1]]),
    (3, ["zeta(1)", "logc(1)", "zeta(2)"], [[2], [1]]),
    (3, ["zeta(1)", "logc(1)"], [[-1], [1]]),
    (4, ["logc(1)", "cmpl(1;1)"], [[9], [1]]),
    (3, ["zeta(1)", "logc(1)"], [[1.0], [1]]),
], ids=["extra-list", "missing-list", "negative", "past-q", "float"])
def test_verify_refuses_a_malformed_certificate_file(capsys, tmp_path, q, labels, coeffs):
    # a file needs one coefficient list per label, each of integers in 0..q-1
    cert = {"labels": labels, "coeffs": coeffs, "q": q, "degree_bound": 0, "prec": 60,
            "residual_val": 60}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"q": q, "certificates": [cert]}), encoding="utf-8")
    assert cli.main(["relations", "verify", "--cert", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot read certificates from {path}: ValueError: ")
    assert len(err.splitlines()) == 1


def test_verify_evaluates_once_per_label_set(capsys, tmp_path, monkeypatch):
    both = tmp_path / "s3.json"
    assert cli.main(["relations", "hunt", "--q", "3", "--labels",
                     "zeta(3),zeta(1,2),zeta(2,1),prod(zeta(1),zeta(2))",
                     "--deg-bound", "1", "--prec", "120", "--out", str(both)]) == 0
    data = json.loads(both.read_text(encoding="utf-8"))
    assert len(data["certificates"]) == 2
    one = tmp_path / "one.json"
    one.write_text(json.dumps(dict(data, certificates=data["certificates"][:1])),
                   encoding="utf-8")
    calls = []
    evaluate = relations.eval_value_expr

    def spy(*args):
        calls.append(args[1])
        return evaluate(*args)

    monkeypatch.setattr(relations, "eval_value_expr", spy)
    counts = []
    for path in (one, both):
        calls.clear()
        assert cli.main(["relations", "verify", "--cert", str(path)]) == 0
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0
    assert capsys.readouterr().out.endswith("certificate 1: VERIFIED\n")


def test_closed_stdout_is_not_a_traceback():
    # atpoly --q 2 --n 120 prints one 135 kB line, more than a pipe buffer
    # holds, so the write meets the closed pipe
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = "import sys; from ffzeta.cli import main; sys.exit(main())"
    proc = subprocess.Popen([sys.executable, "-c", code, "atpoly", "--q", "2", "--n", "120"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert err == b""


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
    # two runs of one command print the same bytes
    args = ["zeta", "--q", "3", "--index", "2,1", "--prec", "40", "--json"]
    _, a = run_cli(capsys, *args)
    _, b = run_cli(capsys, *args)
    assert a == b


def test_cache_transparency(capsys, tmp_path):
    args = ["zeta", "--q", "3", "--index", "2,1", "--prec", "80", "--json"]
    rc, cold = run_cli(capsys, "--cache-dir", str(tmp_path), *args)
    assert rc == 0
    cache.clear_memos()
    rc, warm = run_cli(capsys, "--cache-dir", str(tmp_path), *args)
    assert rc == 0
    rc, nocache = run_cli(capsys, *args)
    assert rc == 0
    assert cold == warm == nocache


@pytest.mark.parametrize("name", ["file", "file/sub"])
def test_unusable_cache_dir_exits_2(capsys, tmp_path, name):
    # a regular file, and a directory that cannot be made under one
    (tmp_path / "file").write_text("", encoding="utf-8")
    path = str(tmp_path / name)
    assert cli.main(["--cache-dir", path, "atpoly", "--q", "3", "--n", "4"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith(f"error: cannot use cache directory {path}: ")


def test_domain_error_exit_code(capsys, tmp_path):
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
    for q in ("0", "1", "6"):  # no field of that size
        for argv in (["bound", "--w", "5", "--r", "2"], ["family", "--w", "5", "--r", "2"],
                     ["partitions", "--w", "4"]):
            assert cli.main(["indices", *argv, "--q", q]) == 2, (q, argv)
    # certificate files that are missing, not JSON, or without a q
    (tmp_path / "broken.json").write_text("{", encoding="utf-8")
    (tmp_path / "no_q.json").write_text('{"certificates": []}', encoding="utf-8")
    capsys.readouterr()
    for name in ("missing.json", "broken.json", "no_q.json"):
        path = str(tmp_path / name)
        assert cli.main(["relations", "verify", "--cert", path]) == 2, name
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot read certificates from {path}: ")


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
    assert rc == 3  # the tower budget
    assert "H_0..H_500 at q=2" in capsys.readouterr().err
    rc = cli.main(["zeta", "--q", "3", "--index", "402", "--prec", "500"])
    assert rc == 3  # the power sums of entry 402 need H_401
    err = capsys.readouterr().err
    assert "index entry 402" in err and "tower budget of 96 MiB" in err
    rc = cli.main([
        "relations", "hunt", "--q", "3", "--labels", "zeta(1),zeta(2)",
        "--deg-bound", "5", "--prec", "20",
    ])
    assert rc == 3  # margin


def test_atpoly_past_the_tower_budget_exits_3_before_any_tower_work(capsys, monkeypatch):
    from ffzeta import anderson

    def no_tower(*args):
        raise AssertionError("tower work before the budget check")

    monkeypatch.setattr(anderson, "_at_tower", no_tower)
    cache.clear_memos()
    assert cli.main(["atpoly", "--q", "2", "--n", "400"]) == 3
    err = capsys.readouterr().err
    assert "H_0..H_400 at q=2 is predicted at" in err and "tower budget of 96 MiB" in err


def test_entry_above_150_is_served_at_q3(capsys):
    """The tower to H_159 at q=3 is predicted at about 51 MiB, inside the
    tower budget; an entry budget of 150 refused it."""
    try:
        rc, out = run_json(capsys, "zeta", "--q", "3", "--index", "160", "--prec", "400")
    finally:
        cache.clear_memos()
    assert rc == 0 and out["label"] == "zeta(160)"


def test_margin_error_names_a_prec_that_passes(capsys):
    hunt = ["relations", "hunt", "--q", "3", "--labels", "zeta(1),zeta(2)", "--deg-bound", "5"]
    assert cli.main(hunt + ["--prec", "20"]) == 3
    err = capsys.readouterr().err
    assert "margin rule" in err and err.strip().endswith("raise prec to 31")
    assert cli.main(hunt + ["--prec", "30"]) == 3
    capsys.readouterr()
    assert cli.main(hunt + ["--prec", "31"]) == 0
    assert "margin rule" not in capsys.readouterr().err
    # the report's prec counts digits beyond the deepest valuation, and so
    # does the prec its error names
    report = ["relations", "report", "--q", "3", "--indices", "4", "--deg-bound", "0"]
    assert cli.main(report + ["--prec", "17"]) == 3
    err = capsys.readouterr().err
    assert "margin rule" in err and err.strip().endswith("raise prec to 20")
    assert cli.main(report + ["--prec", "19"]) == 3
    capsys.readouterr()
    assert cli.main(report + ["--prec", "20"]) == 0
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
