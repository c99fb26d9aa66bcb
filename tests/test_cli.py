"""Command line interface tests, run in-process through main()."""

import json
import os

import pytest

from tracezero.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pack_json_contract(capsys):
    code, out, _ = run(capsys, "pack", "--m", "3", "--d", "1", "--budget", "60")
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"m", "d", "size", "optimal", "points"}
    assert obj["m"] == 3 and obj["d"] == 1
    assert obj["size"] == 4 and obj["optimal"] is True
    assert [3, 0, 0] in obj["points"]


def test_pack_quadratic_construction(capsys):
    code, out, _ = run(capsys, "pack", "--m", "4", "--d", "3",
                       "--construction", "quadratic")
    assert code == 0
    obj = json.loads(out)
    assert obj["size"] == 6
    assert obj["optimal"] is False


def test_pack_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["pack", "--m", "3"])
    assert info.value.code == 64


def test_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 64


def test_tables_json(capsys):
    code, out, _ = run(capsys, "tables", "--max-m", "4", "--max-d", "2",
                       "--budget", "20", "--json")
    assert code == 0
    cells = json.loads(out)["cells"]
    got = {(c["m"], c["d"]): (c["size"], c["n"]) for c in cells}
    assert got[(3, 1)] == (4, 2)
    assert got[(4, 1)] == (5, 3)
    assert got[(4, 2)] == (6, 3)
    assert all(c["optimal"] for c in cells)


def test_tables_text(capsys):
    code, out, _ = run(capsys, "tables", "--max-m", "3", "--max-d", "2",
                       "--budget", "20")
    assert code == 0
    assert "Largest separated set sizes" in out
    assert "Largest matrix sizes" in out


def test_witness_triangular_and_verify(tmp_path, capsys):
    mat = tmp_path / "a.json"
    mat.write_text(json.dumps({
        "n": 2,
        "ctx": {"field": {"kind": "Q"}, "nvars": 0},
        "entries": [["1", "5"], ["0", "-1"]],
    }))
    out_file = tmp_path / "w.json"
    code, _, _ = run(capsys, "witness", "--mode", "triangular",
                     "--matrix", os.fspath(mat), "--out", os.fspath(out_file))
    assert code == 0
    saved = json.loads(out_file.read_text())
    assert saved["B"]["entries"] == [["0", "0"], ["1", "5"]]

    code, out, _ = run(capsys, "witness", "--verify", os.fspath(out_file))
    assert code == 0
    assert json.loads(out)["verified"] is True

    # corrupt it: verification must exit 2
    saved["B"]["entries"][1][1] = "9"
    out_file.write_text(json.dumps(saved))
    code, _, err = run(capsys, "witness", "--verify", os.fspath(out_file))
    assert code == 2


def test_witness_hollow(tmp_path, capsys):
    mat = tmp_path / "h.json"
    mat.write_text(json.dumps({
        "n": 2,
        "ctx": {"field": {"kind": "Fp", "p": 5}, "nvars": 0},
        "entries": [["0", "2"], ["3", "0"]],
    }))
    code, out, _ = run(capsys, "witness", "--mode", "hollow",
                       "--matrix", os.fspath(mat), "--clique", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["B"]["entries"] == [["0", "3"], ["3", "0"]]


def test_witness_nilpotent(tmp_path, capsys):
    mat = tmp_path / "n.json"
    mat.write_text(json.dumps({
        "n": 2,
        "ctx": {"field": {"kind": "Q"}, "nvars": 0},
        "entries": [["1", "-1"], ["1", "-1"]],
    }))
    code, out, _ = run(capsys, "witness", "--mode", "nilpotent",
                       "--matrix", os.fspath(mat))
    assert code == 0
    json.loads(out)


def test_witness_missing_args(capsys):
    code, _, err = run(capsys, "witness", "--mode", "triangular")
    assert code == 65
    assert "matrix" in err


def test_certify_and_verify_cert(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    code, _, _ = run(capsys, "certify", "--m", "3", "--d", "0", "--n", "2",
                     "--auto", "--out", os.fspath(cert))
    assert code == 0
    code, out, _ = run(capsys, "verify-cert", os.fspath(cert))
    assert code == 0
    assert json.loads(out)["ok"] is True

    # sign-flip the bottom-right entry over Q so the trace breaks
    code, _, _ = run(capsys, "certify", "--m", "3", "--d", "0", "--n", "2",
                     "--auto", "--field", "Q", "--out", os.fspath(cert))
    assert code == 0
    obj = json.loads(cert.read_text())
    obj["X"]["entries"][1][1] = "1*x1"
    cert.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "verify-cert", os.fspath(cert))
    assert code == 2
    report = json.loads(out)
    assert report["ok"] is False


def test_certify_explicit_set(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    code, out, _ = run(capsys, "certify", "--m", "3", "--d", "0", "--n", "2",
                       "--set", os.fspath(pts))
    assert code == 0
    assert json.loads(out)["n"] == 2


def test_certify_rejects_bad_set(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps([[1, 0, 0], [1, 0, 0], [0, 0, 1]]))
    code, _, err = run(capsys, "certify", "--m", "3", "--d", "0", "--n", "2",
                       "--set", os.fspath(pts))
    assert code == 65


def test_verify_cert_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "verify-cert", os.fspath(bad))
    assert code == 65


def test_oracle_no_witness(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    run(capsys, "certify", "--m", "3", "--d", "0", "--n", "2", "--auto",
        "--out", os.fspath(cert))
    code, out, _ = run(capsys, "oracle", "--cert", os.fspath(cert))
    assert code == 0
    obj = json.loads(out)
    assert obj["result"] == "no-witness"
    assert obj["pairs_checked"] == 16 ** 6


def test_oracle_budget_exit(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    run(capsys, "certify", "--m", "3", "--d", "0", "--n", "2", "--auto",
        "--out", os.fspath(cert))
    code, _, err = run(capsys, "oracle", "--cert", os.fspath(cert),
                       "--budget", "10")
    assert code == 3


def test_oracle_budget_exit_on_huge_pair_counts(tmp_path, capsys):
    # 2^51408 pairs (15,476 digits) and 2^233463705930 pairs: the budget
    # is decided on the exponent, and neither count is formed or printed
    for m, d, e in ((5, 4, 51408), (12, 11, 233463705930)):
        cert = tmp_path / f"cert{m}.json"
        code, _, _ = run(capsys, "certify", "--m", str(m), "--d", str(d), "--n", "2",
                         "--auto", "--field", "F2", "--out", os.fspath(cert))
        assert code == 0
        code, out, err = run(capsys, "oracle", "--cert", os.fspath(cert))
        assert (code, out) == (3, "")
        assert f"search needs 2^{e} pairs" in err


def test_bound(capsys):
    code, out, _ = run(capsys, "bound", "--m", "5")
    assert code == 0
    obj = json.loads(out)
    assert obj == {"m": 5, "set_bound": 256, "matrix_bound": 128}
    code, out, _ = run(capsys, "bound", "--m", "2")
    assert json.loads(out)["matrix_bound"] is None


def test_bound_rejects_m_zero(capsys):
    code, out, err = run(capsys, "bound", "--m", "0")
    assert code == 65 and out == ""
    assert "PreconditionViolated" in err


def test_pack_rejects_m_zero(capsys):
    code, out, err = run(capsys, "pack", "--m", "0", "--d", "1")
    assert code == 65 and out == ""
    assert "PreconditionViolated" in err


def test_pack_rejects_m_past_the_variable_cap(capsys):
    # m coordinates per point: the m corners alone would take O(m^2) memory
    code, out, err = run(capsys, "pack", "--m", "30000", "--d", "0")
    assert code == 65 and out == ""
    assert "PreconditionViolated" in err and "at most 4096" in err


def test_bound_rejects_unprintable_m(capsys):
    # 4^9999 has 6020 decimal digits, past Python's int-to-str limit
    code, out, err = run(capsys, "bound", "--m", "10000")
    assert code == 65 and out == ""
    assert "PreconditionViolated" in err


def test_verify_cert_huge_m(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    run(capsys, "certify", "--m", "3", "--d", "0", "--n", "2", "--auto",
        "--out", os.fspath(cert))
    obj = json.loads(cert.read_text())
    obj["m"] = 10000
    cert.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "verify-cert", os.fspath(cert))
    assert code == 2
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["size bound"]["passed"] is True
    assert checks["size bound"]["detail"] == "n=2 <= 2^19997"


def test_huge_header_literals_are_not_written_out(tmp_path, capsys):
    # json accepts a 4300-digit literal, but 2d+1 and 2m-3 pass Python's
    # int-to-str digit limit; the report gives their size instead
    cert = tmp_path / "cert.json"
    run(capsys, "certify", "--m", "3", "--d", "0", "--n", "2", "--auto",
        "--out", os.fspath(cert))
    good = json.loads(cert.read_text())
    big = "9" * 4300
    for key in ("d", "m"):
        cert.write_text(json.dumps({**good, key: int(big)}))
        code, out, err = run(capsys, "verify-cert", os.fspath(cert))
        assert code == 2, key
        assert big[:50] not in out + err
        assert "-bit integer>" in out
        code, out, err = run(capsys, "oracle", "--cert", os.fspath(cert))
        assert code == 2, key
        assert big[:50] not in out + err
    pts = tmp_path / "pts.json"
    pts.write_text("[[1, 0, 0], [0, 1, 0], [0, 0, 1]]")
    code, out, err = run(capsys, "certify", "--m", "3", "--d", big, "--n", "2",
                         "--set", os.fspath(pts))
    assert code == 65
    assert big[:50] not in out + err


def test_oracle_rejects_removed_flags(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    run(capsys, "certify", "--m", "3", "--d", "0", "--n", "2", "--auto",
        "--out", os.fspath(cert))
    for flags in (["--workers", "2"], ["--resume", os.fspath(tmp_path / "f")]):
        with pytest.raises(SystemExit) as info:
            main(["oracle", "--cert", os.fspath(cert), *flags])
        assert info.value.code == 64


def test_out_is_atomic(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = run(capsys, "bound", "--m", "3", "--out", os.fspath(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text()) == {"m": 3, "set_bound": 16,
                                              "matrix_bound": 8}
    leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
    assert leftovers == []


def test_tables_covers_small_grid(capsys):
    code, out, _ = run(capsys, "tables", "--max-m", "4", "--max-d", "4",
                       "--budget", "30", "--json")
    assert code == 0
    cells = json.loads(out)["cells"]
    got = {(c["m"], c["d"]): c["n"] for c in cells}
    # m = 3 caps at n = 2 for every d; the (4,4) cell reaches 4
    assert got[(3, 1)] == got[(3, 2)] == got[(3, 3)] == got[(3, 4)] == 2
    assert got[(4, 2)] == 3 and got[(4, 3)] == 3 and got[(4, 4)] == 4


def test_pack_points_revalidate(capsys):
    from tracezero.packing import SeparatedSet
    code, out, _ = run(capsys, "pack", "--m", "4", "--d", "3",
                       "--construction", "quadratic")
    assert code == 0
    obj = json.loads(out)
    sep = SeparatedSet(obj["m"], obj["d"], tuple(tuple(p) for p in obj["points"]))
    assert sep.size == obj["size"]


def test_witness_hollow_three_by_three_f7(tmp_path, capsys):
    from tracezero.witnesses import witness_from_json
    mat = tmp_path / "h7.json"
    mat.write_text(json.dumps({
        "n": 3,
        "ctx": {"field": {"kind": "Fp", "p": 7}, "nvars": 0},
        "entries": [["0", "1", "2"], ["3", "0", "4"], ["5", "6", "0"]],
    }))
    code, out, _ = run(capsys, "witness", "--mode", "hollow",
                       "--matrix", os.fspath(mat), "--clique", "1,2")
    assert code == 0
    pair = witness_from_json(json.loads(out))
    assert pair.target.n == 3


def test_witness_nilpotent_rejects_non_nilpotent(tmp_path, capsys):
    mat = tmp_path / "bad.json"
    mat.write_text(json.dumps({
        "n": 2,
        "ctx": {"field": {"kind": "Q"}, "nvars": 0},
        "entries": [["1", "0"], ["0", "1"]],
    }))
    code, _, err = run(capsys, "witness", "--mode", "nilpotent",
                       "--matrix", os.fspath(mat))
    assert code == 65
    assert "NotNilpotent" in err


def d0_certificate(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    run(capsys, "certify", "--m", "3", "--d", "0", "--n", "2", "--auto",
        "--out", os.fspath(cert))
    return cert


def test_oracle_rejects_bad_modulus(tmp_path, capsys):
    cert = d0_certificate(tmp_path, capsys)
    for p in ("4", "1"):
        code, out, err = run(capsys, "oracle", "--cert", os.fspath(cert), "--p", p)
        assert code == 65 and out == ""
        assert "PreconditionViolated" in err


def test_certify_rejects_bad_modulus(capsys):
    code, out, err = run(capsys, "certify", "--m", "3", "--d", "0", "--n", "2",
                         "--auto", "--field", "F4")
    assert code == 65 and out == ""
    assert "PreconditionViolated" in err


# a 5000-digit literal: json raises a plain ValueError past Python's
# 4300-digit int-to-str limit
HUGE = "9" * 5000


def test_verify_cert_rejects_oversized_int(tmp_path, capsys):
    cert = d0_certificate(tmp_path, capsys)
    text = cert.read_text()
    assert '"n":2' in text
    cert.write_text(text.replace('"n":2', '"n":' + HUGE, 1))
    code, out, err = run(capsys, "verify-cert", os.fspath(cert))
    assert code == 65 and out == ""
    assert "MalformedInput" in err


def test_witness_verify_rejects_oversized_int(tmp_path, capsys):
    ctx = '{"field":{"kind":"Q"},"nvars":0}'
    mat = '{"n":1,"ctx":%s,"entries":[[%s]]}'
    w = tmp_path / "w.json"
    w.write_text('{"target":%s,"X":%s,"B":%s}'
                 % (mat % (ctx, "0"), mat % (ctx, HUGE), mat % (ctx, "0")))
    code, out, err = run(capsys, "witness", "--verify", os.fspath(w))
    assert code == 65 and out == ""
    assert "MalformedInput" in err


def test_certify_set_rejects_oversized_int(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    pts.write_text("[[%s,0,0],[0,1,0],[0,0,1]]" % HUGE)
    code, out, err = run(capsys, "certify", "--m", "3", "--d", "0", "--n", "2",
                         "--set", os.fspath(pts))
    assert code == 65 and out == ""
    assert "MalformedInput" in err


def test_malformed_arguments_exit_65(tmp_path, capsys):
    not_points = tmp_path / "ints.json"
    not_points.write_text("[1, 2, 3]")
    not_utf8 = tmp_path / "bytes.json"
    not_utf8.write_bytes(b"\xff\xfe{")
    hollow = tmp_path / "h.json"
    hollow.write_text(json.dumps({
        "n": 2,
        "ctx": {"field": {"kind": "Fp", "p": 5}, "nvars": 0},
        "entries": [["0", "2"], ["3", "0"]],
    }))
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps({"n": 2, "ctx": {"field": {"kind": "Q"}, "nvars": 0},
                                "entries": 5}))
    # an exponent sum past the 4300-digit int-to-str limit
    top = "9" * 4300
    unprintable = tmp_path / "big.json"
    unprintable.write_text(json.dumps({
        "n": 2, "ctx": {"field": {"kind": "Q"}, "nvars": 1},
        "entries": [["0", f"x1^{top}*x1^{top}"], ["0", "0"]]}))
    # more variables than a ring may have, read from a file and written
    many_vars = tmp_path / "nvars.json"
    many_vars.write_text(json.dumps({
        "n": 1, "ctx": {"field": {"kind": "Q"}, "nvars": 10 ** 9}, "entries": [["1"]]}))
    units = tmp_path / "units.json"
    units.write_text(json.dumps([[int(i == j) for j in range(5000)] for i in range(3)]))
    certify = ["certify", "--m", "3", "--d", "0", "--n", "2"]
    cases = [
        [*certify, "--set", os.fspath(not_points)],
        ["certify", "--m", "5000", "--d", "0", "--n", "2", "--set", os.fspath(units)],
        ["witness", "--mode", "triangular", "--matrix", os.fspath(many_vars)],
        # a NaN budget would never run out
        ["pack", "--m", "7", "--d", "3", "--budget", "nan"],
        ["tables", "--max-m", "4", "--max-d", "1", "--budget", "nan"],
        [*certify, "--auto", "--budget", "nan"],
        [*certify, "--auto", "--field", "F²"],  # a digit int() rejects
        ["verify-cert", os.fspath(not_utf8)],
        ["witness", "--mode", "hollow", "--matrix", os.fspath(hollow),
         "--clique", "a"],
        ["witness", "--mode", "hollow", "--matrix", os.fspath(hollow),
         "--clique", "1e5"],
        ["witness", "--mode", "triangular", "--matrix", os.fspath(flat)],
        ["witness", "--mode", "triangular", "--matrix", os.fspath(unprintable)],
    ]
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (65, ""), argv
        assert err.startswith("error: ")


def test_certify_round_trip_past_a_thousand_variables(tmp_path, capsys):
    m = 1100
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps([[int(i == j) for j in range(m)] for i in range(3)]))
    cert = tmp_path / "cert.json"
    code, _, _ = run(capsys, "certify", "--m", str(m), "--d", "0", "--n", "2",
                     "--set", os.fspath(pts), "--out", os.fspath(cert))
    assert code == 0
    code, out, _ = run(capsys, "verify-cert", os.fspath(cert))
    assert code == 0 and json.loads(out)["ok"] is True
    code, _, err = run(capsys, "oracle", "--cert", os.fspath(cert))
    assert code == 3 and "BudgetExceeded" in err
