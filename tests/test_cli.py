import hashlib
import json
import os
import random
import re
import shlex
import signal
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import symop
from symop import _work, cli, identities as idn, partitions as pt, symfunc as sf
from symop import tableaux as tb
from symop.reporting import Failure


def test_parse_rejects_bad_partition():
    with pytest.raises(cli.ParseError) as err:
        cli.evaluate_text("s[1,2]")
    assert "weakly decreasing" in str(err.value)


def test_parse_reports_position():
    with pytest.raises(cli.ParseError) as err:
        cli.evaluate_text("s[2,1] + + s[1]")
    assert "position" in str(err.value)


def test_evaluate_examples():
    assert cli.evaluate_text("s[1]*s[1]") == sf.SymFunc("s", {(2,): 1, (1, 1): 1})
    assert cli.evaluate_text("kron(s[2,1], s[2,1])") == sf.SymFunc(
        "s", {(3,): 1, (2, 1): 1, (1, 1, 1): 1}
    )
    assert cli.evaluate_text("sk[2,1/1]") == sf.SymFunc("s", {(2,): 1, (1, 1): 1})
    assert cli.evaluate_text("s[0]") == sf.one()
    assert cli.evaluate_text("2 - 1/2") == sf.scale(Fraction(3, 2), sf.one())
    assert cli.evaluate_text("h[2,1] - e[2]*p[1]") == sf.add(
        sf.to_basis(sf.h((2, 1)), "s"),
        sf.scale(-1, sf.mul(sf.to_basis(sf.e(2), "s"), sf.schur((1,)))),
    )
    assert cli.evaluate_text("s[1]^3") == sf.mul(
        sf.schur((1,)), sf.mul(sf.schur((1,)), sf.schur((1,)))
    )


def test_parse_operator():
    expr = cli.parse_operator("U[1]D[1] - Id")
    got = expr.apply(sf.schur((2, 1)))
    want = sf.SymFunc("s", {(2, 1): 1, (3,): 1, (1, 1, 1): 1})
    assert got == want
    kp = cli.parse_operator("K(p[2])U(p[1])")
    assert kp.apply(sf.schur((2,))).is_zero()
    scaled = cli.parse_operator("1/2*(U[1] + U[1])")
    assert scaled.apply(sf.one()) == sf.schur((1,))


def test_cmd_expand(capsys):
    assert cli.main(["expand", "s[2,1]*s[1]"]) == 0
    assert capsys.readouterr().out.strip() == "s[3,1] + s[2,2] + s[2,1,1]"
    assert cli.main(["expand", "s[0]"]) == 0
    assert capsys.readouterr().out.strip() == "s[0]"


def test_module_run_prints_nothing_on_stderr():
    # runpy warns when `python -m symop.cli` finds symop.cli already
    # imported by the package
    src = os.path.dirname(os.path.dirname(symop.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "symop.cli", "expand", "s[2,1]*s[1]"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout == "s[3,1] + s[2,2] + s[2,1,1]\n"
    assert proc.stderr == ""


@pytest.mark.parametrize("argv", [
    ["expand", "p[6]"],
    ["skewlr", "3,1/1", "2,2/1"],
    ["skewlr", "3,1/1", "2,2/1", "--terms", "--format", "json"],
])
def test_closed_pipe_exits_1_without_a_traceback(argv):
    # the read end is closed before the child starts, so its first write
    # fails, like `symop expand "p[26]" | head -c 10` once head has exited
    src = os.path.dirname(os.path.dirname(symop.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "symop.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": path},
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr == ""


def test_cmd_expand_json_round_trip(capsys):
    assert cli.main(["expand", "kron(s[2,1], s[2,1])", "--format", "json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert sf.from_json(blob) == cli.evaluate_text("kron(s[2,1], s[2,1])")


def test_cmd_kron(capsys):
    assert cli.main(["kron", "s[2,1]", "s[2,1]"]) == 0
    assert capsys.readouterr().out.strip() == "s[3] + s[2,1] + s[1,1,1]"


def test_cmd_skew(capsys):
    assert cli.main(["skew", "3,1/1"]) == 0
    assert capsys.readouterr().out.strip() == "s[3] + s[2,1]"


def test_skew_of_a_large_shape_is_fast(capsys):
    # the skew table enumerates the LR fillings of the shape, not all p(74)
    # partitions of the skew size
    for argv in (["skew", "45,30/1"], ["apply", "D[1]", "s[45,30]"]):
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.strip() == "s[45,29] + s[44,30]"


def test_cmd_lrcoeff(capsys):
    assert cli.main(["lrcoeff", "3,2,1", "2,1", "2,1"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_cmd_kroncoeff(capsys):
    assert cli.main(["kroncoeff", "2,1", "2,1", "2,1"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_cmd_char(capsys):
    assert cli.main(["char", "2,1", "1,1,1"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_cmd_verify_pass(capsys):
    assert cli.main(["verify", "kb1", "--max-g", "8"]) == 0
    out = capsys.readouterr().out
    assert "kb1: PASS" in out


def test_cmd_verify_json(capsys):
    assert cli.main(["verify", "gessel_1", "--max-ab", "2", "--max-g", "2",
                     "--format", "json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob[0]["identity"] == "gessel_1" and blob[0]["passed"]


def test_cmd_verify_failure_exit_code(monkeypatch, capsys):
    entry = idn.Entry(
        "always_fails",
        "test fixture",
        lambda bounds: [{}],
        lambda prm: (1, [Failure({}, sf.one(), sf.zero())]),
    )
    monkeypatch.setitem(idn.CATALOG, "always_fails", entry)
    assert cli.main(["verify", "always_fails"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cmd_apply(capsys):
    assert cli.main(["apply", "U[1]D[1] - Id", "s[2,1]"]) == 0
    assert capsys.readouterr().out.strip() == "s[3] + s[2,1] + s[1,1,1]"


def test_cmd_matrix(capsys):
    assert cli.main(["matrix", "K(p[2])U(p[1])", "--max-deg", "2",
                     "--format", "json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert all(x == "0" for row in blob["entries"] for x in row)


def test_cmd_rank(capsys):
    assert cli.main(["rank", "U[1]D[1];D[1]U[1];Id", "--max-deg", "3"]) == 0
    assert "rank 2 of 3: dependent at this truncation" in capsys.readouterr().out
    assert cli.main(["rank", "U[1];U[2]", "--max-deg", "3"]) == 0
    assert "rank 2 of 2: independent" in capsys.readouterr().out


def test_rank_of_the_commutation_relations(capsys):
    # the paper's normal ordering D_b U_a = sum_lam U_{a/lam} D_{b/lam} holds
    # for (a, b) = (1, 1), (2, 2), (11, 11) and (2, 11) with every a/lam
    # and b/lam among these words, so 12 words span 8 dimensions
    words = ("U[1]D[1];D[1]U[1];U[2]D[2];D[2]U[2];U[1,1]D[1,1];D[1,1]U[1,1];"
             "U[2]D[1,1];D[1,1]U[2];U[1]D[2];D[2]U[1];Id;U[1,1]D[2]")
    assert cli.main(["rank", words, "--max-deg", "6"]) == 0
    assert capsys.readouterr().out == "rank 8 of 12: dependent at this truncation\n"
    assert cli.main(["rank", words, "--max-deg", "6", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "rank": 8, "count": 12, "independent": False
    }


def test_cmd_skewlr(capsys):
    assert cli.main(["skewlr", "1/0", "2,1/1"]) == 0
    assert capsys.readouterr().out.strip() == "s[3] + 2*s[2,1] + s[1,1,1]"
    assert cli.main(["skewlr", "1/0", "2,1/1", "--terms"]) == 0
    out = capsys.readouterr().out
    assert "- sk[2,1/0]" in out and "+ sk[3,1/1]" in out
    # digests of the exact bytes printed before the tableau enumeration
    # was sped up
    want = {
        "text": "7899fd394191071c809efbd8d506c20df9c550d67b9f8fc0a6c75a2dcee5c21a",
        "json": "38c6a8cfda7d949b79e0c5fa0bab88d3c58b2aea2b38d2d974236f41705ce890",
    }
    for fmt, digest in want.items():
        assert cli.main(["skewlr", "3,2,1/1", "3,1/1", "--terms",
                         "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cmd_skewpieri(capsys):
    assert cli.main(["skewpieri", "1", "2,1/1"]) == 0
    assert capsys.readouterr().out.strip() == "s[3] + 2*s[2,1] + s[1,1,1]"


def test_cmd_skewcorners(capsys):
    assert cli.main(["skewcorners", "2,1", "1"]) == 0
    assert capsys.readouterr().out.strip() == "s[2] + s[1,1]"


def test_cmd_jdt(capsys):
    blob = json.dumps(
        {"shape": "2,2/2", "entries": [[1, 0, 5], [1, 1, 5]], "holes": [[0, 1]]}
    )
    assert cli.main(["jdt", blob, "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    step = out["steps"][0]
    assert step["vacated"] == [1, 1]
    assert step["shape"] == "2,1/1"
    assert step["entries"] == [[0, 1, 5], [1, 0, 5]]
    assert cli.main(["jdt", "{bad json"]) == 2


def test_jdt_names_a_malformed_item(capsys):
    # an entry or hole of the wrong length, or entries that are not a
    # list, is one `bad tableau JSON` line that names it
    for fields, bad in (
        ({"entries": [[1, 0]]}, "entries item [1, 0] is not a list of 3 integers"),
        ({"entries": [[1, 0, 5], [1, 1, 5]], "holes": [[0, 1, 2]]},
         "holes item [0, 1, 2] is not a list of 2 integers"),
        ({"entries": {"a": 1}}, 'entries {"a": 1} is not a list'),
        ({"entries": [[1, 0, 5], [1, 1, 5]], "holes": 5}, "holes 5 is not a list"),
    ):
        blob = json.dumps({"shape": "2,2/2", **fields})
        assert cli.main(["jdt", blob]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"symop: error: bad tableau JSON: {bad}\n"


def test_jdt_names_a_malformed_blob(capsys):
    # a blob that is not an object, a shape that is not a string and an
    # entry that is not a number are each one `bad tableau JSON` line in
    # the program's own words, not Python's
    for blob, bad in (
        ("[1]", "[1] is not an object"),
        ('{"shape": 5, "entries": []}', "shape 5 is not a string"),
        ('{"shape": [2], "entries": []}', "shape [2] is not a string"),
        ('{"shape": "2,2/2", "entries": [[1, 0, 5], [1, 1, "x"]]}',
         'entries item [1, 1, "x"] is not a list of 3 integers'),
        ('{"shape": "2,2/2", "entries": [[1, 0, 5], [1, 1, true]]}',
         "entries item [1, 1, true] is not a list of 3 integers"),
        ('{"shape": "2,2/2", "entries": [[1, 0, 5], [1, 1, NaN]]}',
         "entries item [1, 1, NaN] is not a list of 3 integers"),
        ('{"shape": "2,2/2"}', "entries null is not a list"),
    ):
        assert cli.main(["jdt", blob]) == 2, blob
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"symop: error: bad tableau JSON: {bad}\n"


def test_cmd_jdt_text(capsys):
    blob = json.dumps(
        {"shape": "2,2/2", "entries": [[1, 0, 5], [1, 1, 5]], "holes": [[0, 1]]}
    )
    assert cli.main(["jdt", blob]) == 0
    assert "vacated [1, 1]" in capsys.readouterr().out


def test_jdt_rejects_non_integral_values(capsys):
    for entries, holes, bad in (
        ([[1, 0, 5.9], [1, 1, 5]], [[0, 1]], "5.9"),
        ([[1, 0, 5], [1, 1, 5]], [[0, 1.5]], "1.5"),
        ([[1, 0, 5], [1, 1.0, 5]], [[0, 1]], None),
    ):
        blob = json.dumps({"shape": "2,2/2", "entries": entries, "holes": holes})
        code = cli.main(["jdt", blob])
        captured = capsys.readouterr()
        if bad is None:
            assert code == 0 and "vacated [1, 1]" in captured.out
        else:
            assert code == 2
            assert captured.err == f"symop: error: {bad} is not an integer\n"


def test_powers_run_under_the_work_budget(capsys, monkeypatch):
    # a power is multiplied out under the work budget, with no cap on its
    # degree: a huge one is refused by the budget
    monkeypatch.setattr(cli, "MAX_WORK", _LOW_WORK)
    start = time.monotonic()
    _assert_refused(capsys, [["expand", "s[1]^5000"]], _LOW_WORK)
    assert time.monotonic() - start < 5
    monkeypatch.undo()
    assert cli.main(["expand", "s[1]^21"]) == 0
    power = capsys.readouterr().out
    assert cli.main(["expand", "s[1]^20*s[1]"]) == 0
    assert capsys.readouterr().out == power
    for argv, want in ((["expand", "s[20]^1"], "s[20]\n"),
                       (["expand", "(s[20] + 1)^1"], "s[0] + s[20]\n"),
                       (["expand", "s[21]^1"], "s[21]\n"),
                       (["expand", "(s[1]-s[1])^5000"], "0\n")):
        assert cli.main(argv) == 0, argv
        assert capsys.readouterr().out == want, argv


def test_constant_powers_are_computed_directly(capsys):
    # a constant base is raised in one step, and refused before it is
    # computed when the result has more digits than Python prints
    start = time.monotonic()
    assert cli.main(["expand", "2^1000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"symop: error: power of 301030 digits exceeds the limit of "
        f"{sys.get_int_max_str_digits()} digits\n"
    )
    assert cli.main(["expand", "1^10000000"]) == 0
    assert capsys.readouterr().out == "s[0]\n"
    assert time.monotonic() - start < 2
    for expr, want in (("(-1/2)^5", "-1/32*s[0]"), ("0^0", "s[0]"),
                       ("(s[1] + 3 - s[1])^2", "9*s[0]")):
        assert cli.main(["expand", expr]) == 0
        assert capsys.readouterr().out == want + "\n"


def test_collapsed_option_is_gone(capsys):
    # the collapsed Schur expansion is the only default; --terms remains
    for argv in (["skewlr", "1/0", "1/0"], ["skewpieri", "1", "1/0"]):
        assert cli.main(argv + ["--collapsed"]) == 2
        assert "unrecognized arguments: --collapsed" in capsys.readouterr().err
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == "s[2] + s[1,1]\n"


# A budget low enough that every hostile input below meets it within a few
# hundredths of a second, which shows that its path charges the meter.
_LOW_WORK = 20_000


def _ones(n):
    return ",".join(["1"] * n)


def _staircase(n):
    return ",".join(str(i) for i in range(n, 0, -1))


def _assert_refused(capsys, argv_list, limit):
    """Each command exits 2 with empty stdout and the one budget line."""
    for argv in argv_list:
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err == (
            f"symop: error: the computation exceeds the work budget of "
            f"{limit} units\n"
        ), argv


def _assert_answers(capsys, cases):
    """Each command exits 0 and prints the bytes whose sha256 is given, as
    computed before the work budget replaced the cost estimators."""
    for argv, digest in cases:
        assert cli.main(argv) == 0, argv
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_product_work_limit(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_WORK", _LOW_WORK)
    start = time.monotonic()
    _assert_refused(capsys, [
        ["expand", "s[1]^10*s[1]^10"],
        ["expand", "s[1]^20*s[1]^20"],
        ["expand", "s[6,5,4,3,2,1]*s[6,5,4,3,2,1]"],
        # a product of 1,000 cells whose factors are neither rows nor
        # columns fills its disconnected shape: it answers under the real
        # budget (see test_recursion_over_input_size_is_not_called_nesting)
        ["expand", "s[499,1]*s[499,1]"],
    ], _LOW_WORK)
    assert time.monotonic() - start < 5
    # a row factor multiplies by its horizontal strips: the 1,000 cells of
    # s[500]*s[500] are 501 strips, and this low budget answers them
    assert cli.main(["expand", "s[500]*s[500]"]) == 0
    assert capsys.readouterr().out == sf.render(
        sf.linear_combination((1, sf.schur((1000 - i, i))) for i in range(501))
    ) + "\n"
    monkeypatch.undo()
    # the work of a product grows with its answer: the three-term Pieri
    # product of a large shape answers at once
    start = time.monotonic()
    for argv, lam, mu in ((["expand", "s[45,30]*s[1]"], (45, 30), (1,)),
                          (["apply", "U[1]", "s[45,30]"], (45, 30), (1,)),
                          (["expand", "s[15]*s[10]"], (15,), (10,))):
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == sf.render(
            sf.mul(sf.schur(lam), sf.schur(mu))) + "\n"
    assert cli.main(["expand", "(s[2,1]-s[2,1])*s[1]^6"]) == 0
    assert capsys.readouterr().out == "0\n"
    assert time.monotonic() - start < 5


def test_kron_work_limit(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_WORK", _LOW_WORK)
    start = time.monotonic()
    _assert_refused(capsys, [
        ["expand", "kron(s[1]^16,s[1]^16)"],
        ["kron", "s[500]", "s[500]"],
    ], _LOW_WORK)
    assert time.monotonic() - start < 5
    monkeypatch.undo()
    # terms of unequal degree annihilate
    assert cli.main(["expand", "kron(s[3]+s[1],s[2,1]+s[2])"]) == 0
    assert capsys.readouterr().out == "s[2,1]\n"
    assert cli.main(["kron", "s[3]+s[1]", "s[2,1]+s[2]"]) == 0
    assert capsys.readouterr().out == "s[2,1]\n"
    assert cli.main(["expand", "kron(s[5],s[4])"]) == 0
    assert capsys.readouterr().out == "0\n"
    _assert_answers(capsys, [
        (["expand", "kron(s[1]^11,s[1]^11)"],
         "cc65b4e03e58d448136b186fbd45e61dfbc0d9f5ae470bb2f7ca278d092b8702"),
    ])


def test_apply_work_limit(capsys, monkeypatch):
    # every kind of step charges the meter as it works, D steps included
    monkeypatch.setattr(cli, "MAX_WORK", _LOW_WORK)
    start = time.monotonic()
    _assert_refused(capsys, [
        ["apply", "U(s[1]^10)", "s[1]^10"],
        ["apply", "K(s[1]^16)", "s[1]^16"],
        ["apply", "KB(s[1]^16)", "s[1]^16"],
        ["apply", "D[5,4,3,2,1]", f"s[{_staircase(11)}]"],
    ], _LOW_WORK)
    assert time.monotonic() - start < 5
    monkeypatch.undo()
    for argv, want in (
        (["U[15]", "s[10]"], sf.mul(sf.schur((15,)), sf.schur((10,)))),
        (["K[3]", "s[2,1]"], sf.schur((2, 1))),
        (["KB[2,1]", "s[3]"], -sf.schur((1, 1, 1))),
        (["K[2,1]", "s[2]"], sf.zero()),
        (["K[2,1]U[1]", "s[2]"],
         sf.kronecker(sf.schur((2, 1)), sf.mul(sf.schur((1,)), sf.schur((2,))))),
    ):
        assert cli.main(["apply"] + argv) == 0, argv
        assert capsys.readouterr().out == sf.render(want) + "\n"


def test_an_operator_index_with_row_factors_is_a_pieri_product(
        capsys, monkeypatch):
    # U(s[500]*s[500]) multiplies s[1] by each of the 501 terms of its
    # index: one Pieri table of the row (500) and 501 of the row (1), a few
    # strips each, and no LR filling of a shape of about 1,000 cells
    monkeypatch.setattr(cli, "MAX_WORK", _LOW_WORK)
    start = time.monotonic()
    assert cli.main(["apply", "U(s[500]*s[500])", "s[1]"]) == 0
    out = capsys.readouterr().out
    assert time.monotonic() - start < 5
    assert out.startswith("s[1001] + 2*s[1000,1] + 2*s[999,2] + s[999,1,1] + ")
    index = sf.linear_combination(
        (1, sf.schur((1000 - i, i))) for i in range(501))
    assert out == sf.render(sf.mul(index, sf.schur((1,)))) + "\n"


def test_partition_walk_limit(capsys, monkeypatch):
    # a p atom, a Kronecker coefficient or a character walks partitions of
    # its degree, and each partition visited is charged
    monkeypatch.setattr(cli, "MAX_WORK", _LOW_WORK)
    start = time.monotonic()
    _assert_refused(capsys, [
        ["expand", "p[100]"],
        ["expand", "s[1]*p[47]"],
        ["apply", "U(p[60])", "s[1]"],
        ["kroncoeff", "50,50", "50,50", "50,50"],
        ["char", "60,50,40,30,20,10", _ones(210)],
        ["char", "1200", _ones(1200)],
    ], _LOW_WORK)
    assert time.monotonic() - start < 5
    monkeypatch.undo()
    # a character at degree 46 answers: f^(23,23) is the Catalan number C_23
    assert cli.main(["char", "23,23", _ones(46)]) == 0
    assert capsys.readouterr().out == "343059613650\n"
    _assert_answers(capsys, [
        (["expand", "p[46]"],
         "14a101839dbaa761cf6f275580864b625ab4a4ce24a09e1784701fad5c0081a9"),
        (["expand", "p[40]"],
         "5117f57e7b2903bdb091bc62f7d4a2f2497fa2a91ac9c0c16bb155cdef8083be"),
        (["expand", "h[30]"],
         "80a6a3875e01c75cf75494742ae22b6ff20468484257dd9eeb05ca5e07179172"),
        (["expand", "e[28]"],
         "87885e5de22fb0eb8fda60229981e942c0b839e4f818704e344e187edd798abd"),
        (["skew", "45,30/1"],
         "3927c752cad4254218578fc39f2243833c09ddbc99f8dd297ca0bf497516e270"),
    ])


_NINES = "9" * 30


@pytest.mark.parametrize("argv", [
    ["skewlr", _NINES, "2"],
    ["skewlr", "2", _NINES],
    ["expand", f"p[{_NINES}]"],
], ids=["skewlr-outer", "skewlr-inner", "expand-p"])
def test_partition_cap_of_a_huge_size_is_charged_first(capsys, argv):
    # the partitions of a size n are bounded by a cap of n rows of n; the
    # budget must hold n units before that cap is built, so a size past any
    # index is refused by the budget instead of leaking an OverflowError
    _assert_refused(capsys, [argv], cli.MAX_WORK)


@pytest.mark.parametrize("argv", [
    ["expand", f"h[{_ones(990)}]"],
    ["expand", "e[999999999999]"],
    ["expand", f"e[{_NINES}]"],
], ids=["h-990-ones", "e-12-digits", "e-30-digits"])
def test_h_and_e_expansions_meet_the_budget(capsys, monkeypatch, argv):
    # h and e fold their parts in a loop, and e_k charges k before its
    # one-column factor is built: each is refused by the budget, not by
    # the recursion limit or a MemoryError
    monkeypatch.setattr(cli, "MAX_WORK", _LOW_WORK)
    start = time.monotonic()
    _assert_refused(capsys, [argv], _LOW_WORK)
    assert time.monotonic() - start < 5


@pytest.mark.parametrize("argv", [
    ["skew", f"{_NINES}/1"],
    ["skewpieri", "1", _NINES],
    ["skewcorners", _NINES, "4"],
], ids=["skew", "skewpieri", "skewcorners"])
def test_huge_skew_shapes_meet_the_budget_before_their_cells(
        capsys, monkeypatch, argv):
    # each reaches the skew table of a shape of about 10^30 cells, which
    # asks the budget for its size before it lists the cells
    monkeypatch.setattr(cli, "MAX_WORK", _LOW_WORK)
    start = time.monotonic()
    _assert_refused(capsys, [argv], _LOW_WORK)
    assert time.monotonic() - start < 5


def test_a_huge_row_is_its_one_pieri_strip(capsys, monkeypatch):
    # h_N is the product of s_(N) with 1, the one horizontal N-strip on the
    # empty partition: no skew shape of N cells is built, so it answers
    # exactly under a low budget however large N is
    monkeypatch.setattr(cli, "MAX_WORK", _LOW_WORK)
    start = time.monotonic()
    assert cli.main(["expand", f"h[{_NINES}]"]) == 0
    assert capsys.readouterr() == (f"s[{_NINES}]\n", "")
    assert time.monotonic() - start < 5


def test_lrcoeff_of_a_huge_shape_is_refused_before_its_cells(
        capsys, monkeypatch):
    # the reading order asks the budget for the filler's first charge
    # before it lists a cell, so none of the 100,000 cells is interned
    monkeypatch.setattr(cli, "MAX_WORK", _LOW_WORK)
    cells = tb._cell.cache_info().currsize
    start = time.monotonic()
    _assert_refused(capsys, [["lrcoeff", "100000", "0", "100000"]], _LOW_WORK)
    assert time.monotonic() - start < 5
    assert tb._cell.cache_info().currsize == cells


def test_sub_partitions_of_a_long_row_ask_the_budget_first(capsys, monkeypatch):
    # the sub-partitions of a row of 50M cells are one per size: the budget
    # is asked for their count before the first is listed
    monkeypatch.setattr(cli, "MAX_WORK", _LOW_WORK)
    interned = len(pt._INTERNED)
    start = time.monotonic()
    _assert_refused(capsys, [["skewlr", "1", "50000000/49999999"]], _LOW_WORK)
    assert time.monotonic() - start < 1
    assert len(pt._INTERNED) == interned


def test_tableau_rules_exit_2_under_the_work_budget(capsys, monkeypatch):
    # skew shapes, skew Pieri strips and skew LR fillings have no a-priori
    # estimate; the fillings and partitions they enumerate are charged
    monkeypatch.setattr(cli, "MAX_WORK", _LOW_WORK)
    start = time.monotonic()
    stair = f"{_staircase(8)}/4,3,2,1"
    _assert_refused(capsys, [
        ["skew", f"{_staircase(11)}/5,4,3,2,1"],
        ["expand", f"sk[{_staircase(11)}/5,4,3,2,1]"],
        ["skewpieri", "300", "50,40,30,20,10/5"],
        ["skewlr", "1/0", "40,30,20,10/30,20,10,5"],
        ["skewlr", stair, stair],
    ], _LOW_WORK)
    assert time.monotonic() - start < 5


def test_work_budget_is_restored_and_verify_is_unmetered(capsys, monkeypatch):
    assert _work._left is None
    monkeypatch.setattr(cli, "MAX_WORK", 0)
    # a product that no other test computes: its table is a memo miss
    _assert_refused(capsys, [["expand", "s[31,17]*s[2]"]], 0)
    # a refused command leaves the library unmetered
    assert _work._left is None
    assert len(sf.mul(sf.schur((31, 17)), sf.schur((2,))).terms) == 6
    # `verify` is bounded by its own --max-ab and --max-g; this entry
    # enumerates sub-partitions, which charge even when the tables are warm
    assert cli.main(["verify", "thm_main_1", "--max-ab", "2", "--max-g", "2"]) == 0
    assert "thm_main_1: PASS" in capsys.readouterr().out


def test_verify_is_unmetered_when_sub_partitions_are_cold(capsys, monkeypatch):
    # sub_partitions is memoized, so it charges only on a cold entry: clear
    # it, so that a metered verify would be refused at a budget of 0, and
    # the catalog's own memos, whose warm term lists would not reach it
    monkeypatch.setattr(cli, "MAX_WORK", 0)
    pt._sub_partitions.cache_clear()
    for memo in vars(idn).values():
        if hasattr(memo, "cache_clear"):
            memo.cache_clear()
    assert cli.main(["verify", "thm_main_1", "--max-ab", "2", "--max-g", "2"]) == 0
    assert "thm_main_1: PASS" in capsys.readouterr().out
    assert pt._sub_partitions.cache_info().misses > 0


@pytest.mark.parametrize("argv, units", [
    (["expand", "kron(s[2,1],s[2,1])*p[2]+h[2]"], 113),
    (["skewlr", "2,1/1", "2,1/1"], 349),
], ids=["expand", "skewlr"])
def test_work_charge_is_deterministic(argv, units):
    # in a fresh process every memo table is cold, so a command charges the
    # same units on every run: it answers at exactly that budget and is
    # refused one unit below it
    src = os.path.dirname(os.path.dirname(symop.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = ("import sys; from symop import cli; "
              "cli.MAX_WORK = int(sys.argv[1]); sys.exit(cli.main(sys.argv[2:]))")
    results = []
    for budget in (units, units - 1):
        results.append(subprocess.run(
            [sys.executable, "-c", script, str(budget), *argv],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": path},
        ))
    fit, short = results
    assert fit.returncode == 0 and fit.stderr == ""
    assert fit.stdout.startswith("s[")
    assert short.returncode == 2 and short.stdout == ""
    assert short.stderr == (
        f"symop: error: the computation exceeds the work budget of "
        f"{units - 1} units\n"
    )


def test_power_matches_product_through_p_basis(capsys):
    assert cli.main(["expand", "(s[2,1]+s[3])^4"]) == 0
    base = sf.to_basis(sf.add(sf.schur((2, 1)), sf.schur((3,))), "p")
    want = sf.to_basis(sf.mul(sf.mul(base, base), sf.mul(base, base)), "s")
    out = capsys.readouterr().out
    assert out == sf.render(want) + "\n"
    assert out.startswith("s[12] + 7*s[11,1] + 24*s[10,2] + 21*s[10,1,1] + ")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "0671af1c6a5fd729a5f41c555045ccd1fe646ab15027c390fec7a50fcd5b861b"


def test_usage_errors_exit_2(capsys):
    assert cli.main(["expand", "s[1,2]"]) == 2
    assert "weakly decreasing" in capsys.readouterr().err
    assert cli.main(["expand", "s[2,1"]) == 2
    capsys.readouterr()
    assert cli.main(["lrcoeff", "1,2", "1", "1"]) == 2
    capsys.readouterr()
    assert cli.main(["no_such_command"]) == 2
    capsys.readouterr()
    # an empty operator list is a usage error like any other
    for ops in (";", " ; ;"):
        assert cli.main(["rank", ops]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "symop: error: no operator expressions given\n"


def test_deep_nesting_exits_2(capsys):
    nested = "(" * 3000 + "1" + ")" * 3000
    for argv in (["expand", nested], ["apply", "Id", nested],
                 ["apply", "(" * 3000 + "Id" + ")" * 3000, "s[1]"]):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "symop: error: expression nested too deeply\n"


def test_flat_chains_are_folded_without_recursion(capsys):
    # the parser folds '+', '-' and '*' chains in its loops as it reads
    # them, so no chain recurses per term, however long
    n = 3000
    for flat, want in (("+".join(["s[1]"] * n), f"{n}*s[1]"),
                       ("s[1]" + "-s[1]+s[1]" * n, "s[1]"),
                       ("*".join(["1"] * n) + "*s[1]", "s[1]"),
                       ("+".join(["2*s[1]*s[1]"] * n),
                        cli.evaluate_text(f"{2 * n}*s[1]^2"))):
        assert cli.main(["expand", flat]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == f"{want}\n"
    assert cli.main(["expand", f"{n}*s[1]"]) == 0
    assert capsys.readouterr().out == f"{n}*s[1]\n"
    assert cli.main(["apply", "+".join(["U[1]"] * n), "s[1]"]) == 0
    assert capsys.readouterr().out == f"{n}*s[2] + {n}*s[1,1]\n"


def test_constants_beyond_the_printable_digits_are_refused(capsys):
    # a sum, product or literal with more digits than Python converts to
    # text is refused with one line, like a power, not CPython's message
    limit = sys.get_int_max_str_digits()
    big = "9" * limit
    for expr, what, digits in (
        ("2^4000*2^4000*2^4000*2^4000", "coefficient", 4817),
        ("2^4000*s[1]*2^4000*2^4000*2^4000", "coefficient", 4817),
        (f"{big} + 1", "coefficient", limit + 1),
        (f"kron({big}*s[1], {big}*s[1])", "coefficient", 2 * limit),
        (f"({big}*s[1] + s[2])^2", "coefficient", 2 * limit),
        (big + "9", "number", limit + 1),
    ):
        assert cli.main(["expand", expr]) == 2, expr
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"symop: error: {what} of {digits} digits exceeds the limit of "
            f"{limit} digits\n"
        ), expr
        assert "set_int_max_str_digits" not in captured.err
    # up to the limit the constants are printed
    for expr, want in (("2^4000*2^4000*2^4000", f"{2**12000}*s[0]"),
                       (big, f"{big}*s[0]"),
                       (f"{big} - {big}", "0")):
        assert cli.main(["expand", expr]) == 0
        assert capsys.readouterr().out == want + "\n"


def _operator_digit_cases(limit):
    """(operator, input, digits) triples whose coefficients exceed Python's
    digit limit: in a composition, a scaling, a denominator, or only in the
    image."""
    big = "9" * limit
    return (
        (f"({big} U[1])({big} U[1])", "s[1]", 2 * limit),
        (f"{big} ({big} U[1] + D[1])", "s[1]", 2 * limit),
        (f"(1/{big} U[1]) - (1/{big} U[1])(1/{big} D[1])", "s[1]", 2 * limit),
        (f"{big} U[1]U[1]U[1]", "1", limit + 1),
    )


def test_apply_refuses_operator_coefficients_past_the_digit_limit(capsys):
    # refused with one line and nothing on stdout, not CPython's message
    limit = sys.get_int_max_str_digits()
    for expr, g, digits in _operator_digit_cases(limit):
        assert cli.main(["apply", expr, g]) == 2, expr
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"symop: error: coefficient of {digits} digits exceeds the limit "
            f"of {limit} digits\n"
        ), expr
    big = "9" * limit
    assert cli.main(["apply", f"{big} U[1]", f"{big}*s[1] - {big}*s[1]"]) == 0
    assert capsys.readouterr().out == "0\n"
    assert cli.main(["apply", f"{big} U[1]", "s[1]"]) == 0
    assert capsys.readouterr().out == f"{big}*s[2] + {big}*s[1,1]\n"


def test_matrix_refuses_operator_coefficients_past_the_digit_limit(capsys):
    # the whole matrix is checked and rendered before a line is printed
    limit = sys.get_int_max_str_digits()
    for expr, _g, digits in _operator_digit_cases(limit):
        for fmt in ("text", "json"):
            argv = ["matrix", expr, "--max-deg", "1", "--format", fmt]
            assert cli.main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"symop: error: coefficient of {digits} digits exceeds the "
                f"limit of {limit} digits\n"
            ), argv
    big = "9" * limit
    assert cli.main(["matrix", f"{big} U[1]", "--max-deg", "0"]) == 0
    assert capsys.readouterr().out == f"cols: 0\n0: 0\n1: {big}\n"


def test_recursion_over_input_size_is_not_called_nesting(capsys):
    # mn_character walks the parts of rho on its own stack, so a class of
    # 1,000 parts or more answers
    for argv in (["char", "1200", _ones(1200)],
                 ["char", "2000", ",".join(["2"] * 1000)]):
        assert cli.main(argv) == 0
        assert capsys.readouterr() == ("1\n", "")
    # JSON nested past the recursion limit is a malformed tableau
    assert cli.main(["jdt", "[" * 5000 + "]" * 5000]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "symop: error: bad tableau JSON: nested too deeply\n")
    # the tableau filler keeps its own stack, so a product of 1,000 cells
    # whose factors are neither rows nor columns answers under the real
    # budget
    assert cli.main(["expand", "s[499,1]*s[499,1]"]) == 0
    terms = capsys.readouterr().out.rstrip("\n").split(" + ")
    assert len(terms) == 1995
    assert terms[0] == "s[998,2]" and terms[-1] == "s[499,499,1,1]"
    # the partition families keep no stack either, so the skew rules run
    # over a column of 1,200 cells like the product they expand
    col1, col2 = ",".join(["1"] * 1200), ",".join(["2"] * 1200)
    for argv, expr in ((["skewpieri", "1", col1], f"s[1]*s[{col1}]"),
                       (["skewlr", "1", f"{col2}/{col1}"],
                        f"s[1]*sk[{col2}/{col1}]")):
        assert cli.main(argv) == 0
        got = capsys.readouterr().out
        assert cli.main(["expand", expr]) == 0
        assert got == capsys.readouterr().out != "0\n", argv


def test_negative_max_deg_rejected(capsys):
    for argv in (["matrix", "U[1]"], ["rank", "U[1]"]):
        assert cli.main(argv + ["--max-deg", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --max-deg" in captured.err
        assert cli.main(argv + ["--max-deg", "0"]) == 0
        capsys.readouterr()


def test_long_words_run_under_the_work_budget(capsys, monkeypatch):
    # each step of a word that meets several pairs is charged, so a long
    # word whose value spreads over many terms is refused by the budget
    # whether it is applied, truncated to a matrix or ranked
    word = "D[1]U[1]" * 500
    monkeypatch.setattr(cli, "MAX_WORK", _LOW_WORK)
    start = time.monotonic()
    _assert_refused(capsys, [
        ["apply", word, "s[6,5,4,3,2,1]"],
        ["matrix", word, "--max-deg", "6"],
        ["rank", f"{word};{word}", "--max-deg", "20"],
    ], _LOW_WORK)
    assert time.monotonic() - start < 5


def test_truncations_run_under_the_work_budget(capsys, monkeypatch):
    # `matrix` charges its dense entries before it allocates them and
    # `rank` its image terms, so a huge truncation is refused by the budget
    monkeypatch.setattr(cli, "MAX_WORK", _LOW_WORK)
    start = time.monotonic()
    _assert_refused(capsys, [
        ["matrix", "U[1]", "--max-deg", "40"],
        ["rank", "U[1];U[1]", "--max-deg", "40"],
    ], _LOW_WORK)
    assert time.monotonic() - start < 5
    monkeypatch.undo()
    # a family at full rank on the first basis vectors pays nothing for
    # the bound
    start = time.monotonic()
    assert cli.main(["rank", "U[1]", "--max-deg", "40"]) == 0
    assert capsys.readouterr().out == "rank 1 of 1: independent\n"
    assert time.monotonic() - start < 1
    for ops in ("Id;U[2]", "Id;D[1]U[1]"):
        assert cli.main(["rank", ops, "--max-deg", "15"]) == 0
        assert capsys.readouterr().out == "rank 2 of 2: independent\n"


# The grammar fuzzer: random command lines of every subcommand, with small,
# huge and malformed numbers wherever the grammar takes one.
_FUZZ_HUGE = ("999999999999", _NINES, "9" * 4400)
_FUZZ_MALFORMED = ("-1", "1.5", "1e3", "", " ", "+3", "1_0", "0x1", "\u00b2",
                   "\u0663", "nan", "2,")


def _fuzz_number(rng):
    r = rng.random()
    if r < 0.9:
        return str(rng.randint(0, 5))
    return rng.choice(_FUZZ_HUGE if r < 0.95 else _FUZZ_MALFORMED)


def _by_size(parts):
    """Digit strings sorted decreasing by their value; others first."""
    return sorted(parts, key=lambda x: (x.isdigit(), len(x), x), reverse=True)


def _fuzz_parts(rng):
    """Mostly a partition: weakly decreasing numbers, one of them at times
    huge or malformed."""
    parts = [_fuzz_number(rng) for _ in range(rng.randint(1, 4))]
    return ",".join(_by_size(parts) if rng.random() < 0.85 else parts)


def _fuzz_skew(rng):
    outer = _fuzz_parts(rng)
    r = rng.random()
    if r < 0.4:
        return outer
    if r < 0.7:
        return f"{outer}/{_fuzz_parts(rng)}"
    # some parts of outer and zeros, sorted: an inner shape that fits
    inner = _by_size(rng.choice(("0", x)) for x in outer.split(","))
    return f"{outer}/{','.join(inner)}"


def _fuzz_expr(rng, depth=0):
    r = rng.random()
    if depth > 2 or r < 0.45:
        r = rng.random()
        if r < 0.6:
            return f"{rng.choice('sshep')}[{_fuzz_parts(rng)}]"
        if r < 0.75:
            return f"sk[{_fuzz_skew(rng)}]"
        if r < 0.9:
            return _fuzz_number(rng)
        return f"{_fuzz_number(rng)}/{_fuzz_number(rng)}"
    if r < 0.55:
        return f"kron({_fuzz_expr(rng, depth + 1)},{_fuzz_expr(rng, depth + 1)})"
    if r < 0.65:
        return f"-({_fuzz_expr(rng, depth + 1)})"
    if r < 0.75:
        return f"({_fuzz_expr(rng, depth + 1)})^{_fuzz_number(rng)}"
    return rng.choice("+-*").join(
        _fuzz_expr(rng, depth + 1) for _ in range(rng.randint(2, 3)))


def _fuzz_op(rng, depth=0):
    r = rng.random()
    if r < 0.15:
        return "Id"
    letter = rng.choice(("U", "D", "K", "KB"))
    if depth > 1 or r < 0.6:
        return f"{letter}[{_fuzz_parts(rng)}]"
    if r < 0.7:
        return f"{letter}({_fuzz_expr(rng, 2)})"
    if r < 0.8:
        return f"{_fuzz_number(rng)}*({_fuzz_op(rng, depth + 1)})"
    return rng.choice(("", "", "+", "-")).join(
        _fuzz_op(rng, depth + 1) for _ in range(rng.randint(2, 3)))


def _fuzz_tableau(rng):
    """A tableau JSON: the filling of a skew shape by row numbers, which is
    semistandard, and up to two holes, at times out of place or malformed."""
    shape = pt.parse_skew(f"{rng.randint(1, 4)},{rng.randint(0, 1)}/"
                          f"{rng.randint(0, 1)}")
    entries = [[r, c, r + 1] for r, c in shape.cells()]
    holes = [[rng.randint(0, 2), rng.randint(0, 4)]
             for _ in range(rng.randint(0, 2))]
    if entries + holes and rng.random() < 0.3:
        rng.choice(entries + holes)[rng.randint(0, 1)] = rng.choice(
            (-1, 10**30, 1.5, 1e308, "1", None))
    text = json.dumps({"shape": str(shape), "entries": entries,
                       "holes": holes})
    return rng.choice((text,) * 8 + (text[:-1], "[1]"))


def _fuzz_deep_expr(rng):
    """An expression nested near the recursion limit: in parentheses, four
    rules of the parser a level, or behind a chain of '-' signs."""
    limit = sys.getrecursionlimit()
    if rng.random() < 0.5:
        depth = limit // 4 + rng.randint(-50, 50)
        return "(" * depth + _fuzz_expr(rng) + ")" * depth
    # a leading space, or argparse would read '--' as an option
    return " " + "-" * rng.randint(limit - 50, limit + 50) + _fuzz_expr(rng)


def _fuzz_long_class(rng):
    """A shape of n and a class of n or n/2 parts, n from 1,000 to 1,500."""
    n = 2 * rng.randint(500, 750)
    return [rng.choice((str(n), _ones(n), f"{n - 2},2")),
            rng.choice((_ones(n), ",".join(["2"] * (n // 2))))]


def _fuzz_argv(rng):
    """One random command line; an argument that begins with '-' gets a
    leading space, since argparse would read it as an option.  At times
    the input of `expand`, `char`, `apply` or `jdt` is long or nested
    near the recursion limit instead."""
    cmd = rng.choice(("expand", "kron", "skew", "lrcoeff", "kroncoeff",
                      "char", "verify", "skewlr", "skewpieri",
                      "skewcorners", "matrix", "rank", "apply", "jdt"))
    degree = str(rng.choice((0, 1, 2, 3, 4, 40, 999999999999)))
    same = _fuzz_parts(rng)
    deep = rng.random() < 0.1
    args = {
        "expand": lambda: [_fuzz_deep_expr(rng) if deep else _fuzz_expr(rng)],
        "kron": lambda: [_fuzz_expr(rng), _fuzz_expr(rng)],
        "skew": lambda: [_fuzz_skew(rng)],
        "lrcoeff": lambda: [_fuzz_parts(rng) for _ in range(3)],
        # at times one partition more than once, so that sizes agree
        "kroncoeff": lambda: [same] + [rng.choice((same, _fuzz_parts(rng)))
                                       for _ in range(2)],
        "char": lambda: _fuzz_long_class(rng) if deep else [
            same, rng.choice((same, _fuzz_parts(rng)))],
        "verify": lambda: [rng.choice((*idn.CATALOG, "all", "nope")),
                           "--max-ab", str(rng.randint(0, 2)),
                           "--max-g", str(rng.randint(0, 3))],
        "skewlr": lambda: [_fuzz_skew(rng), _fuzz_skew(rng)]
        + ["--terms"] * rng.randint(0, 1),
        "skewpieri": lambda: [rng.choice(("0", "1", "3", *_FUZZ_HUGE[:2])),
                              _fuzz_skew(rng)]
        + ["--terms"] * rng.randint(0, 1),
        "skewcorners": lambda: [_fuzz_parts(rng), _fuzz_parts(rng)],
        "matrix": lambda: [_fuzz_op(rng), "--max-deg", degree],
        "rank": lambda: [";".join(_fuzz_op(rng)
                                  for _ in range(rng.randint(1, 3))),
                         "--max-deg", degree],
        "apply": lambda: [f"U({_fuzz_deep_expr(rng)})" if deep
                          else _fuzz_op(rng), _fuzz_expr(rng)],
        "jdt": lambda: ["[" * 5000 + "]" * 5000 if deep
                        else _fuzz_tableau(rng)],
    }[cmd]()
    args = [" " + a if a.startswith("-") and not a.startswith("--") else a
            for a in args]
    return [cmd, *args] + ["--format", "json"] * rng.randint(0, 1)


class _FuzzTimeout(Exception):
    pass


def _fuzz_case(capsys, argv):
    """Run one command line under a 5 s alarm: it must exit 0, or exit 2
    with one `symop: error:` line and nothing on stdout."""
    def expire(signum, frame):
        raise _FuzzTimeout(argv)

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(5)
    try:
        code = cli.main(argv)
    except Exception as exc:  # a leaked traceback, or the alarm
        pytest.fail(f"{argv}: {exc!r}")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    out, err = capsys.readouterr()
    if code == 0:
        assert err == "", argv
    else:
        assert code == 2, (argv, code)
        assert out == "", argv
        assert err.startswith("symop: error: ") and err.count("\n") == 1, (
            argv, err)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fuzzed_command_lines_answer_or_exit_2(capsys, monkeypatch, seed):
    # no traceback and no hang: a budget low enough that each case ends
    # within hundredths of a second, `verify` at bounds up to (2,3)
    monkeypatch.setattr(cli, "MAX_WORK", _LOW_WORK)
    rng = random.Random(seed)
    for _ in range(100):
        _fuzz_case(capsys, _fuzz_argv(rng))


def _random_symfunc(rng):
    basis = rng.choice("shep")
    terms = {}
    for _ in range(rng.randint(1, 5)):
        lam = rng.choice(pt.partitions_upto(6))
        coef = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        terms[lam] = terms.get(lam, 0) + coef
    return sf.SymFunc(basis, terms)


def test_parse_render_identity_on_random_values():
    rng = random.Random(20240517)
    for _ in range(100):
        f = _random_symfunc(rng)
        back = cli.evaluate_text(sf.render(f))
        assert back == sf.to_basis(f, "s")


def test_json_round_trip_on_random_values():
    rng = random.Random(99)
    for _ in range(50):
        f = _random_symfunc(rng)
        assert sf.from_json(json.loads(json.dumps(sf.to_json(f)))) == f


def _readme_cli_lines():
    """The `symop` command lines of the README's command-line block, split
    with shlex (comments dropped, the program name stripped)."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        blocks = re.findall(r"```sh\n(.*?)```", fh.read(), re.S)
    lines = [shlex.split(line, comments=True) for block in blocks
             for line in block.splitlines() if line.startswith("symop ")]
    return [argv[1:] for argv in lines]


def test_readme_cli_examples_print_the_same_bytes(capsys):
    # every README example, in text and in JSON: its exit code, stdout and
    # stderr, with the elapsed-time fields of `verify` masked out
    lines = _readme_cli_lines()
    assert len(lines) == 15
    digest = hashlib.sha256()
    for argv in lines:
        for fmt in ([], ["--format", "json"]):
            code = cli.main(argv + fmt)
            got = capsys.readouterr()
            text = f"{argv} {fmt} {code}\n{got.out}\n{got.err}\n"
            text = re.sub(r"\d+\.\d\ds\)", "s)", text)
            text = re.sub(r'"elapsed": [0-9.e-]+', '"elapsed": 0', text)
            digest.update(text.encode())
    assert digest.hexdigest() == (
        "3281c886bf074751af65ecf5e94cf2ad733da575fb2955d82661a69d24c98a39"
    )
