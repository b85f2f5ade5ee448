import argparse
import contextlib
import dataclasses
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import catlin.boundary as boundary
import catlin.weights as weights
from catlin import cli
from catlin import poly as poly_module
from catlin.cli import main
from catlin.exact import CRat
from catlin.levi import psd_verdict, replay_refutation
from catlin.parser import parse_poly
from catlin.poly import Poly, PolyError

from helpers import MANY_SPLITTINGS, workload_argvs
from test_golden import CASES as GOLDEN_CASES, GOLDEN


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_human(capsys):
    code, out, _ = run_cli(capsys, "parse", "--expr", "|z2|^4", "--n", "2")
    assert code == 0
    assert "|z2|^4" in out


def test_parse_json_round_trip(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "parse", "--expr",
                           "-2*Re(z1) + |z2|^8 + |z2|^4*|z3|^6", "--n", "3",
                           "--json")
    assert code == 0
    blob = json.loads(out)
    p = Poly.from_json_dict(blob)
    # feed the JSON back through a file input
    path = tmp_path / "model.json"
    path.write_text(json.dumps(blob))
    code2, out2, _ = run_cli(capsys, "parse", str(path), "--json")
    assert code2 == 0
    assert json.loads(out2) == blob
    assert Poly.from_json_dict(json.loads(out2)) == p


def test_expr_value_starting_with_minus(capsys):
    code, out, _ = run_cli(capsys, "parse", "--expr", "-2*Re(z1)", "--n", "2",
                           "--json")
    assert code == 0
    assert Poly.from_json_dict(json.loads(out)) == \
        Poly.monomial(2, (1, 0), (0, 0), -1) + Poly.monomial(2, (0, 0), (1, 0), -1)


def test_parse_error_exit_code(capsys):
    code, _out, err = run_cli(capsys, "parse", "--expr", "z2^2 +", "--n", "2")
    assert code == 2
    assert "error" in err


def test_non_real_exit_code(capsys):
    code, _out, err = run_cli(capsys, "parse", "--expr", "z2^2", "--n", "2")
    assert code == 2
    assert "real" in err


def test_multitype_exact_flag(capsys):
    code, out, _ = run_cli(capsys, "multitype", "--expr",
                           "-2*Re(z1) + |z2|^8 + |z2|^4*|z3|^6", "--n", "3")
    assert code == 0
    assert "(1, 8, 12)" in out
    assert "exact-commutator" in out


def test_multitype_commutator_gap(capsys):
    code, out, _ = run_cli(capsys, "multitype", "--expr",
                           "Re(z1) + (Re(z2) + |z3|^2)^2", "--n", "3",
                           "--commutator")
    assert code == 0
    assert "search: (1, 2, 4)" in out
    assert "commutator: (1, 2, inf)" in out


SHEAR_5 = "-2*Re(z1) + |z2 + z3^5|^2 + |z3|^12"


def test_multitype_finds_a_shear_of_degree_5(capsys):
    # the catalog reaches z3^5 because z3 has exponent 6 in the model
    code, out, _ = run_cli(capsys, "multitype", "--json", "--n", "3",
                           "--expr", SHEAR_5)
    assert code == 0
    d = json.loads(out)
    assert d["lambda"] == ["1", "2", "12"]
    assert d["status"] == "exact-commutator"
    assert d["witness"]["changes"] == ["shear z2 += -1*z3^5"]
    # normalize keeps the input coordinates, where z3^5 zbar2 weighs 1/2 +
    # 5/12 < 1 under the automatic weight; the weight of those coordinates
    # is accepted
    assert run_cli(capsys, "normalize", "--n", "3", "--expr", SHEAR_5) == (
        2, "", "error: input has terms of weight below 1; not O_mu(1)\n")
    assert run_cli(capsys, "normalize", "--n", "3", "--expr", SHEAR_5,
                   "--weight", "1,1/2,1/10") == (
        0, "weight: (1, 1/2, 1/10)\nK: [[1], [0, 5]]\nA: [1, 1]\n"
        "residual: 2*Re(z2*zbar3^5)\nverified: True\n", "")


def test_multitype_drops_the_commutator_the_build_refuses(capsys):
    # the boundary build refuses this model (its r_3 has terms above the
    # exact degree), and multitype then reports the search alone, silently
    expr = "-2*Re(z1) + |z2|^4 + |z2|^2*|z3|^2 + |z3|^2"
    code, out, _ = run_cli(capsys, "multitype", "--json", "--expr", expr,
                           "--n", "3")
    assert code == 0
    d = json.loads(out)
    assert d["lambda"] == ["1", "2", "4"]
    assert d["status"] == "search-lower-bound"
    assert "commutator" not in d
    code, _out, err = run_cli(capsys, "boundary-system", "--expr", expr,
                              "--n", "3")
    assert code == 2
    assert "slot 3: r_3 has terms above degree 5" in err


def test_psd_certified(capsys):
    code, out, _ = run_cli(capsys, "psd", "--expr", "|z2|^2 + |z3|^2",
                           "--n", "3")
    assert code == 0
    assert "CertifiedPSD" in out


def test_psd_refuted_json(capsys):
    code, out, _ = run_cli(capsys, "psd", "--expr", "2*Re(z2^2*zbar3^3)",
                           "--n", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "Refuted"
    assert payload["witness"]["value"].startswith("-")


def test_psd_rejects_input_that_is_not_a_model(capsys):
    # z1 beyond a linear head: not c * Re z1 + p, so no verdict about p
    code, out, err = run_cli(capsys, "psd", "--expr",
                             "|z1|^2*|z2|^2 - |z1|^4", "--n", "2")
    assert code == 2
    assert out == ""
    assert "z1" in err


def test_psd_model_head_is_split_off(capsys):
    code, out, _ = run_cli(capsys, "psd", "--expr", "-2*Re(z1) + |z2|^4",
                           "--n", "2", "--json")
    assert code == 0
    assert json.loads(out)["kind"] == "CertifiedPSD"


def test_psd_unknown_require_certificate(capsys):
    code, out, _ = run_cli(capsys, "psd", "--expr", "(Re(z2))^2", "--n", "2",
                           "--require-certificate", "--samples", "20")
    assert code == 4


@pytest.mark.parametrize("expr, n, line", [
    ("|z2|^4 + |z3|^6 + 2*(9/10)*Re(z2^2*zbar3^3)", 3,
     "CertifiedPSD (tier 1)"),
    ("2*Re(z2^2*zbar3^3)", 3, "Refuted witness value -3"),
    ("(Re(z2))^2", 2, "Unknown after 20 random points"),
])
def test_psd_human_line(capsys, expr, n, line):
    # an Unknown verdict counts random points, as samples_tried does
    code, out, err = run_cli(capsys, "psd", "--samples", "20", "--n", str(n),
                             "--expr", expr)
    assert (code, out, err) == (0, line + "\n", "")


def test_normalize_weighted_model(capsys):
    code, out, _ = run_cli(capsys, "normalize", "--expr",
                           "-2*Re(z1) + |z2|^8 + |z2|^4*|z3|^6", "--n", "3")
    assert code == 0
    assert "K: [[4], [2, 3]]" in out
    assert "A: [1, 1]" in out
    assert "verified: True" in out


def test_normalize_contradiction_exit_code(capsys):
    code, _out, err = run_cli(capsys, "normalize", "--expr",
                              "-2*Re(z1) + 2*Re(z2^2*zbar3^3)", "--n", "3",
                              "--assert-psc")
    assert code == 3
    assert "contradiction" in err


def test_normalize_slot_2_contradiction_message(capsys):
    # the block direction z3 -> z2 + z3 gives the z2 restriction
    # (1/4)(z2^2 zbar2^3 + z2^3 zbar2^2), of odd degree 5
    code, out, err = run_cli(capsys, "normalize", "--assert-psc", "--n", "3",
                             "--expr",
                             "-2*Re(z1) + 2*(1/4)*Re(z2^2*zbar3^3)")
    assert code == 3 and out == ""
    assert err == ("pseudoconvexity contradiction: slot 2: top degree 5 in "
                   "(z_2, zbar_2) is odd\n")


def test_normalize_slot_2_bound_in_canonical_order(capsys):
    # one polynomial, its off-balanced pair written in either order: both
    # terms break |C| < k22*C20, and the reports follow the term order
    outputs = []
    for term in ("Re(z2^3*zbar2)", "Re(zbar2^3*z2)"):
        argv = ["normalize", "--n", "2", "--weight", "1,1/4", "--expr",
                f"-2*Re(z1) + |z2|^4 + 2*(2)*{term}"]
        human = run_cli(capsys, *argv)
        blob = run_cli(capsys, *argv, "--json")
        refused = run_cli(capsys, *argv, "--assert-psc")
        assert refused[0] == 3 and refused[1] == ""
        outputs.append((human, blob, refused))
    assert outputs[0] == outputs[1]
    assert outputs[0][2][2] == (
        "pseudoconvexity contradiction: coefficient bound |C| < k22*C20 "
        "violated at ((0, 1), (0, 3))\n")


def test_normalize_assert_psc_refutes_indefinite_model(capsys):
    # |w2|^2 + |w3|^2 + 3 Re(w2 conj w3) with w = z^2: every extracted row is
    # positive, but the Levi form is indefinite (`catlin psd` finds -5, the
    # first negative pivot of the Levi matrix at z = (0, 1, 1))
    expr = "-2*Re(z1) + |z2|^4 + |z3|^4 + 2*(3/2)*Re(z2^2*zbar3^2)"
    code, out, err = run_cli(capsys, "normalize", "--expr", expr, "--n", "3",
                             "--assert-psc")
    assert code == 3
    assert out == ""
    assert "not plurisubharmonic" in err
    witness = json.loads(err.split("witness ", 1)[1])
    assert witness == {"z": [{"re": "0", "im": "0"}, {"re": "1", "im": "0"},
                             {"re": "1", "im": "0"}],
                       "a": [{"re": "-3/2", "im": "0"}, {"re": "1", "im": "0"}],
                       "value": "-5"}
    assert replay_refutation(parse_poly(expr, 3).restrict_support(range(2, 4)),
                             witness) == -5
    code, out, _ = run_cli(capsys, "normalize", "--expr", expr, "--n", "3")
    assert code == 0
    assert "verified: True" in out
    # a pseudoconvex coefficient still verifies under --assert-psc
    code, out, _ = run_cli(capsys, "normalize", "--expr",
                           expr.replace("(3/2)", "(1/2)"), "--n", "3",
                           "--assert-psc")
    assert code == 0
    assert "verified: True" in out


def test_normalize_explicit_weight(capsys):
    code, out, _ = run_cli(capsys, "normalize", "--expr",
                           "-2*Re(z1) + (Re(z2))^2", "--n", "2",
                           "--weight", "1,1/2")
    assert code == 0
    assert "A: [1/2]" in out


def test_normalize_shears_a_three_variable_block(capsys):
    # z2*z4 - z3^2 vanishes along every direction (1, t, t^2): the block
    # change must shear z4 alone, z4 -> z4 + z2
    code, out, _ = run_cli(capsys, "normalize", "--json", "--expr",
                           "-2*Re(z1) + |z2*z4 - z3^2|^2", "--n", "4",
                           "--weight", "1,1/4,1/4,1/4")
    assert code == 0
    d = json.loads(out)
    assert d["verified"]
    assert [row["k"] for row in d["rows"]] == [[2], [0, 2], [1, 0, 1]]
    z4 = [(t["alpha"], t["re"], t["im"])
          for t in d["transform"]["maps"][3]["terms"]]
    assert z4 == [([0, 0, 0, 1], "1", "0"), ([0, 1, 0, 0], "1", "0")]


def test_normalize_leaves_rows_unrealized_without_lower_weight(capsys):
    # slot 3 degenerates, and no weight below (1, 1/4, 1/8, 0) supports the
    # model: the rows from slot 3 on stay unrealized, and the verifier
    # skips them
    code, out, _ = run_cli(capsys, "normalize", "--expr",
                           "-2*Re(z1) + |z2|^4 + |z2|^4*|z4|^2", "--n", "4",
                           "--weight", "1,1/4,1/8,0")
    assert code == 0
    assert "K: [[2]]" in out
    assert "verified: True" in out
    assert ("warning: slot 3: restriction vanishes and no lower supporting "
            "weight exists; remaining rows unrealized") in out


def test_boundary_system_json(capsys):
    code, out, _ = run_cli(capsys, "boundary-system", "--expr",
                           "Re(z1) + (Re(z2) + |z3|^2)^2", "--n", "3",
                           "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["c"] == ["1", "2", "inf"]
    assert payload["audit"] == []


def test_torsion_command(capsys):
    code, out, _ = run_cli(
        capsys, "torsion", "--expr",
        "-2*Re(z1) + |z2|^6 + |z2|^2*|z3|^6 + |z2|^4*|z3|^2*|z4|^2"
        " + |z2|^2*|z3|^4*|z4|^4 + 2*(1/10)*Re(z2*zbar2*z3^2*zbar3^3*z4*zbar4)"
        " + |z3|^8*|z4|^2", "--n", "4")
    assert code == 0
    assert "torsion at slot 3" in out
    assert "|z4|^2" in out


def test_torsion_diagonal_model_has_none(capsys):
    assert run_cli(capsys, "torsion", "--n", "4", "--expr",
                   "-2*Re(z1) + |z2|^6 + |z3|^8 + |z4|^10") == \
        (0, "no torsion at slot 3\n", "")


def test_torsion_harmonic_tail_contradiction_exits_3(capsys):
    # the slot-2 derivative tail 1/10*|z3|^2 is not harmonic: a
    # pseudoconvexity contradiction, reported by main as for normalize
    code, out, err = run_cli(
        capsys, "torsion", "--n", "3", "--expr",
        "-2*Re(z1) + |z2|^4 + |z3|^8 + 2*(1/10)*Re(z2*zbar2^2*z3*zbar3)")
    assert (code, out) == (3, "")
    assert err == ("pseudoconvexity contradiction: slot 2: harmonic tail "
                   "certificate fails; offending part 1/10*|z3|^2\n")


def test_torsion_not_applicable(capsys):
    # no slow block: nothing to normalize, and no slot after one to read;
    # the second is the rank-gap model, c = (1, 2, inf)
    for expr in ("-2*Re(z1) + |z2|^2 + |z3|^2",
                 "Re(z1) + (Re(z2) + |z3|^2)^2"):
        assert run_cli(capsys, "torsion", "--expr", expr, "--n", "3") == (
            0, "torsion: not applicable (no slow block present)\n", ""), expr


@pytest.mark.parametrize("argv,message", [
    (["torsion", "--n", "3", "--expr",
      "-2*Re(z1) + 2*Re(z2^2*zbar2) + |z3|^4"],
     "first block value 3 is not an even integer"),
    (["torsion", "--n", "3", "--expr", "-2*Re(z1) + |z2 + z3|^2 + |z3|^4"],
     "slot 3: direction (-1, 1) is not aligned with a coordinate axis; "
     "apply an aligning linear change first"),
    (["torsion", "--n", "3", "--expr",
      "-2*Re(z1) + |z2|^4 + |z2|^6 + |z3|^8"],
     "slot 2: derivative tail depends on z_2; the input is not "
     "weight-graded"),
    (["torsion", "--n", "3", "--expr",
      "-2*Re(z1) + 3*|z2|^4 - 4*Re(z2^3*zbar2) + |z3|^8"],
     "slot 2: scale factor C+ + conj(C-) vanishes; inconsistent input"),
    (["boundary-system", "--n", "1", "--expr", "Re(z1)"],
     "boundary systems need dimension >= 2"),
])
def test_first_block_refusals_exit_2(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("expr, n, slot, values, search", [
    ("-2*Re(z1) + |z2*z3*(z3 - z2)*(z3 - 2*z2)*(z3 + z2)|^2 + |z2|^12"
     " + |z3|^12", "3", 3, ("6", "12"), "(1, 10, 10)"),
    ("-2*Re(z1) + |z2*z3^2 - z2^2*z4|^2 + |z2|^8 + |z3|^8 + |z4|^8", "4", 3,
     ("4", "8"), "(1, 6, 6, 6)"),
])
def test_decreasing_c_entries_name_the_slot(capsys, expr, n, slot, values,
                                            search):
    # Every catalog direction misses slot 2's least value (a generic
    # direction reaches 10 and 6), so slot 2 takes a larger one and slot 3
    # comes out below it.  The build refuses, naming the slot and both
    # values, where InverseWeight used to refuse the c-entries with a
    # message about no input; `multitype` still prints its search weight
    # and drops the commutator the build refuses.
    below, above = values
    message = (f"slot {slot}: c_{slot} = {below} is below c_{slot - 1} = "
               f"{above}; the c-entries of a boundary system do not decrease,"
               " so the directions tried at an earlier slot missed a list of"
               " smaller value")
    for command in ("boundary-system", "torsion"):
        assert run_cli(capsys, command, "--n", n, "--expr", expr) == (
            2, "", f"error: {message}\n")
    assert run_cli(capsys, "multitype", "--commutator", "--n", n, "--expr",
                   expr) == (0, f"{search} [search-lower-bound]\n", "")


def test_torsion_answers_a_mixed_list(capsys):
    # a sum of squared moduli with a clean system, c = (1, 4, 4, 6), and
    # the multitype confirmed; slot 3 (direction z4) takes a list with two
    # slot-2 fields, of value 2/(1 - 2/4) = 4, which no derivative along z4
    # alone reaches, and the straightening reads the slot's own r_3
    expr = "-2*Re(z1) + |z2|^4 + |z3|^6 + |z2|^2*|z4|^2"
    code, out, _err = run_cli(capsys, "boundary-system", "--json", "--n", "4",
                              "--expr", expr)
    system = json.loads(out)
    assert (code, system["c"], system["audit"]) == (
        0, ["1", "4", "4", "6"], [])
    assert system["slots"]["3"]["list"] == [[3, True], [3, False],
                                            [2, False], [2, True]]
    code, out, _err = run_cli(capsys, "multitype", "--n", "4", "--expr", expr)
    assert (code, out) == (0, "(1, 4, 4, 6) [exact-commutator]\n")
    assert run_cli(capsys, "torsion", "--n", "4", "--expr", expr) == (
        0, "no torsion at slot 4\n", "")


@pytest.mark.parametrize("expr, twin, c, slot", [
    # slot 3 lies along z4, so z4 weighs 1/8 and the straightening's map
    # z2 -> z2 - z4^2 has weight 1/4; the twin exchanges z3 and z4
    ("-2*Re(z1) + |z2 + z4^2|^4 + |z3|^12 + |z4|^8",
     "-2*Re(z1) + |z2 + z3^2|^4 + |z4|^12 + |z3|^8", ["1", "4", "8", "12"], 3),
    # the Levi field lies along z3, slot 3 along z2: z2 weighs 1/4, not the
    # 1/2 of slot 2; the twin puts each slot on the axis of its index
    ("-2*Re(z1) + |z2 + z4^2|^4 + |z4|^8 + |z3|^2",
     "-2*Re(z1) + |z3 + z4^2|^4 + |z4|^8 + |z2|^2", ["1", "2", "4", "8"], 4),
])
def test_torsion_weighs_each_variable_by_its_axis(capsys, expr, twin, c,
                                                  slot):
    # each variable weighs 1/c of the field whose direction lies on its
    # axis, so a model whose slots lie on permuted axes answers as its twin
    reports = []
    for model in (expr, twin):
        code, out, _err = run_cli(capsys, "boundary-system", "--json",
                                  "--n", "4", "--expr", model)
        system = json.loads(out)
        assert (code, system["c"], system["audit"]) == (0, c, [])
        assert run_cli(capsys, "torsion", "--n", "4", "--expr", model) == (
            0, f"no torsion at slot {slot}\n", "")
        code, out, _err = run_cli(capsys, "torsion", "--json", "--n", "4",
                                  "--expr", model)
        reports.append((code, json.loads(out)))
    assert reports[0] == reports[1]
    assert reports[0][1]["linear_coeff"] == "576"


def test_oversized_power_exits_2_fast(capsys):
    start = time.perf_counter()
    code, _out, err = run_cli(capsys, "parse", "--expr", "|z2+z3+z4|^64",
                              "--n", "4")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "power may expand to" in err
    for text in ("|1+z2+z3+z4|^12*|1+z2+z3+z4|^12",
                 "|(1+z2+z3+z4)^40|^2"):
        start = time.perf_counter()
        code, _out, err = run_cli(capsys, "parse", "--expr", text, "--n", "4")
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "term pairs, more than" in err


def test_boundary_system_with_many_splittings_answers_fast(capsys):
    # the floor gate certifies the tangential part first: its tier-2
    # fraction walk must not visit all 7^12 tuples of 12 splittings
    expr = "-2*Re(z1) + " + MANY_SPLITTINGS
    start = time.perf_counter()
    code, out, _err = run_cli(capsys, "boundary-system", "--n", "3",
                              "--expr", expr)
    assert time.perf_counter() - start < 10
    assert code == 0
    assert out.startswith("commutator multitype: (1, 2, 2)\n")


def quartic_sum(n: int) -> str:
    return " + ".join(f"|z{j}|^4" for j in range(2, n + 1))


@pytest.mark.parametrize("argv,limit", [
    (("multitype", "--n", "10", "--expr", "-2*Re(z1) + " + quartic_sum(10)),
     "dimension 10 is above 9, the largest for which the coordinate"),
    (("normalize", "--n", "12", "--expr", "-2*Re(z1) + " + quartic_sum(12)),
     "dimension 12 is above 9, the largest for which the coordinate"),
    (("psd", "--n", "8", "--expr",
      quartic_sum(8) + " + 2*(1/3)*Re(z2^3*zbar3)"),
     "dimension 8 is above 7, the largest for which tier 3 walks")])
def test_large_dimension_exits_2_fast(capsys, argv, limit):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert limit in err


def test_psd_at_the_tier3_limit_answers_fast(capsys):
    # n = 7 is the largest dimension tier 3 walks: refuted at a structured
    # point, with no sample drawn
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "psd", "--json", "--n", "7", "--expr",
                             quartic_sum(7) + " + 2*(1/3)*Re(z2^3*zbar3)")
    assert time.perf_counter() - start < 2.0
    assert (code, err) == (0, "")
    verdict = json.loads(out)
    assert verdict["kind"] == "Refuted" and verdict["samples_tried"] == 0


def _long_list_model(tmp_path) -> str:
    """A JSON file of -2*Re(z1) + |z2|^2000 + |z3|^4: slot 3 takes a list
    of 2000 fields."""
    path = tmp_path / "long.json"
    path.write_text(json.dumps(parse_poly(
        "-2*Re(z1) + " + "*".join(["|z2|^400"] * 5) + " + |z3|^4",
        3).to_json_dict()))
    return str(path)


@pytest.mark.parametrize("argv,want", [
    (("boundary-system", "--json", "--n", "2", "--expr",
      "-2*Re(z1) + |z2|^400*|z2|^400*|z2|^400"), ["1", "1200"]),
    (("boundary-system", "--json", "--n", "3", "--expr",
      "-2*Re(z1) + |z2|^400*|z2|^400*|z2|^400 + |z3|^4"), ["1", "4", "1200"]),
    (("torsion", "--n", "3", "--expr",
      "-2*Re(z1) + |z2|^4 + |z3|^400*|z3|^400*|z3|^400"), None),
    (("boundary-system", "--json", "LONG"), ["1", "4", "2000"]),
    (("multitype", "--json", "LONG"), ["1", "4", "2000"])],
    ids=["n2", "n3", "torsion", "json-build", "json-multitype"])
def test_list_longer_than_the_recursion_limit(capsys, tmp_path, argv, want):
    # the list search walks the positions of a list by an explicit stack,
    # so a list of more fields than Python's recursion limit (1000) answers
    argv = [_long_list_model(tmp_path) if a == "LONG" else a for a in argv]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 2.0
    assert (code, err) == (0, "")
    if want is None:
        assert out == "no torsion at slot 3\n"
    elif argv[0] == "multitype":
        payload = json.loads(out)
        assert payload["lambda"] == payload["commutator"] == want
        assert payload["status"] == "exact-commutator"
    else:
        payload = json.loads(out)
        assert payload["c"] == want and payload["audit"] == []


def test_large_diagonal_sum_still_certifies(capsys):
    # tiers 1 and 2 run before the tier-3 grid is sized
    code, out, _err = run_cli(capsys, "psd", "--n", "12", "--expr",
                              quartic_sum(12))
    assert (code, out) == (0, "CertifiedPSD (tier 1)\n")


def test_list_bound_below_two_exits_2(capsys):
    for command, expr in (
            ("boundary-system", "-2*Re(z1) + |z2|^4 + |z3|^4"),
            ("boundary-system", "-2*Re(z1) + |z2|^2 + |z3|^4"),
            ("torsion", "-2*Re(z1) + |z2|^2 + |z3|^4")):
        for bound in ("1", "-5"):
            code, out, err = run_cli(capsys, command, "--expr", expr,
                                     "--n", "3", "--list-bound", bound)
            assert (code, out) == (2, ""), (command, bound)
            assert f"list bound {bound} is below 2" in err


def test_negative_samples_exit_2(capsys):
    code, out, err = run_cli(capsys, "psd", "--expr", "|z2|^4 + |z3|^4",
                             "--n", "3", "--samples", "-3")
    assert (code, out) == (2, "")
    assert "sample count -3 is negative" in err


def test_psd_without_tangential_variable_exits_2(capsys):
    # tiers 1 and 2 reject a negative constant, and with n = 1 tier 3 has
    # no tangential variable to decide
    code, out, err = run_cli(capsys, "psd", "--n", "1", "--expr", "-1")
    assert (code, out) == (2, "")
    assert "needs a tangential variable" in err
    code, out, _err = run_cli(capsys, "psd", "--n", "1", "--expr", "1")
    assert (code, out) == (0, "CertifiedPSD (tier 1)\n")


def test_enumerate(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "2", "--max-type", "4")
    assert code == 0
    assert "(1, 2)" in out and "(1, 4)" in out
    assert "enumerated 2 <= 2" in out


@pytest.mark.parametrize("n,m,limit", [
    ("3", "1000000", "2..1000"), ("300", "2", "2..12"),
    ("2000", "2", "2..12"), ("4", "64", "1000000 row entries")])
def test_enumerate_oversized_exits_2_fast(capsys, n, m, limit):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "enumerate", "--n", n, "--max-type", m)
    assert time.perf_counter() - start < 5
    assert (code, out) == (2, "")
    assert limit in err


def test_enumerate_zero_denominator_exits_2(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--n", "3",
                             "--max-type", "1/0")
    assert (code, out) == (2, "")
    assert "type bound 1/0 divides by 0" in err


def test_examples_single(capsys):
    code, out, _ = run_cli(capsys, "examples", "--only", "sq-identity")
    assert code == 0
    assert "PASS  sq-identity" in out


def test_examples_all_pass(capsys):
    code, out, err = run_cli(capsys, "examples")
    assert (code, err) == (0, "")
    assert out.splitlines() == [f"PASS  {name}" for name in cli.EXAMPLES]
    assert len(cli.EXAMPLES) == 6


def test_examples_counting_flags_exit_2(capsys):
    # `examples` has no size options; `enumerate --n N --max-type M` covers
    # other sizes.  --n 0 was read as the default n = 3 and passed.
    for argv in (["examples", "--only", "counting", "--n", "0"],
                 ["examples", "--m", "9"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err, argv


def test_examples_only_unknown_name_exits_2(capsys):
    # a misspelt example name is an input error, not an empty passing run
    with pytest.raises(SystemExit) as exc:
        main(["examples", "--only", "nosuch"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "invalid choice: 'nosuch'" in out.err


def test_removed_options_exit_2(capsys):
    for argv in (["examples", "--json"],
                 ["psd", "--expr", "|z2|^4", "--n", "2",
                  "--cs-lattice-denominator", "4"],
                 *([command, "--degree-bound", "4", "--expr",
                    "-2*Re(z1) + |z2|^4 + |z3|^6", "--n", "3"]
                   for command in ("multitype", "normalize"))):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err


def test_normalize_assert_psc_samples_with_global_seed(capsys, monkeypatch):
    calls = []

    def recording(p, **kwargs):
        calls.append(kwargs)
        return psd_verdict(p, **kwargs)

    monkeypatch.setattr(cli, "psd_verdict", recording)
    code, out, _ = run_cli(capsys, "--seed", "7", "normalize", "--expr",
                           "-2*Re(z1) + |z2|^8 + |z2|^4*|z3|^6", "--n", "3",
                           "--assert-psc")
    assert code == 0 and "verified: True" in out
    assert calls == [{"seed": 7}]


def test_missing_input(capsys):
    code, _out, err = run_cli(capsys, "parse")
    assert code == 2
    assert "no input" in err


def test_normalize_report_polynomial_round_trips(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "normalize", "--expr",
                           "-2*Re(z1) + |z2|^8 + |z2|^4*|z3|^6", "--n", "3",
                           "--json")
    assert code == 0
    report = json.loads(out)
    # feeding the report's transformed model back reproduces the same rows
    model = json.loads(out)["model"]
    head = {"n": 3, "terms": [
        {"alpha": [0, 0, 0], "beta": [1, 0, 0], "re": "-1", "im": "0"},
        {"alpha": [1, 0, 0], "beta": [0, 0, 0], "re": "-1", "im": "0"},
    ] + model["terms"]}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(head))
    code2, out2, _ = run_cli(capsys, "normalize", str(path), "--json")
    assert code2 == 0
    report2 = json.loads(out2)
    assert report2["rows"] == report["rows"]
    assert report2["verified"] is True


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "catlin.cli", "multitype", "--expr",
         "-2*Re(z1) + |z2|^2", "--n", "2"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "(1, 2)" in proc.stdout


def test_python_m_catlin():
    proc = subprocess.run(
        [sys.executable, "-m", "catlin", "multitype", "--expr",
         "-2*Re(z1) + |z2|^2", "--n", "2"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "(1, 2)" in proc.stdout


def _json_input(tmp_path, **term):
    """A one-term JSON model file; keyword values replace (or, when None,
    remove) fields of the term |z2|^2."""
    t = {"alpha": [0, 1], "beta": [0, 1], "re": "1", "im": "0"}
    t.update(term)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(
        {"n": 2, "terms": [{k: v for k, v in t.items() if v is not None}]}))
    return str(path)


TEXT_MODEL = "-2*Re(z1) + |z2|^4"


@pytest.mark.parametrize("argv,message", [
    (["parse", "FILE", "--expr", "|z2|^2", "--n", "2"],
     "give either an input file or --expr, not both"),
    (["parse", "--expr", "|z2|^2"], "--expr requires --n"),
    (["parse", "FILE"], "text input files require --n"),
    (["normalize", "--expr", "-2*Re(z1) + |z2|^4 + |z3|^4", "--n", "3",
      "--weight", "1,1/4"], "weight has 2 entries, expected 3"),
    (["normalize", "--expr", "-2*Re(z1) + |z2|^2 + |z3|^4", "--n", "3",
      "--weight", "1,1/4,1/4"],
     "input has terms of weight below 1; not O_mu(1)"),
    (["normalize", "--expr", "-2*Re(z1) + |z2|^4", "--n", "3"],
     "could not infer a finite weight; pass --weight"),
    # --n 0 and an empty --expr are given: the parser rejects them
    (["parse", "--n", "0", "--expr", "1"], "dimension must be >= 1"),
    (["parse", "--n", "0", "FILE"], "dimension must be >= 1"),
    (["parse", "--n", "2", "--expr", ""],
     "parse error at position 0: unexpected token ''"),
    # the parser's syntax errors
    (["parse", "--n", "2", "--expr", "(z2"],
     "parse error at position 3: expected ')', found ''"),
    (["parse", "--n", "2", "--expr", "z2 z2)"],
     "parse error at position 5: trailing input ')'"),
    (["parse", "--n", "2", "--expr", "|z2|^z3"],
     "parse error at position 5: expected an integer exponent"),
    (["parse", "--n", "2", "--expr", "1/z2"],
     "parse error at position 2: expected integer denominator"),
    (["parse", "--n", "2", "--expr", "1/0"],
     "parse error at position 2: zero denominator"),
    (["parse", "--n", "2", "--expr", "~|z2|^2"],
     "parse error at position 0: cannot conjugate a modulus directly"),
    (["parse", "--n", "2", "--expr", "|z2"],
     "parse error at position 3: unterminated modulus bar"),
    # nesting past the parser's limit, and a deeply nested JSON file
    (["parse", "--n", "2", "--expr", "(" * 300 + "|z2|^2" + ")" * 300],
     "parse error at position 100: nesting deeper than 400 parser frames"),
    (["parse", "--n", "2", "--expr", "-" * 5000 + "|z2|^2"],
     "parse error at position 400: nesting deeper than 400 parser frames"),
    (["parse", "--n", "2", "--expr", "~" * 5000 + "z2"],
     "parse error at position 400: nesting deeper than 400 parser frames"),
    (["parse", "DEEP_JSON"], "JSON input nests too deeply"),
    # number tokens longer than the parser's digit bound: an exponent, a
    # literal, a variable index, a conjugate index and a denominator
    (["parse", "--n", "2", "--expr", "z2^" + "9" * 5000],
     "parse error at position 3: number longer than 640 digits"),
    (["parse", "--n", "2", "--expr", "9" * 5000],
     "parse error at position 0: number longer than 640 digits"),
    (["parse", "--n", "2", "--expr", "z" + "9" * 5000],
     "parse error at position 0: number longer than 640 digits"),
    (["parse", "--n", "2", "--expr", "zbar" + "9" * 5000],
     "parse error at position 0: number longer than 640 digits"),
    (["parse", "--n", "2", "--expr", "1/" + "9" * 5000],
     "parse error at position 2: number longer than 640 digits"),
    # a power whose coefficient would not print: 9^5000 has 4,772 digits,
    # and a 640-digit exponent on a constant is refused before it is formed
    (["parse", "--n", "2", "--expr", "9^5000"],
     "parse error at position 0: power's coefficient would have more than "
     "4300 digits"),
    (["parse", "--n", "2", "--expr", "|z2|^2 + (3/2)^" + "9" * 640],
     "parse error at position 9: power's coefficient would have more than "
     "4300 digits"),
    # each power prints (3,817 digits), their product would not
    (["parse", "--n", "2", "--expr", "9^4000*9^4000"],
     "parse error at position 7: coefficient has more than "
     "4300 digits"),
    # a translation is no coordinate change: the constant is refused by name
    (["normalize", "--n", "3", "--expr", "-2*Re(z1) + 1 + |z2|^4 + |z3|^8"],
     "model has the constant term 1: the hypersurface r = 0 must pass "
     "through the origin"),
    # each power prints, their sum's common denominator would not
    (["parse", "--n", "2", "--expr", "(1/3)^9000 + (1/7)^5000"],
     "parse error at position 11: coefficient has more than "
     "4300 digits"),
    # the sum Re(...) forms where its operand and the conjugate share a
    # key, and the halving, which adds a digit to 7^5088 (4,300 digits)
    (["parse", "--n", "3", "--expr",
      "Re((1/3)^9000*z2*zbar3 + (1/7)^5000*z3*zbar2)"],
     "parse error at position 0: coefficient has more than 4300 digits"),
    (["parse", "--n", "3", "--expr",
      "|z2|^2 + Im((1/3)^9000*z2*zbar3 + (1/7)^5000*z3*zbar2)"],
     "parse error at position 9: coefficient has more than 4300 digits"),
    (["parse", "--n", "2", "--expr", "Re((1/7)^5088*z2)"],
     "parse error at position 0: coefficient has more than 4300 digits"),
    # an empty weight is given, and is no weight
    (["normalize", "--expr", "-2*Re(z1) + |z2|^4 + |z3|^4", "--n", "3",
      "--weight", ""], "bad weight '': not a rational such as \"-1/2\": ''"),
    # a JSON model carries its own dimension
    (["parse", "JSON", "--n", "5"],
     "--n 5 differs from the JSON n = 3"),
    # a bad character is named at its own position, not at the space
    # before it
    (["parse", "--n", "2", "--expr", "z2 + $"],
     "parse error at position 5: unexpected character '$'"),
])
def test_input_errors_exit_2(capsys, tmp_path, argv, message):
    path = tmp_path / "model.txt"
    path.write_text(TEXT_MODEL)
    deep = tmp_path / "deep.json"
    deep.write_text('{"x": ' * 5000 + "1" + "}" * 5000)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(parse_poly(TEXT_MODEL, 3).to_json_dict()))
    files = {"FILE": str(path), "DEEP_JSON": str(deep), "JSON": str(model)}
    argv = [files.get(a, a) for a in argv]
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("extra,message", [
    # an unknown key at the top level is named
    (', "x": 1', "JSON polynomial: unknown key 'x'"),
    # 5,000 nested arrays: refused by MAX_JSON_DEPTH before the decoder
    # runs, whose own recursion limit moves with the Python version
    (', "x": ' + "[" * 5000 + "]" * 5000, "JSON input nests too deeply"),
])
def test_a_json_model_with_an_extra_key_exits_2(capsys, tmp_path, extra,
                                                message):
    model = (Path(__file__).parent / "golden" / "inputs" / "model.json")
    text = model.read_text(encoding="utf-8").rstrip()
    assert text.endswith("}")
    path = tmp_path / "extra.json"
    path.write_text(text[:-1] + extra + "}")
    for command in ("parse", "boundary-system"):
        assert run_cli(capsys, command, str(path)) == \
            (2, "", f"error: {message}\n")


def test_a_json_term_with_an_unknown_key_is_refused():
    d = parse_poly("|z2|^2", 2).to_json_dict()
    d["terms"][0]["coeff"] = "1"
    with pytest.raises(PolyError, match="unknown key 'coeff' in a term"):
        Poly.from_json_dict(d)


def test_json_depth_counts_brackets_outside_strings():
    # brackets inside a string do not nest; at MAX_JSON_DEPTH levels the
    # text passes, one more is refused
    depth = cli.MAX_JSON_DEPTH
    cli._check_json_depth('{"a": "' + "[" * 1000 + '\\"[{"}')
    cli._check_json_depth("[" * depth + "]" * depth)
    with pytest.raises(cli.CliError, match="nests too deeply"):
        cli._check_json_depth("[" * (depth + 1) + "]" * (depth + 1))
    # the brackets after a quote that opens no complete string are left to
    # the decoder, which refuses the string
    cli._check_json_depth('{"a": "' + "[" * 1000)


def test_torsion_names_the_slot_whose_change_is_not_graded(capsys):
    # the first block is slots 2 and 3 (c = 6, 6); slot 3's r_3 carries
    # |z4|^6 through |z3 + z4|^6, of weight 1/2 under the axis weight 1/12
    # of z4, so the change that straightens it is not graded
    expr = "-2*Re(z1) + |z2|^6 + |z3+z4|^6 + |z4|^12 + |z5|^8"
    message = ("error: slot 3: the change that straightens r_3 is not "
               "graded in the axis weights; the input is not "
               "weight-graded\n")
    for flags in ((), ("--json",)):
        assert run_cli(capsys, "torsion", *flags, "--n", "5",
                       "--expr", expr) == (2, "", message)


def test_boundary_system_reads_no_shear_past_the_work_limits(capsys):
    # tiers 1 and 2 fail (the Levi form at 0 is indefinite), and the shear
    # read off |z2|^2 is z2 -> z2 - (z3 + ... + z9): (z2 - s)^20 would have
    # C(27, 7) = 888,030 terms, so the gate gives up on the shear and the
    # build, without a floor, prints what it printed before the gate
    expr = ("-2*Re(z1) + |z2|^2 + 2*Re(z2*(zbar3+zbar4+zbar5+zbar6+zbar7"
            "+zbar8+zbar9)) + |z2|^40")
    assert boundary._lambda_floor(parse_poly(expr, 9)) is None
    assert run_cli(capsys, "boundary-system", "--n", "9", "--expr",
                   expr) == (0, "commutator multitype: (1, 2, 2, inf, inf, "
                             "inf, inf, inf, inf)\nLevi rank: 2; codimension "
                             "slots: []; audit: ok\n", "")


@pytest.mark.parametrize("command", [
    "parse", "psd", "normalize", "boundary-system", "torsion", "multitype"])
def test_dimension_above_the_cap_exits_2_fast(capsys, tmp_path, command):
    # every term carries two exponent tuples of length n: a dimension past
    # poly.MAX_DIMENSION is refused before any term is built, for --n, a
    # text file and a JSON model alike
    from catlin.poly import MAX_DIMENSION
    assert MAX_DIMENSION == 64
    message = ("error: dimension 1000000 is above 64, the largest a "
               "polynomial may have\n")
    text = tmp_path / "model.txt"
    text.write_text("|z2|^2")
    model = tmp_path / "model.json"
    # the dimension is read before the terms
    model.write_text(json.dumps({"n": 10 ** 6, "terms": [
        {"alpha": [0, 1], "beta": [0, 1], "re": "1", "im": "0"}]}))
    for source in (("--n", "1000000", "--expr", "|z2|^2"),
                   (str(text), "--n", "1000000"), (str(model),)):
        start = time.perf_counter()
        got = run_cli(capsys, command, "--json", *source)
        assert time.perf_counter() - start < 0.5, source
        assert got == (2, "", message), source
    assert run_cli(capsys, "parse", "--n", "65", "--expr", "|z2|^2") == (
        2, "", "error: dimension 65 is above 64, the largest a polynomial "
               "may have\n")
    assert run_cli(capsys, "parse", "--n", "64", "--expr", "|z64|^2") == (
        0, "|z64|^2\n", "")


@pytest.mark.parametrize("expr", [
    "(" * 50 + "|z2|^2" + ")" * 50,
    # the deepest nesting the parser admits: 400 frames
    "(" * 99 + "|z2|^2" + ")" * 99,
    "-" * 396 + "|z2|^2",
], ids=["parens-50", "parens-99", "minus-396"])
def test_nested_expression_parses(capsys, expr):
    assert run_cli(capsys, "parse", "--n", "2", "--expr", expr) == \
        (0, "|z2|^2\n", "")


def test_longest_number_parses(capsys):
    # a literal and a denominator at the parser's digit bound
    big = "9" * 640
    assert run_cli(capsys, "parse", "--n", "2", "--expr", big) == \
        (0, big + "\n", "")
    assert run_cli(capsys, "parse", "--n", "2", "--expr",
                   f"{big}/{big}*|z2|^2") == (0, "|z2|^2\n", "")


def test_longest_power_parses(capsys):
    # 2^14284 has 4,300 digits, the most Python prints by default; one
    # factor more is refused, and so is |c*z2|^4 for c = (1/2)^7143, which
    # prints (2,151 digits) while |c|^4 would not
    code, out, err = run_cli(capsys, "parse", "--n", "2", "--expr",
                             "2^14284")
    assert (code, out, err) == (0, str(2 ** 14284) + "\n", "")
    for text in ("2^14285", "|(1/2)^7143*z2|^4"):
        code, out, err = run_cli(capsys, "parse", "--n", "2", "--expr", text)
        assert code == 2 and out == "" and "more than 4300 digits" in err


def test_text_file_input_parses_with_n(capsys, tmp_path):
    path = tmp_path / "model.txt"
    path.write_text(TEXT_MODEL)
    assert run_cli(capsys, "parse", str(path), "--n", "2") == \
        (0, TEXT_MODEL + "\n", "")


def test_json_input_accepts_its_own_n(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(parse_poly(TEXT_MODEL, 3).to_json_dict()))
    for extra in ((), ("--n", "3")):
        assert run_cli(capsys, "parse", str(path), *extra) == \
            (0, TEXT_MODEL + "\n", "")


_TERM = {"alpha": [0, 1], "beta": [0, 1], "re": "1", "im": "0"}


@pytest.mark.parametrize("doc,message", [
    ({"n": "2", "terms": [_TERM]},
     "JSON polynomial: n must be an int, not '2'"),
    ({"n": 2, "terms": [_TERM, {**_TERM, "re": "2"}]},
     "duplicate term ((0, 1), (0, 1)) in JSON polynomial"),
    ({"n": 2, "terms": [{**_TERM, "re": "1/0"}]},
     "JSON polynomial: re: zero denominator: '1/0'"),
    # the rules text input follows: a real-valued model, and numbers short
    # enough to convert and print
    ({"n": 2, "terms": [{**_TERM, "alpha": [0, 2], "beta": [0, 0]}]},
     "JSON polynomial is not real-valued; offending exponent pairs: "
     "[((0, 2), (0, 0))]"),
    ({"n": 2, "terms": [{**_TERM, "im": "1/" + "7" * 5000}]},
     "JSON polynomial: im: numerator or denominator has more than 4300 "
     "digits"),
    # only an optional sign, digits and an optional /digits: no exponent
    # notation, which Fraction would expand
    ({"n": 2, "terms": [{**_TERM, "re": "1e2"}]},
     "JSON polynomial: re: not a rational such as \"-1/2\": '1e2'"),
])
def test_json_input_errors_exit_2(capsys, tmp_path, doc, message):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert run_cli(capsys, "parse", str(path)) == \
        (2, "", f"error: {message}\n")


def test_json_exponent_notation_exits_2_fast(capsys, tmp_path):
    # "1e99999999" would expand to a hundred-million-digit integer
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "parse",
                             _json_input(tmp_path, re="1e99999999"))
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (
        2, "", "error: JSON polynomial: re: not a rational such as "
        "\"-1/2\": '1e99999999'\n")


@pytest.mark.parametrize("argv,message", [
    # Fraction("1e-99999999") would expand a hundred-million-digit integer
    (["normalize", "--n", "3", "--expr", "-2*Re(z1) + |z2|^4 + |z3|^6",
      "--weight", "1,1/4,1e-99999999"],
     "error: bad weight '1,1/4,1e-99999999': not a rational such as "
     "\"-1/2\": '1e-99999999'\n"),
    (["enumerate", "--n", "2", "--max-type", "1e9999999"],
     "error: type bound: not a rational such as \"-1/2\": '1e9999999'\n"),
    (["normalize", "--n", "2", "--expr", "-2*Re(z1) + |z2|^4",
      "--weight", "1,1/" + "7" * 5000],
     "error: bad weight '1,1/" + "7" * 5000 + "': numerator or denominator "
     "has more than 4300 digits\n"),
    (["normalize", "--n", "3", "--expr", "-2*Re(z1) + |z2|^4 + |z3|^6",
      "--weight", "1,0.25,1/6"],
     "error: bad weight '1,0.25,1/6': decimal rationals are not accepted: "
     "'0.25'\n"),
    (["enumerate", "--n", "2", "--max-type", "4.5"],
     "error: type bound: decimal rationals are not accepted: '4.5'\n"),
])
def test_option_rationals_follow_the_grammar(capsys, argv, message):
    # --weight entries and --max-type are read as README's RATIONAL, as
    # JSON coefficients are: no decimal or exponent notation, at most
    # 4300 digits a part, refused before any number is formed
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (2, "", message)


def test_json_input_missing_key_exits_2(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"n": 2}))
    code, _out, err = run_cli(capsys, "parse", str(path))
    assert code == 2
    assert "'terms'" in err
    code, _out, err = run_cli(capsys, "parse", _json_input(tmp_path, im=None))
    assert code == 2
    assert "'im'" in err


def test_json_input_non_string_coefficient_exits_2(capsys, tmp_path):
    code, _out, err = run_cli(capsys, "parse", _json_input(tmp_path, re=0.5))
    assert code == 2
    assert "re must be a string" in err


def test_json_input_exponents_not_ints_exits_2(capsys, tmp_path):
    for alpha in (["0", 1], [0, 1.5], 3):
        code, _out, err = run_cli(capsys, "parse",
                                  _json_input(tmp_path, alpha=alpha))
        assert code == 2
        assert "alpha must be a list of ints" in err


def test_weight_with_zero_denominator_exits_2(capsys):
    code, _out, err = run_cli(capsys, "normalize", "--expr",
                              "-2*Re(z1) + |z2|^4", "--n", "2",
                              "--weight", "1/0")
    assert code == 2
    assert "bad weight" in err


# ----------------------------------------------------------------------
# the gate on the multitype search's floor for the boundary build
# ----------------------------------------------------------------------

TORSION = ("-2*Re(z1) + |z2|^6 + |z2|^2*|z3|^6 + |z2|^4*|z3|^2*|z4|^2"
           " + |z2|^2*|z3|^4*|z4|^4"
           " + 2*(1/10)*Re(z2*zbar2*z3^2*zbar3^3*z4*zbar4) + |z3|^8*|z4|^2")
# not plurisubharmonic, and no tier-1 or tier-2 certificate
UNCERTIFIED = "-2*Re(z1) + |z2|^4 + |z3|^4 + 2*(1/3)*Re(z2^3*zbar3)"


def _gated_and_ungated(monkeypatch, capsys, argv):
    """The floors the build's gate returned in a run of ``argv``, that
    run's (exit code, stdout, stderr), and those of a run whose gate
    returns None, that is, of builds that scan every list."""
    floors = []
    gate = boundary._lambda_floor

    def recording(r):
        floors.append(gate(r))
        return floors[-1]

    with monkeypatch.context() as patch:
        patch.setattr(boundary, "_lambda_floor", recording)
        gated = run_cli(capsys, *argv)
    with monkeypatch.context() as patch:
        patch.setattr(boundary, "_lambda_floor", lambda r: None)
        ungated = run_cli(capsys, *argv)
    return floors, gated, ungated


def _build_runs(expr, n, commands=("boundary-system", "torsion")):
    """Each command on the model, as text and as JSON, and for the build
    commands with a list bound the build refuses (its error must come out
    unchanged)."""
    runs = []
    for command in commands:
        flags = [(), ("--json",)]
        if command != "multitype":
            flags.append(("--list-bound", "1"))
        runs += [(command, *f, "--n", str(n), "--expr", expr) for f in flags]
    return runs


def test_gate_gives_the_search_weight_on_a_certified_model():
    floor = boundary._lambda_floor(parse_poly(TORSION, 4))
    assert floor == (1, 6, 9, 18)


def test_multitype_gate_reuses_its_search(monkeypatch, capsys):
    # the command's search is the only one: the build's gate runs the
    # weight walk alone, so boundary-system and torsion run no search
    calls = []
    search = weights.multitype_search

    def counted(*args):
        calls.append(args[1:])
        return search(*args)

    for module in (cli, weights):
        monkeypatch.setattr(module, "multitype_search", counted)
    assert not hasattr(boundary, "multitype_search")
    code, out, _err = run_cli(capsys, "multitype", "--json", "--commutator",
                              "--n", "4", "--expr", TORSION)
    assert code == 0 and calls == [()]
    payload = json.loads(out)
    assert payload["status"] == "exact-commutator"
    assert payload["commutator"] == ["1", "6", "9", "18"]
    for command in ("boundary-system", "torsion"):
        calls.clear()
        code, out, _err = run_cli(capsys, command, "--json", "--n", "4",
                                  "--expr", TORSION)
        assert code == 0 and out and calls == []


@pytest.mark.parametrize("expr,exact", [
    # psd refutes both tangential forms; the search and the build agree on
    # them, but without C = M agreement proves nothing
    (UNCERTIFIED, False),
    ("-2*Re(z1) + |z2|^4 - |z3|^4 + |z3|^6", False),
    # the gate certifies the tangential part without its pure terms, which
    # the Levi form never reads
    ("-2*Re(z1) + 2*Re(z2^3) + |z2|^4 + |z3|^6", True),
    ("-2*Re(z1) + (Re(z2))^2 + |z3|^4", True),
    # certified after z2 -> z2 - (1/2)*z3^2, read off the square
    ("-2*Re(z1) + |z2 + (1/2)*z3^2|^4 + 3*|z3|^8", True),
])
def test_multitype_is_exact_only_on_a_certified_model(capsys, expr, exact):
    code, out, _err = run_cli(capsys, "multitype", "--json", "--n", "3",
                              "--expr", expr)
    payload = json.loads(out)
    assert code == 0 and payload["lambda"] == payload["commutator"]
    assert payload["status"] == ("exact-commutator" if exact
                                 else "search-lower-bound")
    assert ("commutator" in payload["witness"]) == exact
    assert (boundary._lambda_floor(parse_poly(expr, 3)) is not None) == exact
    if not exact:
        code, out, _err = run_cli(capsys, "psd", "--n", "3", "--expr", expr)
        assert code == 0 and out.startswith("Refuted")


def test_multitype_reports_a_disagreeing_certified_build(monkeypatch,
                                                        capsys):
    # a certified build whose commutator multitype is not the search's
    # weight: under C = M the catalog missed the coordinates, or a fault.
    # A floor raised past slot 3's value makes the build skip |z3|^6
    expr = "-2*Re(z1) + |z2|^4 + |z3|^6"
    assert boundary._lambda_floor(parse_poly(expr, 3)) == (1, 4, 6)
    monkeypatch.setattr(boundary, "_lambda_floor", lambda _r: (1, 4, 8))
    code, out, _err = run_cli(capsys, "multitype", "--json", "--n", "3",
                              "--expr", expr)
    payload = json.loads(out)
    assert code == 0 and payload["lambda"] == ["1", "4", "6"]
    assert payload["commutator"] != payload["lambda"]
    assert payload["status"] == "commutator-disagrees"
    assert "commutator" not in payload["witness"]
    code, out, _err = run_cli(capsys, "multitype", "--n", "3", "--expr", expr)
    assert (code, out) == (0, "(1, 4, 6) [commutator-disagrees]\n")


@pytest.mark.parametrize("argv", [
    ("normalize", "--n", "4", "--expr", TORSION),
    ("normalize", "--json", "--n", "5", "--expr",
     "-2*Re(z1) + |z2|^4 + |z3|^6 + |z4|^6 + |z5|^8"),
    ("normalize", "--n", "3", "--expr", "-2*Re(z1) + |z2 + z3^2|^4 + |z3|^8"),
    ("boundary-system", "--json", "--n", "4", "--expr", TORSION),
    ("torsion", "--n", "4", "--expr", TORSION)])
def test_weight_readers_form_no_witness(monkeypatch, capsys, argv):
    # the auto weight and the build's floor read only the search's value,
    # so no admissibility witness is formed
    calls = []
    admissible = weights.is_admissible

    def counted(lam):
        calls.append(lam)
        return admissible(lam)
    monkeypatch.setattr(weights, "is_admissible", counted)
    code, out, _err = run_cli(capsys, *argv)
    assert code == 0 and out and calls == []
    code, out, _err = run_cli(capsys, "multitype", "--json", "--n", "4",
                              "--expr", TORSION)
    assert code == 0 and len(calls) == 1
    assert json.loads(out)["witness"]["admissibility"]["2"] == [[0, 6]]


@pytest.mark.parametrize("argv", [
    *_build_runs(UNCERTIFIED, 3, ("boundary-system", "torsion", "multitype")),
    # a certified model past the search's dimension limit: it raises
    *_build_runs("-2*Re(z1) + " + " + ".join(f"|z{j}|^2"
                                             for j in range(2, 11)), 10,
                 ("boundary-system",))])
def test_gate_refuses_without_certificate_or_search(monkeypatch, capsys,
                                                    argv):
    floors, gated, ungated = _gated_and_ungated(monkeypatch, capsys, argv)
    assert floors == [None]
    assert gated == ungated


@pytest.mark.parametrize("argv", _build_runs(TORSION, 4))
def test_gate_refuses_when_the_search_raises(monkeypatch, capsys, argv):
    def raising(*_args):
        raise PolyError("no admissible distinguished weight found")

    monkeypatch.setattr(boundary, "best_distinguished_weight", raising)
    floors, gated, ungated = _gated_and_ungated(monkeypatch, capsys, argv)
    assert floors == [None]
    assert gated == ungated


# ----------------------------------------------------------------------
# one parser per process
# ----------------------------------------------------------------------


def test_parser_built_once_per_process(capsys, monkeypatch):
    main(["parse", "--expr", "|z2|^2", "--n", "2"])
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for argv in (["parse", "--expr", "|z2|^4", "--n", "2"],
                 ["psd", "--expr", "|z2|^4", "--n", "2"],
                 ["normalize", "--expr", "-2*Re(z1) + |z2|^4", "--n", "2"],
                 ["enumerate", "--n", "3", "--max-type", "6"]):
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert built == []


# Refuted at a random point, so its witness depends on --seed
RANDOM_REFUTED = "2*Re(i*z2*zbar3^2) + 3*|z3|^4 + 2*|z2|^2*|z3|^2"
# the explicit weight descends at slot 3; the auto weight starts there
DESCENDS = "-2*Re(z1) + |z2|^4 + |z3|^8"


def test_calls_share_no_state(capsys, monkeypatch):
    """Calls of ``main`` in one process, each after a call with other
    options, print what the same argv prints in a fresh process."""
    monkeypatch.setenv("COLUMNS", "80")
    env = dict(os.environ, COLUMNS="80")

    def in_process(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    def fresh(argv):
        proc = subprocess.run([sys.executable, "-m", "catlin", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    unknown = ["psd", "--json", "--n", "2", "--expr", "(Re(z2))^2"]
    runs = [
        ["psd", "--samples", "7", *unknown[1:]],
        unknown,
        ["--seed", "3", "psd", "--n", "3", "--expr", RANDOM_REFUTED],
        ["psd", "--n", "3", "--expr", RANDOM_REFUTED],
        ["normalize", "--weight", "1,1/4,1/4", "--n", "3", "--expr",
         DESCENDS],
        ["normalize", "--n", "3", "--expr", DESCENDS],
        ["psd", "--bogus", "--n", "2", "--expr", "(Re(z2))^2"],
        unknown,
    ]
    got = [in_process(argv) for argv in runs]
    for argv, result in zip(runs, got):
        assert result == fresh(argv), argv
    assert json.loads(got[0][1])["samples_tried"] == 7
    assert json.loads(got[1][1])["samples_tried"] == 200
    assert got[2][1] != got[3][1]
    assert "descent:" in got[4][1] and "descent:" not in got[5][1]
    assert got[6][0] == 2 and "unrecognized arguments" in got[6][2]
    assert got[7] == got[1]


# ----------------------------------------------------------------------
# --json output: the writer and the form each command builds
# ----------------------------------------------------------------------


def _stdlib_json(o):
    return json.dumps(o, indent=2, sort_keys=True)


def _written(o):
    return cli._json_value(o, "\n")


def test_json_writer_matches_json_dumps_on_every_golden_report(monkeypatch):
    write = cli._json_value
    reports = []

    def record(o, pad):
        if pad == "\n":   # a whole report, not a part of one
            reports.append(o)
        return write(o, pad)

    monkeypatch.setattr(cli, "_json_value", record)
    for argv in GOLDEN_CASES.values():
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            main(argv + ["--json"])
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(reports) == sum(bool(c["stdout"]) for c in golden.values())
    for report in reports:
        assert write(report, "\n") == _stdlib_json(report)


# quotes, backslashes, control characters, non-ASCII, astral code points
# and a lone surrogate: every escape encode_basestring_ascii makes
_CHARS = ('"\\/\x00\x01\x1f\x7f\n\t\r\b\f \u00e9\u20ac\U0001f600'
          '\U0010ffff\ud800az09')


def _random_string(rng):
    return "".join(rng.choice(_CHARS) for _ in range(rng.randrange(6)))


def _random_json(rng, depth=0):
    kind = rng.randrange(11 if depth < 4 else 6)
    if kind == 0:
        return _random_string(rng)
    if kind == 1:
        return rng.randint(-10, 10)
    if kind == 2:   # past 64 bits, either sign
        return rng.choice((-1, 1)) * rng.randrange(2 ** 64, 2 ** 200)
    if kind == 3:   # booleans next to the ints equal to them
        return rng.choice((True, False, 1, 0))
    if kind == 4:
        return None
    if kind == 5:
        return rng.choice(([], {}, (), [[]], {"": {}}, [{}, ()]))
    items = [_random_json(rng, depth + 1) for _ in range(rng.randrange(5))]
    if kind in (6, 7):
        return items
    if kind == 8:
        return tuple(items)
    return {_random_string(rng): v for v in items}


def test_json_writer_matches_json_dumps_on_random_values():
    rng = random.Random(50)
    for _ in range(2500):
        value = _random_json(rng)
        assert _written(value) == _stdlib_json(value), value


def test_json_writer_matches_json_dumps_under_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    scalars = st.none() | st.booleans() | st.integers() | st.text()
    values = st.recursive(
        scalars, lambda inner: st.lists(inner) | st.tuples(inner, inner)
        | st.dictionaries(st.text(), inner), max_leaves=20)

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(values)
    def check(value):
        assert _written(value) == _stdlib_json(value)

    check()


@pytest.mark.parametrize("value", [
    1.5, float("inf"), Fraction(1, 2), CRat(1, 2), {1, 2}, frozenset(),
    b"x", {1: "a"}, {None: 1}, {True: 1}, {("a",): 1}, {"a": 1, 2: 3},
    [1, 2.0], {"a": {"b": Fraction(1)}}, ("x", CRat(0))])
def test_json_writer_refuses_what_catlin_never_prints(value):
    with pytest.raises(TypeError):
        _written(value)


def _spy_on_the_printed_forms(monkeypatch):
    """Counters of the calls that build each form: ``iterencode`` (json's
    pure-Python encoder) and ``text`` (``format_poly``, and Weight and
    InverseWeight ``__str__`` called from the front end; the library's
    descent record formats the weights it passes in either mode)."""
    counts = {"iterencode": 0, "text": 0}

    def counted(kind, fn, only_from=None):
        def spy(*args, **kwargs):
            if only_from is None or \
                    sys._getframe(1).f_globals.get("__name__") == only_from:
                counts[kind] += 1
            return fn(*args, **kwargs)
        return spy

    monkeypatch.setattr(json.encoder, "_make_iterencode", counted(
        "iterencode", json.encoder._make_iterencode))
    monkeypatch.setattr(poly_module, "format_poly",
                        counted("text", poly_module.format_poly))
    for cls in (weights.Weight, weights.InverseWeight):
        monkeypatch.setattr(cls, "__str__",
                            counted("text", cls.__str__, "catlin.cli"))
    return counts


def test_a_json_run_builds_no_text(monkeypatch):
    # every golden case and one seed-5 pass of each benchmark workload, as
    # JSON and as text
    counts = _spy_on_the_printed_forms(monkeypatch)
    runs = [argv + ["--json"] for argv in GOLDEN_CASES.values()] \
        + workload_argvs(5)
    assert {argv[0] for argv in runs} >= {"normalize", "boundary-system",
                                         "torsion", "psd", "multitype"}
    for as_json in (True, False):
        for argv in runs:
            argv = argv if as_json else [a for a in argv if a != "--json"]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                main(argv)
        assert counts["iterencode"] == 0
        assert (counts["text"] > 0) is not as_json, (as_json, counts)


UNPRINTABLE_R2 = ["--n", "3", "--expr",
                  "-2*Re(z1) + |z2|^2 + 2*Re((7^4000)*z2*zbar3^2) + |z3|^6"]


UNPRINTABLE = "error: a number to print has more than 4300 digits\n"


def test_a_text_run_fails_where_its_report_would_not_print(capsys):
    # a coefficient of the boundary system has more than MAX_PRINTED_DIGITS
    # digits; the text prints none of them, but the report is built in
    # both modes
    for flags in ([], ["--json"]):
        code, out, err = run_cli(capsys, "boundary-system", *flags,
                                 *UNPRINTABLE_R2)
        assert (code, out, err) == (2, "", UNPRINTABLE)


def test_an_unprintable_number_exits_2_under_any_int_digit_limit():
    # catlin refuses the number itself, so Python's int-string limit, here
    # switched off, neither lets the report print nor words the error
    runs = []
    for limit in (None, "0"):
        env = {k: v for k, v in os.environ.items()
               if k != "PYTHONINTMAXSTRDIGITS"}
        if limit is not None:
            env["PYTHONINTMAXSTRDIGITS"] = limit
        for flags in ([], ["--json"]):
            proc = subprocess.run(
                [sys.executable, "-m", "catlin", "boundary-system", *flags,
                 *UNPRINTABLE_R2],
                capture_output=True, text=True, env=env, timeout=120)
            runs.append((proc.returncode, proc.stdout, proc.stderr))
    assert runs == [(2, "", UNPRINTABLE)] * 4



def test_enumerate_exits_3_when_a_weight_fails_its_recheck(capsys,
                                                           monkeypatch):
    monkeypatch.setattr(cli, "is_admissible", lambda w: (False, None))
    code, out, err = run_cli(capsys, "enumerate", "--n", "2",
                             "--max-type", "4")
    assert (code, out) == (3, "")
    assert err == "error: enumerated weight (1, 2) is not admissible\n"


@pytest.mark.parametrize("example, name, replacement", [
    # the search finds another multitype
    ("weighted-model", "multitype_search", lambda r: weights.multitype_search(
        parse_poly("-2*Re(z1) + |z2|^4 + |z3|^6", 3))),
    # the Levi part is not certified by tier 2
    ("torsion", "psd_verdict",
     lambda p: argparse.Namespace(kind="Unknown", tier=None)),
    # the first block is not straightened: r_2 doubled
    ("torsion", "normalize_first_block", lambda bs: dataclasses.replace(
        bs, slow={**bs.slow, 2: dataclasses.replace(
            bs.slow[2], r_func=bs.slow[2].r_func * 2)})),
    # more weights than the counting bound
    ("counting", "counting_bound", lambda n, m: 0),
], ids=["weighted-model", "torsion-tier", "torsion-block", "counting"])
def test_a_failing_example_prints_fail_and_exits_3(capsys, monkeypatch,
                                                    example, name,
                                                    replacement):
    monkeypatch.setattr(cli, name, replacement)
    code, out, err = run_cli(capsys, "examples", "--only", example)
    assert (code, out, err) == (3, f"FAIL  {example}\n", "")
