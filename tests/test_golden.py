"""Golden-output guard for the command line.

Each case runs ``catlin.cli.main(argv)`` in-process and compares stdout byte
for byte, and the exit code, with ``golden/cli.json``.  Refactors of the
exact core must keep these reports identical.  After an intended change of
output, rewrite the file with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from catlin.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli.json"

TORSION_EXPR = ("-2*Re(z1) + |z2|^6 + |z2|^2*|z3|^6 + |z2|^4*|z3|^2*|z4|^2"
                " + |z2|^2*|z3|^4*|z4|^4"
                " + 2*(1/10)*Re(z2*zbar2*z3^2*zbar3^3*z4*zbar4)"
                " + |z3|^8*|z4|^2")
TORSION_LIFT_EXPR = ("-2*Re(z1) + |z2|^6 + |z2|^2*|z3|^6 + |z2|^4*|z3|^2*|z4|^4"
                     " + |z2|^2*|z3|^4*|z4|^8"
                     " + 2*(1/10)*Re(z2*zbar2*z3^2*zbar3^3*z4^2*zbar4^2)"
                     " + |z3|^8*|z4|^4")
WEIGHTED = "-2*Re(z1) + |z2|^8 + |z2|^4*|z3|^6"
RANK_GAP = "Re(z1) + (Re(z2) + |z3|^2)^2"

CASES = {
    "parse-readme": ["parse", "--expr", "|z2|^4 + 2*Re(z2^2*zbar3^3)",
                     "--n", "3"],
    "multitype-weighted": ["multitype", "--expr", WEIGHTED, "--n", "3"],
    "multitype-rank-gap": ["multitype", "--expr", RANK_GAP, "--n", "3"],
    "multitype-harmonic": ["multitype", "--expr",
                           "-2*Re(z1) + 2*Re(z2^3) + |z2|^4 + |z3|^6",
                           "--n", "3"],
    "normalize-weighted": ["normalize", "--expr", WEIGHTED, "--n", "3"],
    "normalize-harmonic": ["normalize", "--expr",
                           "-2*Re(z1) + 2*Re(z2^5) + |z2|^4 + |z2|^2*|z3|^2",
                           "--n", "3", "--weight", "1,1/4,1/4"],
    "normalize-head-not-minus-one": ["normalize", "--expr", "Re(z1) + |z2|^4",
                                     "--n", "2", "--weight", "1,1/4"],
    "normalize-z1-in-p": ["normalize", "--expr",
                          "-2*Re(z1) + |z1|^2 + |z2|^4", "--n", "2",
                          "--weight", "1,1/4"],
    # z3 is active in the block, z2 is not: slot 2 takes a block change
    "normalize-block-direction": ["normalize", "--expr",
                                  "-2*Re(z1) + |z3|^4", "--n", "3",
                                  "--weight", "1,1/4,1/4"],
    # slot 2 degenerates: descent to (1, 1/10, 1/10), then a block change
    "normalize-descent": ["normalize", "--expr",
                          "-2*Re(z1) + |z2|^4*|z3|^6", "--n", "3",
                          "--weight", "1,1/4,1/6"],
    "boundary-readme": ["boundary-system", "--expr",
                        "-2*Re(z1) + |z2|^4 + |z3|^8", "--n", "3"],
    "boundary-rank-gap": ["boundary-system", "--expr", RANK_GAP, "--n", "3"],
    "boundary-nonlinear-z1": ["boundary-system", "--expr",
                              "-2*Re(z1) + 2*Re(z1^2) + |z2|^2", "--n", "2"],
    "boundary-imaginary-head": ["boundary-system", "--expr",
                                "2*Im(z1) + |z2|^2", "--n", "2"],
    "boundary-three-slow-slots": ["boundary-system", "--n", "4", "--expr",
                                  "-2*Re(z1) + |z2|^4 + 2*|z3|^6 + |z4|^8"],
    # the list derivative of slot 3 has no linear term along its direction
    "boundary-no-linear-term": ["boundary-system", "--n", "3", "--expr",
                                "-2*Re(z1) + |z2 + (3+1/3*i)*z3|^2"
                                " + |z3|^4"],
    "enumerate-n3-m11": ["enumerate", "--n", "3", "--max-type", "11"],
    "enumerate-n4-m8": ["enumerate", "--n", "4", "--max-type", "8"],
    "psd-tier1": ["psd", "--expr",
                  "|z2|^4 + |z3|^6 + 2*(9/10)*Re(z2^2*zbar3^3)", "--n", "3"],
    "psd-tier2-full-model": ["psd", "--expr", TORSION_EXPR, "--n", "4"],
    "psd-refuted": ["psd", "--expr", "2*Re(z2^2*zbar3^3)", "--n", "3"],
    "psd-unknown": ["psd", "--expr",
                    "|z2|^4 + |z3|^4 + 2*(1/3)*Re(z2^3*zbar3)", "--n", "3"],
    "psd-unknown-psh": ["psd", "--expr", "(Re(z2))^2", "--n", "2"],
    # every diagonal entry of the Levi matrix is zero: the congruence
    # starts from a hyperbolic pair
    "psd-hyperbolic": ["psd", "--n", "3", "--expr", "2*Re(z2*zbar3)"],
    "torsion": ["torsion", "--expr", TORSION_EXPR, "--n", "4"],
    "torsion-lift": ["torsion", "--expr", TORSION_LIFT_EXPR, "--n", "4"],
}


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv + ["--json"])
    return {"exit": code, "stdout": out.getvalue()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_cli(name):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    assert run(CASES[name]) == expected


def test_golden_cases_in_one_process():
    # each case after every other, in both orders: no call leaves state
    # behind that changes a later one
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    names = sorted(CASES)
    for name in names + names[::-1]:
        assert run(CASES[name]) == golden[name], name


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    blob = {name: run(argv) for name, argv in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(blob, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
