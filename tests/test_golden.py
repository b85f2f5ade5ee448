"""Pinned outputs of the command line: the one runner and the one writer.

Two files under ``golden/`` pin what ``catlin.cli.main`` prints:

* ``cli.json`` holds the whole ``--json`` stdout and the exit code of each
  case of ``CASES``, so a changed report reads as a diff;
* ``corpus.json`` holds one line per run: its literal argv and the SHA-256
  of its (exit code, stdout, stderr), as ``digest`` forms it.  The runs are
  the comparison corpus that every refactor is checked against, as
  ``corpus_runs`` names them, each as JSON and as text: every golden case;
  every job, after-job and known defect of the benchmark's workloads at
  seeds 5, 7 and 23; `multitype`, `boundary-system` and `torsion` on each
  benchmark model (`multitype --commutator` as text, since its JSON is
  `multitype`'s); the scaled diagonal, reversed and quartic families; the
  CI, FOUND, test and large-coefficient models under every command;
  `enumerate`, `normalize --weight`, the long lists and `examples`.  Then
  every command the CI workflow ran by hand (``CI_RUNS``), as it ran, and
  the reproducers of ROADMAP items 1-4 (``KNOWN_DEFECTS``).

An entry may also carry ``bound``, the most seconds its run may take (the
``timeout`` the command had in CI), and ``known-defect``, the ROADMAP item
whose defect the run shows as it behaves today, so that a fix shows as a
changed digest and not as a missing run.

Every run replays in-process, one after another in one process, from the
repository root: a run that reads a file names it relative to the root
(``tests/golden/inputs``), so no argv or stderr holds a machine's path.
The replay also checks that each ``--json`` stdout is what this Python's
``json.dumps(indent=2, sort_keys=True)`` writes, and re-checks every
``psd --json`` answer: each certificate passes ``verify_psd_certificate``
and each witness replays to the negative value it prints, so a rewritten
digest never pins an unsound answer.

After an intended change of output, rewrite both files with

    PYTHONPATH=src python tests/test_golden.py --write

It prints one line per corpus run whose digest changed, and per run added
or removed, as ``changed|added|removed: catlin <argv>``: the list of runs a
change of output names.  Run from outside the checkout, the test replays
against whichever ``catlin`` Python imports, an installed wheel included;
CI replays it so on every Python of its matrix, under two hash seeds.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import shlex
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from catlin.cli import _join_expr, _load_poly, build_parser, main
from catlin.levi import (KIND_CERTIFIED, KIND_REFUTED, replay_refutation,
                         verify_psd_certificate)
from catlin.poly import split_model

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden" / "cli.json"
CORPUS = Path(__file__).parent / "golden" / "corpus.json"
INPUTS = "tests/golden/inputs"   # relative to ROOT, where runs replay

TORSION_EXPR = ("-2*Re(z1) + |z2|^6 + |z2|^2*|z3|^6 + |z2|^4*|z3|^2*|z4|^2"
                " + |z2|^2*|z3|^4*|z4|^4"
                " + 2*(1/10)*Re(z2*zbar2*z3^2*zbar3^3*z4*zbar4)"
                " + |z3|^8*|z4|^2")
MODEL = "-2*Re(z1) + "


def _torsion_lift(k):
    """The torsion model with z4 -> z4^k; k = 1 is TORSION_EXPR's model."""
    return (f"{MODEL}|z2|^6 + |z2|^2*|z3|^6 + |z2|^4*|z3|^2*|z4|^{2 * k}"
            f" + |z2|^2*|z3|^4*|z4|^{4 * k}"
            f" + 2*(1/10)*Re(z2*zbar2*z3^2*zbar3^3*z4^{k}*zbar4^{k})"
            f" + |z3|^8*|z4|^{2 * k}")


TORSION_LIFT_EXPR = _torsion_lift(2)
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
    code, out, _err = outcome(argv + ["--json"])
    return {"exit": code, "stdout": out}


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


# ----------------------------------------------------------------------
# the corpus
# ----------------------------------------------------------------------

DIAGONAL = [MODEL + " + ".join(f"|z{j}|^{2 * j}" for j in range(2, n + 1))
            for n in range(10)]          # DIAGONAL[n]: |z2|^4 + ... + |zn|^2n
REVERSED_9 = MODEL + " + ".join(f"|z{j}|^{22 - 2 * j}" for j in range(2, 10))
# 24 diagonal terms and a mixed term with 12 splittings
SPLIT = " + ".join(["*".join(f"|z{j}|^{2 * e}" for j, e in ((2, a), (3, b)) if e)
                    for a in range(5) for b in range(5) if a or b]
                   + ["40*Re(z2^4*zbar3^4)"])
BS_EXPR = MODEL + "|z2|^4 + |z3|^8"
LONG_LIST = MODEL + "|z2|^400*|z2|^400*|z2|^400"


def quartic(n):
    return " + ".join(f"|z{j}|^4" for j in range(2, n + 1))


# Every catlin command of the CI workflow's installed-script step but
# --help and the unknown option (argparse writes those, and its text moves
# between Python versions), with the timeout each had as its bound.
CI_RUNS = [
    (None, ["examples"]),
    (None, ["torsion", "--json", "--n", "4", "--expr", TORSION_EXPR]),
    # refuted at a structured point with no sample drawn, and refuted at
    # the fifth random point; both witnesses replay
    (None, ["psd", "--json", "--n", "3", "--expr",
            "|z2|^4 + |z3|^4 + 2*(1/3)*Re(z2^3*zbar3)"]),
    (None, ["psd", "--json", "--n", "3", "--expr",
            "2*Re(i*z2*zbar3^2) + 3*|z3|^4 + 2*|z2|^2*|z3|^2"]),
    # plurisubharmonic but not certified: Unknown, and exit 4 under
    # --require-certificate
    (None, ["psd", "--json", "--n", "2", "--expr", "(Re(z2))^2"]),
    (None, ["psd", "--require-certificate", "--n", "2", "--expr",
            "(Re(z2))^2"]),
    (None, ["psd", "--n", "1", "--expr", "-1"]),
    (None, ["normalize", "--assert-psc", "--n", "3", "--expr",
            MODEL + "2*(1/4)*Re(z2^2*zbar3^3)"]),
    (None, ["normalize", "--json", "--n", "3", "--weight", "1,1/4,1/4",
            "--expr", MODEL + "|z3|^4"]),
    (None, ["normalize", "--json", "--n", "4", "--weight", "1,1/4,1/4,1/4",
            "--expr", MODEL + "|z2*z4 - z3^2|^2"]),
    (None, ["enumerate", "--json", "--n", "3", "--max-type", "11"]),
    (None, ["enumerate", "--json", "--n", "4", "--max-type", "16"]),
    (10, ["enumerate", "--n", "3", "--max-type", "1000000"]),
    (10, ["parse", "--json", "--n", "1000000", "--expr", "|z2|^2"]),
    (None, ["torsion", "--n", "3", "--expr",
            MODEL + "|z2|^4 + |z3|^8 + 2*(1/10)*Re(z2*zbar2^2*z3*zbar3)"]),
    (None, ["multitype", "--json", "--n", "5", "--expr",
            MODEL + "|z2|^6 + |z3+z4|^6 + |z4|^12 + |z5|^8"]),
    (10, ["multitype", "--json", "--n", "9", "--expr", REVERSED_9]),
    (None, ["multitype", "--json", "--commutator", "--n", "4", "--expr",
            TORSION_EXPR]),
    (None, ["multitype", "--json", "--n", "3", "--expr",
            MODEL + "|z2|^4 + |z3|^4 + 2*(1/3)*Re(z2^3*zbar3)"]),
    (None, ["boundary-system", "--json", "--n", "4", "--expr",
            MODEL + "|z2|^8 + |z3|^6 + |z4|^4 + |z2|^4*|z4|^2"]),
    (None, ["boundary-system", "--json", "--n", "4", "--expr",
            MODEL + "|z3|^4 + 2*|z4|^6 + |z3|^2*|z4|^4 + |z2|^2*|z3|^2*|z4|^2"
            " + |z2|^8"]),
    (None, ["boundary-system", "--json", "--n", "4", "--expr",
            MODEL + "|z2 + z3^2|^2 + |z3|^6 + |z4 + z3^2|^4"]),
    (10, ["boundary-system", "--json", "--n", "4", "--expr",
          _torsion_lift(3)]),
    (10, ["boundary-system", "--json", "--n", "9", "--expr", DIAGONAL[9]]),
    (10, ["boundary-system", "--json", "--n", "5", "--expr",
          MODEL + "|z2|^4 + |z3|^4 + |z4|^6 + |z5|^8"]),
    (10, ["boundary-system", "--json", "--n", "4", "--expr",
          MODEL + quartic(4)]),
    # a model written out as canonical JSON (inputs/model.json) and read
    # back: the same boundary system, byte for byte
    (None, ["parse", "--json", "--n", "3", "--expr", BS_EXPR]),
    (None, ["boundary-system", "--json", f"{INPUTS}/model.json"]),
    (None, ["boundary-system", "--json", "--n", "3", "--expr", BS_EXPR]),
    (10, ["psd", "--json", "--n", "7", "--expr",
          quartic(7) + " + 2*(1/3)*Re(z2^3*zbar3)"]),
    (10, ["multitype", "--n", "12", "--expr", MODEL + quartic(12)]),
    (10, ["psd", "--n", "8", "--expr",
          quartic(8) + " + 2*(1/3)*Re(z2^3*zbar3)"]),
    (10, ["parse", "--n", "2", "--expr", "(" * 300 + "|z2|^2" + ")" * 300]),
    (10, ["parse", "--n", "2", "--expr", "-" * 5000 + "|z2|^2"]),
    # inputs/deep.json nests 20,000 arrays: past cli.MAX_JSON_DEPTH, which
    # is checked before the decoder runs
    (10, ["parse", f"{INPUTS}/deep.json"]),
    (10, ["parse", "--n", "2", "--expr", "z2^" + "9" * 5000]),
    (10, ["parse", "--n", "2", "--expr", "9^5000"]),
    (None, ["psd", "--n", "3", "--expr", "2*Re(z2*zbar3)"]),
    (10, ["normalize", "--json", "--n", "6", "--expr",
          MODEL + "|z2|^4 + |z3|^6 + |z4|^6 + |z5|^8 + |z6|^10"]),
    (10, ["normalize", "--json", "--n", "6", "--expr",
          MODEL + " + ".join(f"|z{j}|^{128 + 2 * j}" for j in range(2, 7))]),
    (10, ["multitype", "--json", "--n", "3", "--expr",
          MODEL + "|z2 + z3^5|^2 + |z3|^12"]),
    (10, ["parse", "--n", "2", "--expr", "9^4000*9^4000"]),
    (10, ["parse", "--n", "2", "--expr", "(1/3)^9000 + (1/7)^5000"]),
    (10, ["parse", "--n", "2", "--expr", "Re((3+4*i)^" + "9" * 600 + ")"]),
    # a JSON model that is not real-valued
    (None, ["parse", f"{INPUTS}/nonreal.json"]),
    (10, ["psd", "--n", "3", "--expr", SPLIT]),
    (10, ["boundary-system", "--n", "3", "--expr", MODEL + SPLIT]),
    (None, ["parse", "--n", "2", "--expr", "z2 + $"]),
    (None, ["parse", "--n", "2", "--expr", "3"]),
    (None, ["torsion", "--n", "4", "--expr",
            MODEL + "|z2|^6 + |z3|^8 + |z4|^10"]),
    (None, ["torsion", "--n", "4", "--expr",
            MODEL + "|z2|^4 + |z3|^6 + |z2|^2*|z4|^2"]),
    (None, ["torsion", "--n", "4", "--expr",
            MODEL + "|z2 + z4^2|^4 + |z3|^12 + |z4|^8"]),
    (20, ["boundary-system", "--json", "--n", "7", "--expr", DIAGONAL[7]]),
    (30, ["boundary-system", "--json", "--n", "8", "--expr", DIAGONAL[8]]),
    (10, ["boundary-system", "--json", "--n", "2", "--expr", LONG_LIST]),
    (10, ["parse", "--n", "3", "--expr",
          "Re((1/3)^9000*z2*zbar3 + (1/7)^5000*z3*zbar2)"]),
    # a JSON coefficient, a weight entry and a type bound that are not
    # RATIONALs
    (5, ["parse", f"{INPUTS}/exponent.json"]),
    (5, ["normalize", "--n", "3", "--weight", "1,1/4,1e-99999999", "--expr",
         MODEL + "|z2|^4 + |z3|^6"]),
    (None, ["enumerate", "--n", "2", "--max-type", "4.5"]),
]

# The reproducers of ROADMAP items 1-4 that finish, as they behave today.
KNOWN_DEFECTS = [
    # item 1: the build tries only the catalog directions
    (1, ["boundary-system", "--n", "3", "--expr",
         MODEL + "|z2*z3*(z3 - z2)*(z3 - 2*z2)*(z3 + z2)|^2 + |z2|^12"
         " + |z3|^12"]),
    (1, ["multitype", "--commutator", "--n", "3", "--expr",
         MODEL + "|z2*z3*(z3 - z2)*(z3 - 2*z2)*(z3 + z2)|^2 + |z2|^12"
         " + |z3|^12"]),
    *((1, [*command.split(), "--n", "4", "--expr",
           MODEL + "|z2*z3^2 - z2^2*z4|^2 + |z2|^8 + " + tail])
      for tail in ("|z3|^8 + |z4|^8", "|z3|^12 + |z4|^12",
                   "|z3|^20 + |z4|^20", "|z3|^10 + |z4|^14")
      for command in ("boundary-system", "multitype --commutator")),
    # item 2: normalize keeps the input coordinates; torsion refuses a
    # direction off the axes and an odd first block
    (2, ["normalize", "--n", "4", "--expr", MODEL + "|z2|^6 + |z3|^4 + |z4|^8"]),
    (2, ["normalize", "--n", "5", "--expr",
         MODEL + "|z2|^6 + |z3+z4|^6 + |z4|^12 + |z5|^8"]),
    (2, ["normalize", "--assert-psc", "--n", "4", "--expr",
         MODEL + "2*(1/2)*Re(z2^2*zbar3^3) + (2/3)*|z4|^4"]),
    (2, ["normalize", "--n", "3", "--expr", MODEL + "|z2 + z3^5|^2 + |z3|^12"]),
    (2, ["torsion", "--n", "3", "--expr", MODEL + "|z2 + z3|^2 + |z3|^4"]),
    (2, ["torsion", "--n", "3", "--expr", MODEL + "2*(1/4)*Re(z2^2*zbar3^3)"]),
    # item 3: r_j formed uncapped, refused above its exact degree
    (3, ["boundary-system", "--n", "3", "--expr",
         MODEL + "|z2|^4 + |z2|^2*|z3|^2 + |z3|^2"]),
    (3, ["multitype", "--commutator", "--n", "3", "--expr",
         MODEL + "|z2|^4 + |z2|^2*|z3|^2 + |z3|^2"]),
    # item 4: the first block is not straightened to r_j = Re z_j
    (4, ["torsion", "--n", "4", "--expr",
         MODEL + "|z2|^4 + |z3|^4 + |z4|^8 + 2*(1/4)*Re(z2*z3*zbar3^2)"
         " + |z3|^2*|z4|^4"]),
    (4, ["torsion", "--n", "3", "--expr",
         MODEL + "|z2|^4 + 2*(1/4)*Re((1+i)*z2*zbar2^3) + |z3|^8"
         " + |z2 + z3^2|^4"]),
]

# Models of the CI workflow, of FOUND notes, of the tests and with large
# coefficients, each run under every command that reads a model.
EXTRA_MODELS = [
    (TORSION_EXPR, 4), (TORSION_LIFT_EXPR, 4), (_torsion_lift(3), 4),
    (MODEL + "|z3|^4", 3), (MODEL + "|z2*z4 - z3^2|^2", 4),
    (MODEL + "2*(1/4)*Re(z2^2*zbar3^3)", 3),
    (MODEL + "|z2|^4 + |z3|^8 + 2*(1/10)*Re(z2*zbar2^2*z3*zbar3)", 3),
    (MODEL + "|z2|^6 + |z3+z4|^6 + |z4|^12 + |z5|^8", 5),
    (MODEL + "|z2|^4 + |z3|^4 + 2*(1/3)*Re(z2^3*zbar3)", 3),
    (MODEL + "|z2|^8 + |z3|^6 + |z4|^4 + |z2|^4*|z4|^2", 4),
    (MODEL + "|z2 + z3^2|^2 + |z3|^6 + |z4 + z3^2|^4", 4),
    (MODEL + "|z2|^4 + |z3|^4 + |z4|^6 + |z5|^8", 5),
    (BS_EXPR, 3), (MODEL + "|z2 + z3^5|^2 + |z3|^12", 3),
    (MODEL + "|z2|^4 + |z3|^6 + |z4|^6 + |z5|^8 + |z6|^10", 6),
    (MODEL + "|z2|^6 + |z3|^8 + |z4|^10", 4),
    (MODEL + "|z2|^4 + |z3|^6 + |z2|^2*|z4|^2", 4),
    (MODEL + "|z2 + z4^2|^4 + |z3|^12 + |z4|^8", 4),
    # tiers 1 and 2 certify no shear model as given (psd answers Unknown),
    # the build's gate only after the shear read off it; a negative
    # constant and a pluriharmonic term block a certificate
    (MODEL + "|z2 + (1/2)*z3^2|^4 + (3)*|z3|^8", 3),
    ("|z2|^2 - 1", 3), ("|z2|^4 + 2*Re(z2^3)", 3),
    # the mixed models of the boundary tests, and a list of larger value
    (MODEL + "|z2|^4 + |z3|^6 + |z4|^8 + |z2*z4^2|^2 + |z2*z3*z4 + z3^3|^2", 4),
    (MODEL + "|z2|^4 + 2*|z3|^6 + |z4|^8 + |z2*z4^2 + (1/2)*z2^2|^2"
     " + |z2*z3*z4 + (1+i)*z3^3|^2", 4),
    (MODEL + "|z4|^4 + |z3|^6 + |z2|^8 + |z4*z2^2|^2 + |z4*z3*z2 + z3^3|^2", 4),
    (MODEL + "|z3|^4 + |z2|^6 + |z4|^8 + |z3*z4^2|^2 + |z3*z2*z4 + z2^3|^2", 4),
    (MODEL + "|z3|^4 + 2*|z4|^6 + |z3|^2*|z4|^4 + |z2|^2*|z3|^2*|z4|^2"
     " + |z2|^8", 4),
    (MODEL + "|z2|^4 + |z3|^6 + |z2|^2*|z3|^4", 3),
    # large coefficients: one that prints, and one whose boundary system
    # has coefficients past MAX_PRINTED_DIGITS digits
    (MODEL + "(123456789012345678901234567890/7)*|z2|^4 + |z3|^8"
     " + 2*(99999999999999999999/3)*Re(z2^2*zbar3^4)", 3),
    (MODEL + "|z2|^2 + 2*Re((7^4000)*z2*zbar3^2) + |z3|^6", 3),
]
MODEL_COMMANDS = (["parse"], ["multitype"], ["multitype", "--commutator"],
                  ["psd"], ["normalize"], ["normalize", "--assert-psc"],
                  ["boundary-system"], ["torsion"])
WEIGHTS = ("1,1/8,1/12", "1,1/4,1/6", "1,1/8,1/8", "1,1/10,1/10", "1,1/2,1/2")
WEIGHT_MODELS = (WEIGHTED, MODEL + "|z2|^4 + |z3|^6", MODEL + "|z2|^4*|z3|^6")


def _as_json_and_text(argv):
    """``argv`` with ``--json`` after its command, then without."""
    text = [a for a in argv if a != "--json"]
    return [[text[0], "--json", *text[1:]], text]


def corpus_runs():
    """Each corpus run's argv tuple and its entry's extra fields (``bound``,
    ``known-defect``), in corpus order; a run named twice merges them."""
    from helpers import _workloads, benchmark_models
    runs = {}

    def add(argv, both=True, **extra):
        for one in _as_json_and_text(argv) if both else [argv]:
            runs.setdefault(tuple(one), {}).update(extra)

    def add_model(command, expr, n):
        # --commutator changes the text only: its JSON is multitype's
        add([*command, "--n", str(n), "--expr", expr],
            both=command != ["multitype", "--commutator"])

    for name in sorted(CASES):
        add(CASES[name])
    workloads = _workloads()
    for seed in (5, 7, 23):
        for name in ("normalize", "boundary", "positivity"):
            w = workloads.WORKLOADS[name]
            for job in (w.make(random.Random(seed))
                        + w.after(random.Random(seed)) + w.known_defects()):
                add(job.argv())
    for expr, n in benchmark_models():
        for command in (["multitype"], ["multitype", "--commutator"],
                        ["boundary-system"], ["torsion"]):
            add_model(command, expr, n)
    for n in range(3, 9):
        add(["boundary-system", "--n", str(n), "--expr", DIAGONAL[n]])
    for expr in (DIAGONAL[9], REVERSED_9):
        add(["multitype", "--commutator", "--n", "9", "--expr", expr])
    for n in range(3, 10):
        add(["multitype", "--commutator", "--n", str(n), "--expr",
             MODEL + quartic(n)])
    for n in range(3, 7):
        for command in ("boundary-system", "torsion"):
            add([command, "--n", str(n), "--expr", MODEL + quartic(n)])
    for expr, n in EXTRA_MODELS:
        for command in MODEL_COMMANDS:
            add_model(command, expr, n)
    for n, m in ((2, "4"), (3, "6"), (3, "11"), (4, "8"), (4, "16")):
        add(["enumerate", "--n", str(n), "--max-type", m])
    for expr in WEIGHT_MODELS:
        for weight in WEIGHTS:
            add(["normalize", "--n", "3", "--weight", weight, "--expr", expr])
    add(["examples"], both=False)
    # lists longer than Python's recursion limit; inputs/long.json holds
    # -2*Re(z1) + |z2|^2000 + |z3|^4
    for argv in (["boundary-system", "--n", "2", "--expr", LONG_LIST],
                 ["boundary-system", "--n", "3", "--expr",
                  LONG_LIST + " + |z3|^4"],
                 ["torsion", "--n", "3", "--expr",
                  MODEL + "|z2|^4 + |z3|^400*|z3|^400*|z3|^400"],
                 ["boundary-system", f"{INPUTS}/long.json"],
                 ["multitype", f"{INPUTS}/long.json"]):
        add(argv)
    for bound, argv in CI_RUNS:
        add(argv, both=False, **({} if bound is None else {"bound": bound}))
    for item, argv in KNOWN_DEFECTS:
        add(argv, **{"known-defect": item})
    return runs


def digest(code, out, err):
    """SHA-256 of a run's (exit code, stdout, stderr), as a JSON array."""
    blob = json.dumps([code, out, err]).encode("ascii")
    return hashlib.sha256(blob).hexdigest()


@contextlib.contextmanager
def _at_root():
    """Run from the repository root, where the inputs' paths start."""
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        yield
    finally:
        os.chdir(cwd)


def outcome(argv):
    """(exit code, stdout, stderr) of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def shown(argv):
    """``argv`` as a shell command, each token of more than 120 characters
    cut to its head and length."""
    return "catlin " + shlex.join(
        a if len(a) <= 120 else f"{a[:60]}...[{len(a)} characters]"
        for a in argv)


def load_corpus():
    return json.loads(CORPUS.read_text(encoding="utf-8"))["runs"]


def _unsound(argv, out):
    """Why a ``psd --json`` answer does not replay, or None: a certificate
    must pass ``verify_psd_certificate`` and a witness must replay to the
    negative value it prints."""
    p = _load_poly(build_parser().parse_args(_join_expr(list(argv))))
    tangential = split_model(p)[1] if p.degree_in(1) > 0 else p
    d = json.loads(out)
    if d["kind"] == KIND_CERTIFIED \
            and not verify_psd_certificate(tangential, d["certificate"]):
        return "certificate does not replay"
    if d["kind"] == KIND_REFUTED:
        value = replay_refutation(tangential, d["witness"])
        if not value == Fraction(d["witness"]["value"]) < 0:
            return f"witness replays to {value}, prints " \
                f"{d['witness']['value']}"
    return None


def check_run(entry, code, out, err, seconds):
    """Each way one replayed run differs from its entry."""
    argv = entry["argv"]
    problems = []
    if digest(code, out, err) != entry["sha256"]:
        problems.append(f"digest differs (exit {code}, stderr "
                        f"{err[:300]!r}, stdout {out[:300]!r})")
    if seconds > entry.get("bound", float("inf")):
        problems.append(f"took {seconds:.2f} s, bound {entry['bound']} s")
    if "--json" in argv and out and json.dumps(
            json.loads(out), indent=2, sort_keys=True) + "\n" != out:
        problems.append("stdout is not json.dumps(indent=2, sort_keys=True)")
    if argv[0] == "psd" and "--json" in argv and code == 0:
        why = _unsound(argv, out)
        if why:
            problems.append(why)
    return problems


def test_corpus_replays():
    entries = load_corpus()
    failures = []
    with _at_root():
        for entry in entries:
            start = time.perf_counter()
            code, out, err = outcome(entry["argv"])
            problems = check_run(entry, code, out, err,
                                 time.perf_counter() - start)
            failures += [f"{shown(entry['argv'])}: {p}" for p in problems]
    assert not failures, f"{len(failures)} of {len(entries)} runs:\n" \
        + "\n".join(failures)


def _by_argv():
    return {tuple(e["argv"]): e for e in load_corpus()}


def test_a_json_model_file_gives_the_expression_s_system():
    # inputs/model.json is what `parse --json` prints for BS_EXPR, and the
    # system read from it is the expression's, byte for byte
    runs = _by_argv()
    with _at_root():
        assert outcome(["parse", "--json", "--n", "3", "--expr", BS_EXPR]) \
            == (0, Path(INPUTS, "model.json").read_text(encoding="utf-8"), "")
    from_file = runs[("boundary-system", "--json", f"{INPUTS}/model.json")]
    from_expr = runs[("boundary-system", "--json", "--n", "3", "--expr",
                      BS_EXPR)]
    assert from_file["sha256"] == from_expr["sha256"]


def test_the_corpus_holds_every_run_its_writer_names():
    # the committed argv are the writer's, in its order, with its marks
    runs = corpus_runs()
    assert [(e["argv"], {k: v for k, v in e.items()
                         if k not in ("argv", "sha256")})
            for e in load_corpus()] == [(list(a), x) for a, x in runs.items()]


def main_write():
    """Rewrite cli.json and corpus.json, printing each corpus run whose
    digest changed, was added or was removed."""
    blob = {name: run(argv) for name, argv in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(blob, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    old = _by_argv() if CORPUS.exists() else {}
    entries = []
    with _at_root():
        for argv, extra in corpus_runs().items():
            entry = {"argv": list(argv), "sha256": digest(*outcome(argv)),
                     **extra}
            entries.append(entry)
            before = old.pop(argv, None)
            if before is None:
                print("added:", shown(argv))
            elif before["sha256"] != entry["sha256"]:
                print("changed:", shown(argv))
    for argv in old:
        print("removed:", shown(argv))
    lines = ",\n".join(json.dumps(e, sort_keys=True) for e in entries)
    CORPUS.write_text('{"runs": [\n' + lines + "\n]}\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    main_write()
