"""Golden-bytes test of the command line.

Each case runs `gadsp.cli.main` in-process on the committed `samples/` files
and compares its stdout byte for byte, and its exit code, with the files in
`tests/golden/`.  A change that alters any output on purpose regenerates
them with

    PYTHONPATH=src python tests/test_golden.py

and says in CHANGES.md which bytes changed and why.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from gadsp.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
INSTANCES = ("fuchsian_resonant", "fuchsian_solvable", "irregular_order2",
             "pair_instance")
# A box of 7,776,000 points, above the 5,000,000 that a limit on the box's
# volume once refused: only the work its scan does bounds the decision.
CHECKED = INSTANCES + ("fuchsian_large_box",)
PAIR = ("samples/pair_instance.json", "samples/pair_tuple.json")
# An order-5 pole whose leading coefficient has three eigenvalues: its
# reduction takes four unipotent steps, and verify reads the x^3 coefficient
# of that gauge through factor_pole, so these bytes pin the gauge's value.
ORDER5 = ("samples/order5_instance.json", "samples/order5_tuple.json")


def _cases():
    cases = {}
    for name in CHECKED:
        path = "samples/%s.json" % name
        cases["check-%s" % name] = ["check", path]
        cases["check-%s-text" % name] = ["check", path, "--format", "text"]
        cases["check-%s-reduce" % name] = ["check", path, "--reduce"]
    for name in INSTANCES:
        path = "samples/%s.json" % name
        for fmt in ("json", "dot", "text"):
            cases["quiver-%s-%s" % (name, fmt)] = ["quiver", path, "--format", fmt]
    for index in ("1,1", "1,2", "2,1", "2,2"):
        cases["mc-%s" % index.replace(",", "")] = ["mc", *PAIR, "--index", index]
    cases["verify"] = ["verify", *PAIR]
    cases["verify-order5"] = ["verify", *ORDER5]
    cases["mc-order5-11"] = ["mc", *ORDER5, "--index", "1,1"]
    for seed in (1, 7):
        cases["selftest-seed%d" % seed] = ["selftest", "--seed", str(seed)]
    return cases


CASES = _cases()


def run(args):
    """(stdout bytes, exit code) of one in-process CLI call from the repo root."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out):
            code = main(args)
    finally:
        os.chdir(cwd)
    return out.getvalue().encode("utf-8"), code


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    out, code = run(CASES[name])
    exits = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    assert code == exits[name]
    assert out == (GOLDEN / (name + ".out")).read_bytes()


def regenerate():
    GOLDEN.mkdir(exist_ok=True)
    exits = {}
    for name, args in sorted(CASES.items()):
        out, exits[name] = run(args)
        (GOLDEN / (name + ".out")).write_bytes(out)
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(exits, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    regenerate()
