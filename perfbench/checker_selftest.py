"""The checker's own test: it passes gadsp's real outputs and rejects
tampered certificates, flipped verdicts and corrupted matrix outputs.

    python3 perfbench/checker_selftest.py

Run from the root of a gadsp checkout.  Exits 0 when every expectation
holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import sys
import tempfile
from fractions import Fraction

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from gadsp import builder, serialize, sigma, spectral  # noqa: E402
from gadsp.numeric import ONE  # noqa: E402

import checker  # noqa: E402
import convert  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def _fuchsian(values):
    """Rank 2, three order-1 poles with the given eigenvalue pairs."""
    labels = ("infinity", "a1", "a2")
    return {"rank": 2, "poles": [
        {"point": label, "order": 1, "blocks": [
            {"size": 2, "q": [], "residue": {"jordan": [
                {"value": a, "blocks": [1]}, {"value": b, "blocks": [1]}]}}]}
        for label, (a, b) in zip(labels, values)]}


RESONANT = _fuchsian([("-1/4", "-1/2"), ("0", "1/4"), ("0", "1/2")])
SOLVABLE = _fuchsian([("-1/3", "-1/5"), ("0", "1/4"), ("0", "17/60")])
IRREGULAR = {"rank": 2, "poles": [
    {"point": "infinity", "order": 2, "blocks": [
        {"size": 1, "q": ["1"], "residue": {"jordan": [{"value": "1/2", "blocks": [1]}]}},
        {"size": 1, "q": ["2"], "residue": {"jordan": [{"value": "-1/2", "blocks": [1]}]}}]},
    {"point": "a1", "order": 1, "blocks": [
        {"size": 2, "q": [], "residue": {"jordan": [
            {"value": "1i", "blocks": [1]}, {"value": "-1i", "blocks": [1]}]}}]}]}


class Expect:
    def __init__(self):
        self.passed = 0
        self.failures = []

    def clean(self, what, problems):
        self.holds(what, not problems, "reported %s" % problems)

    def rejects(self, what, problems):
        self.holds(what, bool(problems), "passed a corrupted output")

    def holds(self, what, ok, detail):
        if ok:
            self.passed += 1
        else:
            self.failures.append("%s: %s" % (what, detail))


def instance(doc):
    data, _ = spectral.normalize(serialize.parse_spectral(doc))
    return builder.build_instance(data)


def fuchsian_cases(ex):
    for name, doc in (("resonant", RESONANT), ("solvable", SOLVABLE)):
        inst = instance(doc)
        qc, lam = convert.quiver_check(inst), convert.lam(inst)
        tilde = convert.verdict(sigma.sigma_tilde_member(inst))
        plain = convert.verdict(sigma.sigma_member(inst.quiver, inst.alpha, inst.lam))
        ex.clean(name, checker.check_fuchsian(qc, inst.alpha, lam, tilde, plain, 10**4))
        flipped = dict(tilde, solvable=not tilde["solvable"])
        ex.rejects(name + " flipped verdict",
                   checker.check_fuchsian(qc, inst.alpha, lam, flipped, plain, 10**4))
        # a flipped verdict on a box too large for brute force
        ex.rejects(name + " flipped verdict, no brute force",
                   checker.check_verdict(qc, inst.alpha, lam, flipped, True, 0))
        if tilde["certificate"]["kind"] == "violating_decomposition":
            cert = tilde["certificate"]
            a, b = (list(p) for p in cert["parts"])
            k = next(k for k in range(len(a)) if a[k] and not b[k])
            a[k] -= 1
            b[k] += 1
            moved = dict(cert, parts=[tuple(a), tuple(b)])
            ex.rejects("tampered decomposition",
                       checker.check_verdict(qc, inst.alpha, lam,
                                             dict(tilde, certificate=moved), True, 0))
            lying = dict(cert, p_values=[p + 1 for p in cert["p_values"]])
            ex.rejects("tampered p-values",
                       checker.check_verdict(qc, inst.alpha, lam,
                                             dict(tilde, certificate=lying), True, 0))


def cli_cases(ex):
    inst = instance(IRREGULAR)
    qc, lam = convert.quiver_check(inst), convert.lam(inst)
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        path = os.path.join(tmp, "irregular.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(IRREGULAR, fh)
        code, text = workloads.cli_call(path)({})
    doc = json.loads(text)
    ex.clean("cli check", checker.check_cli_check(qc, inst.alpha, lam, code, doc, True, 10**4))
    ex.rejects("cli exit code", checker.check_cli_check(qc, inst.alpha, lam, 1 - code,
                                                        doc, None, 10**4))
    flipped = dict(doc, solvable=False, certificate=None)
    flipped.pop("reduction")
    ex.rejects("cli flipped verdict", checker.check_cli_check(qc, inst.alpha, lam, 1,
                                                              flipped, None, 0))
    steps = doc["reduction"]["steps"]
    if steps:
        bad = copy.deepcopy(doc)
        bad["reduction"]["steps"] = steps[1:]
        ex.rejects("reduction with a step dropped",
                   checker.check_reduction(qc, inst.alpha, lam, bad["reduction"]))
        bad = copy.deepcopy(doc)
        bad["reduction"]["steps"][0]["value"] = "7"
        ex.rejects("reduction with a wrong lambda value",
                   checker.check_reduction(qc, inst.alpha, lam, bad["reduction"]))


def matrix_cases(ex):
    group = workloads.load_matrix(os.path.join(HERE, "inputs"))[0]
    ctx = {}
    for op in group:
        out = op.call(ctx)
        ex.clean("%s %s" % (op.kind, op.key), op.check(out, ctx))
    mc_op, rep_op = group[0], group[-1]
    res = ctx["mc"]
    first = res.output.parts[0]
    corrupt = first[0].add_scalar(ONE)
    bad = type(res.output)(res.output.n, res.output.orders,
                           ((corrupt,) + tuple(first[1:]),) + res.output.parts[1:])
    ex.rejects("mc output with a shifted residue",
               mc_op.check(type(res)(bad, res.dim_w, res.n_shift, res.xi_new,
                                     res.predicted), ctx))
    ex.rejects("mc output with a wrong rank",
               mc_op.check(type(res)(res.output, res.dim_w + 1, res.n_shift,
                                     res.xi_new, res.predicted), ctx))
    rep, mu = rep_op.call(ctx)
    ex.rejects("moment values off by one",
               rep_op.check((rep, [m.add_scalar(ONE) for m in mu]), ctx))
    for op in group[1:-1]:
        ex.rejects("flipped %s %s" % (op.kind, op.key), op.check(not op.call(ctx), ctx))
    shifted = {"mc": type(res)(bad, res.dim_w, res.n_shift, res.xi_new, res.predicted)}
    ex.rejects("orbit_member true on a shifted pole part",
               group[1].check(True, shifted))
    g = [[(Fraction(v), Fraction(0)) for v in row] for row in ((3, 5), (7, 11))]
    a2 = [[(Fraction(1), Fraction(0)), checker.ZERO],
          [checker.ZERO, (Fraction(2), Fraction(0))]]
    blocks = [((a2[0][0],), 1, (g[0][0],), (0,), False),
              ((a2[1][1],), 1, (g[1][1],), (0,), False)]
    ex.holds("order-2 part in its orbit",
             checker.orbit_member([g, a2], blocks), "False")
    blocks[1] = (blocks[1][0], 1, ((Fraction(12), Fraction(0)),), (0,), False)
    ex.holds("order-2 part outside a shifted orbit",
             not checker.orbit_member([g, a2], blocks), "True")
    one = [[(Fraction(1), Fraction(0))]]
    diag = [[(Fraction(1), Fraction(0)), checker.ZERO],
            [checker.ZERO, (Fraction(2), Fraction(0))]]
    ex.holds("rank-1 tuple is irreducible", checker.irreducible([one], 1), "False")
    ex.holds("diagonal tuple is reducible", not checker.irreducible([diag], 2), "True")


def main():
    ex = Expect()
    fuchsian_cases(ex)
    cli_cases(ex)
    matrix_cases(ex)
    for failure in ex.failures:
        print("FAIL", failure)
    print("checker self-test: %d expectations held, %d failed"
          % (ex.passed, len(ex.failures)))
    return 1 if ex.failures else 0


if __name__ == "__main__":
    sys.exit(main())
