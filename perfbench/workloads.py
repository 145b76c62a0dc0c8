"""The three workloads: input loading, operations and their answer checks.

A workload is a list of groups; a group is a list of operations run one
after another, sharing a context dict (a matrix-mc group passes the middle
convolution's output on to the operations that inspect it).  One round runs
every group once, in an order drawn from the seed.  Calls into gadsp go
through module attributes (`sigma.sigma_member`, `cli.main`, ...) so that the
traced run can wrap them where the program looks them up.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, replace
from typing import Callable

from gadsp import builder, cli, matrixops, serialize, sigma, spectral
from gadsp.numeric import ONE

import checker
import convert

# Boxes up to this volume also get the brute-force Sigma decision.
BRUTE_LIMIT = 2_000


class OpFailed(RuntimeError):
    """The operation ended without an answer (an error exit code)."""


@dataclass
class Op:
    kind: str
    key: str
    call: Callable   # ctx -> output
    check: Callable  # (output, ctx) -> list of problems


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def load_fuchsian(inputs):
    groups = []
    for entry in _read_json(os.path.join(inputs, "fuchsian-agree.json"))["entries"]:
        data, _ = spectral.normalize(serialize.parse_spectral(entry["instance"]))
        inst = builder.build_instance(data)
        groups.append([Op("member", entry["name"], _member_call(inst),
                          _member_check(inst))])
    return groups


def _member_call(inst):
    def call(ctx):
        return (sigma.sigma_tilde_member(inst),
                sigma.sigma_member(inst.quiver, inst.alpha, inst.lam))
    return call


def _member_check(inst):
    qc, lam = convert.quiver_check(inst), convert.lam(inst)

    def check(out, ctx):
        tilde, plain = out
        return checker.check_fuchsian(qc, inst.alpha, lam, convert.verdict(tilde),
                                      convert.verdict(plain), BRUTE_LIMIT)
    return check


def load_irregular(inputs):
    groups = []
    for entry in _read_json(os.path.join(inputs, "irregular-check.json"))["entries"]:
        path = os.path.join(inputs, "irregular-check", entry["name"] + ".json")
        data, _ = spectral.normalize(serialize.parse_spectral(_read_json(path)))
        inst = builder.build_instance(data)
        groups.append([Op("check", entry["name"], cli_call(path),
                          _cli_check(inst, entry["known"]))])
    return groups


def cli_call(path):
    argv = ["check", path, "--reduce"]

    def call(ctx):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        if code not in (cli.EXIT_SOLVABLE, cli.EXIT_UNSOLVABLE):
            raise OpFailed("gadsp check exited %d" % code)
        return code, buf.getvalue()
    return call


def _cli_check(inst, known):
    qc, lam = convert.quiver_check(inst), convert.lam(inst)

    def check(out, ctx):
        code, text = out
        return checker.check_cli_check(qc, inst.alpha, lam, code,
                                       json.loads(text), known, BRUTE_LIMIT)
    return check


def load_matrix(inputs):
    groups = []
    for entry in _read_json(os.path.join(inputs, "matrix-mc.json"))["entries"]:
        data = serialize.parse_spectral(entry["instance"])
        t = serialize.parse_tuple(entry["tuple"], data)
        groups.append(_matrix_group(entry["name"], data, t,
                                    tuple(entry["multi_index"])))
    return groups


def _matrix_group(name, data, t, mi):
    inst = builder.build_instance(data)
    qc, lam = convert.quiver_check(inst), convert.lam(inst)
    known = {}

    def irreducible(key, tup):
        if key not in known:
            known[key] = checker.irreducible(convert.tuple_matrices(tup), tup.n)
        return known[key]

    def mc(ctx):
        ctx["mc"] = matrixops.middle_convolution(t, data, mi)
        return ctx["mc"]

    def mc_check(res, ctx):
        sizes = {(i, j): data.block(i, j).size + (res.n_shift if j == mi[i] else 0)
                 for i in sorted(inst.i_irr) for j in range(1, inst.m(i) + 1)}
        parts = [[convert.matrix(m) for m in part] for part in res.output.parts]
        return checker.check_mc(qc, inst.alpha, mi, t.n, parts, res.output.n,
                                res.dim_w, sizes)

    def spec(res, i, shifted):
        """The predicted orbit of output pole i, or with every xi moved by 1
        (an orbit the pole part is not expected to lie in)."""
        if not shifted:
            return res.predicted[i]
        return replace(res.predicted[i], blocks=tuple(
            replace(b, xi=tuple(x + ONE for x in b.xi))
            for b in res.predicted[i].blocks))

    def orbit(i, shifted):
        def call(ctx):
            res = ctx["mc"]
            return matrixops.orbit_member(list(res.output.parts[i]),
                                          spec(res, i, shifted))
        return call

    def orbit_check(i, shifted):
        def check(out, ctx):
            res = ctx["mc"]
            return checker.check_orbit(
                qc, inst.alpha, mi, i,
                [convert.matrix(m) for m in res.output.parts[i]],
                convert.orbit_blocks(spec(res, i, shifted)), out)
        return check

    def irr_before_check(out, ctx):
        want = irreducible("in", t)
        return [] if out == want else ["irreducible_test(input) = %s" % out]

    def irr_after_check(out, ctx):
        want = irreducible("out", ctx["mc"].output)
        problems = [] if out == want else ["irreducible_test(output) = %s" % out]
        if irreducible("in", t) and not out:
            problems.append("irreducibility not preserved")
        return problems

    def rep(ctx):
        rep, _ = matrixops.to_quiver_rep(t, data, inst)
        return rep, matrixops.moment_map(inst, rep)

    def rep_check(out, ctx):
        rep, mu = out
        return checker.check_moment(
            qc, lam, rep.dims, [convert.matrix(m) for m in rep.psi],
            [convert.matrix(m) for m in rep.psi_star],
            [convert.matrix(m) for m in mu])

    ops = [Op("mc", name, mc, mc_check)]
    ops += [Op("orbit", "%s/%d%s" % (name, i, "/shifted" if shifted else ""),
               orbit(i, shifted), orbit_check(i, shifted))
            for i in range(len(t.parts)) for shifted in (False, True)]
    ops.append(Op("irreducible", name + "/in",
                  lambda ctx: matrixops.irreducible_test(t), irr_before_check))
    ops.append(Op("irreducible", name + "/out",
                  lambda ctx: matrixops.irreducible_test(ctx["mc"].output),
                  irr_after_check))
    ops.append(Op("moment", name, rep, rep_check))
    return ops


LOADERS = {
    "fuchsian-agree": load_fuchsian,
    "irregular-check": load_irregular,
    "matrix-mc": load_matrix,
}
