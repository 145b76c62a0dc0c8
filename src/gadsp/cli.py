"""Command-line front end.

Commands: quiver, check, mc, verify, selftest.  Exit codes: 0 success /
solvable, 1 unsolvable (check) or failed checks, 2 invalid input or
precondition failure, 3 search cap exceeded, 4 internal error (a crash,
with its traceback on stderr; never a verdict).  All output is deterministic
byte for byte for a fixed input and configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from .builder import build_instance
from .matrixops import (
    OrbitMismatchError,
    ResidueSumError,
    crossing_determinants_nonzero,
    irreducible_test,
    middle_convolution,
    moment_map,
    orbit_member,
    orbit_spec_from_data,
    residue_identity_holds,
    to_quiver_rep,
)
from .numeric import ExactMatrix, NonSplitError
from .roots import SearchCapExceeded
from .serialize import (
    dumps,
    instance_report,
    parse_spectral,
    parse_tuple,
    quiver_dot,
    tuple_to_document,
    verdict_to_document,
    vertex_name,
)
from .sigma import DEFAULT_NODE_CAP, sigma_tilde_member
from .spectral import SpectralDataError, normalize

EXIT_SOLVABLE = 0
EXIT_UNSOLVABLE = 1
EXIT_INVALID = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SpectralDataError("cannot read %s: %s" % (path, exc)) from None


def _load_instance(path):
    data = parse_spectral(_load_json(path))
    data, _ = normalize(data)
    return data, build_instance(data)


def _emit(text, output):
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_quiver(args):
    data, inst = _load_instance(args.instance)
    if args.format == "dot":
        _emit(quiver_dot(inst), args.output)
    elif args.format == "text":
        report = instance_report(inst)
        lines = ["vertices: " + " ".join(report["vertices"])]
        lines += ["arrow: %s -> %s" % (s, t) for s, t in report["arrows"]]
        lines.append("alpha . lambda = %s" % report["alpha_dot_lambda"])
        _emit("\n".join(lines) + "\n", args.output)
    else:
        _emit(dumps(instance_report(inst)), args.output)
    return EXIT_SOLVABLE


def cmd_check(args):
    data, inst = _load_instance(args.instance)
    verdict = sigma_tilde_member(inst, node_cap=args.max_nodes)
    doc = verdict_to_document(inst, verdict)
    if args.reduce and verdict.solvable:
        from .sigma import reduce_pair
        trace = reduce_pair(inst, verdict)
        doc["reduction"] = {
            "terminal": trace.terminal_kind,
            "steps": [{"kind": s.kind, "at": list(s.at), "value": str(s.value)}
                      for s in trace.steps],
        }
    if args.format == "text":
        lines = list(verdict.reasons)
        lines.append("verdict: %s"
                     % ("solvable" if verdict.solvable else "unsolvable"))
        _emit("\n".join(lines) + "\n", args.output)
    else:
        _emit(dumps(doc), args.output)
    return EXIT_SOLVABLE if verdict.solvable else EXIT_UNSOLVABLE


def cmd_mc(args):
    data, inst = _load_instance(args.instance)
    t = parse_tuple(_load_json(args.tuple), data)
    t.check_residue_sum()
    try:
        mi = tuple(int(x) for x in args.index.split(","))
    except ValueError:
        raise SpectralDataError("multi-index must be comma-separated integers")
    result = middle_convolution(t, data, mi)
    # reflection cross-check: block sizes of s_mi(alpha) match the output
    from .quiver import reflect_composite
    alpha2 = reflect_composite(inst, mi, inst.alpha)
    q = inst.quiver
    reflection_ok = all(
        alpha2[q.index((i, j))]
        == data.block(i, j).size + (result.n_shift if j == mi[i] else 0)
        for i in sorted(inst.i_irr) for j in range(1, inst.m(i) + 1))
    report = {
        "rank_in": t.n,
        "rank_out": result.output.n,
        "dim_w": result.dim_w,
        "rank_shift": result.n_shift,
        "reflection_check": reflection_ok,
        "xi_new": {"%d,%d" % key: [str(x) for x in value]
                   for key, value in sorted(result.xi_new.items())},
        "orbit_checks": [
            orbit_member(list(result.output.parts[i]), spec)
            for i, spec in enumerate(result.predicted)],
        "output": tuple_to_document(result.output, data),
    }
    _emit(dumps(report), args.output)
    ok = reflection_ok and all(report["orbit_checks"])
    return EXIT_SOLVABLE if ok else EXIT_UNSOLVABLE


def cmd_verify(args):
    data, inst = _load_instance(args.instance)
    t = parse_tuple(_load_json(args.tuple), data)
    checks = {}
    checks["residue_sum_zero"] = t.residue_sum().is_zero()
    orbit_ok = True
    for i in range(len(data.poles)):
        ok = orbit_member(list(t.parts[i]), orbit_spec_from_data(data, i))
        checks["orbit_pole_%d" % i] = ok
        orbit_ok = orbit_ok and ok
    # irreducibility is a property of the tuple, reported but not a
    # consistency requirement
    irreducible = irreducible_test(t)
    if checks["residue_sum_zero"] and orbit_ok:
        rep, facts = to_quiver_rep(t, data, inst)
        mu = moment_map(inst, rep)
        lam_ok = True
        for v, value, m in zip(inst.quiver.vertices, inst.lam, mu):
            if m != ExactMatrix.scalar(m.rows, value):
                lam_ok = False
        checks["moment_map_equals_lambda"] = lam_ok
        checks["crossing_determinants_nonzero"] = \
            crossing_determinants_nonzero(inst, rep)
        checks["residue_identity"] = all(
            residue_identity_holds(facts[i]) for i in sorted(inst.i_irr))
        trace = mu[0].trace()
        for m in mu[1:]:
            trace = trace + m.trace()
        checks["moment_trace_zero"] = not trace
    report = {"checks": checks, "irreducible": irreducible,
              "ok": all(checks.values())}
    _emit(dumps(report), args.output)
    return EXIT_SOLVABLE if report["ok"] else EXIT_INVALID


def cmd_selftest(args):
    from . import gensamples as gs
    from .sigma import sigma_member
    rng = gs.rng_from_seed(args.seed)
    failures = []
    for trial in range(args.trials):
        data = gs.random_fuchsian_data(rng, n=rng.randint(1, 3), p=rng.randint(1, 2))
        data, _ = normalize(data)
        inst = build_instance(data)
        a = sigma_tilde_member(inst)
        b = sigma_member(inst.quiver, inst.alpha, inst.lam)
        if a.solvable != b.solvable:
            failures.append("fuchsian agreement trial %d" % trial)
    for trial in range(args.trials):
        data, t = gs.random_orbit_tuple(rng, n=rng.randint(1, 2), p=1)
        inst = build_instance(data)
        rep, facts = to_quiver_rep(t, data, inst)
        mu = moment_map(inst, rep)
        for v, value, m in zip(inst.quiver.vertices, inst.lam, mu):
            if m != ExactMatrix.scalar(m.rows, value):
                failures.append("moment map trial %d at %s" % (trial, vertex_name(v)))
    report = {"trials": 2 * args.trials, "failures": failures,
              "ok": not failures}
    _emit(dumps(report), args.output)
    return EXIT_SOLVABLE if not failures else EXIT_UNSOLVABLE


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gadsp",
        description="Decide generalized additive Deligne-Simpson problems "
                    "and cross-validate the matrix-level operations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("quiver", help="build the quiver report for an instance")
    p.add_argument("instance")
    p.add_argument("--format", choices=("json", "dot", "text"), default="json")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_quiver)

    p = sub.add_parser("check", help="decide solvability with certificates")
    p.add_argument("instance")
    p.add_argument("--max-nodes", type=int, default=DEFAULT_NODE_CAP)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--reduce", action="store_true",
                   help="include a reflection-reduction trace when solvable")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("mc", help="middle convolution of a tuple file")
    p.add_argument("instance")
    p.add_argument("tuple")
    p.add_argument("--index", required=True,
                   help="comma-separated block choice per pole, e.g. 1,2,1")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("verify", help="verify a tuple against an instance")
    p.add_argument("instance")
    p.add_argument("tuple")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("selftest", help="randomized internal consistency checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SearchCapExceeded as exc:
        sys.stderr.write("search cap exceeded: %s\n" % exc)
        return EXIT_CAP
    except (SpectralDataError, OrbitMismatchError, ResidueSumError,
            NonSplitError, ValueError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_INVALID
    except Exception:
        sys.stderr.write("internal error:\n")
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
