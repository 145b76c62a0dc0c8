"""Traced run: spans around the calls into each gadsp layer, from outside.

Each traced function is replaced, for the duration of a traced round, at the
name its caller looks it up by (`gadsp.sigma.positive_roots_in_box`,
`gadsp.cli.sigma_tilde_member`, ...); nothing under src/ changes.  A call
becomes a span (id, parent id, name, start, end) kept in memory.  Hot leaf
functions (dot, tits, lattice membership, matrix product, rank) are called
hundreds of thousands of times per round, so they are not kept as spans:
their calls and time are summed, and their time counts as child time of the
span that called them.  A span's self time is its duration minus its
children's.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

perf = time.perf_counter

# (metric stem, leaf, sites): a site is "module:attribute" or
# "module:Class.method".
LAYERS = (
    ("roots.box", False, ("gadsp.sigma:positive_roots_in_box",
                          "gadsp.roots:positive_roots_in_box")),
    ("roots.fundamental", False, ("gadsp.roots:fundamental_in_box",)),
    ("roots.is_root", False, ("gadsp.sigma:is_root",)),
    ("sigma.member", False, ("gadsp.sigma:sigma_member",
                             "gadsp.sigma:sigma_tilde_member",
                             "gadsp.cli:sigma_tilde_member")),
    ("sigma.reduce", False, ("gadsp.sigma:reduce_pair",)),
    ("quiver.dot", True, ("gadsp.sigma:dot", "gadsp.roots:dot",
                          "gadsp.builder:dot")),
    ("quiver.tits", True, ("gadsp.sigma:tits", "gadsp.roots:tits")),
    ("builder.build", False, ("gadsp.builder:build_instance",
                              "gadsp.cli:build_instance")),
    ("builder.lattice", True, ("gadsp.sigma:lattice_member",
                               "gadsp.roots:lattice_member",
                               "gadsp.builder:lattice_member")),
    ("numeric.eig", False, ("gadsp.matrixops:qi_eigenvalues",
                            "gadsp.spectral:qi_eigenvalues")),
    ("numeric.matmul", True, ("gadsp.numeric:ExactMatrix.__mul__",)),
    ("numeric.rank", True, ("gadsp.numeric:mat_rank", "gadsp.matrixops:mat_rank",
                            "gadsp.spectral:mat_rank")),
    ("matrixops.mc", False, ("gadsp.matrixops:middle_convolution",)),
    ("matrixops.orbit", False, ("gadsp.matrixops:orbit_member",)),
    ("matrixops.htl_reduce", False, ("gadsp.matrixops:htl_reduce",)),
    ("matrixops.irreducible", False, ("gadsp.matrixops:irreducible_test",)),
    ("matrixops.quiver_rep", False, ("gadsp.matrixops:to_quiver_rep",)),
    ("matrixops.moment", False, ("gadsp.matrixops:moment_map",)),
    ("serialize.document", False, ("gadsp.cli:parse_spectral",
                                   "gadsp.cli:verdict_to_document",
                                   "gadsp.cli:dumps")),
    ("cli.check", False, ("gadsp.cli:main",)),
)

def _resolve(site):
    module, attr = site.split(":")
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Collects spans and per-layer totals while installed."""

    def __init__(self):
        self.spans = []          # (id, parent id, name, start, end, self)
        self.stack = []          # open frames: [id, child time]
        self._patched = []
        self._reset()

    def _reset(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.box_roots = 0
        self.candidates = 0
        self.dp_nodes = 0
        self.reduce_steps = 0

    def install(self):
        for stem, leaf, sites in LAYERS:
            for site in sites:
                owner, name = _resolve(site)
                orig = owner.__dict__[name]
                wrapper = self._leaf(stem, orig) if leaf else self._span(stem, orig)
                setattr(owner, name, functools.wraps(orig)(wrapper))
                self._patched.append((owner, name, orig))

    def uninstall(self):
        while self._patched:
            owner, name, orig = self._patched.pop()
            setattr(owner, name, orig)

    def _leaf(self, stem, orig):
        calls, total, stack = self.calls, self.total, self.stack

        def wrapper(*args, **kwargs):
            t0 = perf()
            try:
                return orig(*args, **kwargs)
            finally:
                dt = perf() - t0
                calls[stem] += 1
                total[stem] += dt
                if stack:
                    stack[-1][1] += dt
        return wrapper

    def _span(self, stem, orig):
        def wrapper(*args, **kwargs):
            span_id = len(self.spans) + len(self.stack)
            parent = self.stack[-1][0] if self.stack else None
            frame = [span_id, 0.0]
            self.stack.append(frame)
            t0 = perf()
            try:
                out = orig(*args, **kwargs)
            finally:
                t1 = perf()
                self.stack.pop()
                dur = t1 - t0
                self.calls[stem] += 1
                self.total[stem] += dur
                self.self_time[stem] += dur - frame[1]
                if self.stack:
                    self.stack[-1][1] += dur
                self.spans.append((span_id, parent, stem, t0, t1, dur - frame[1]))
            self._count(stem, out)
            return out
        return wrapper

    def _count(self, stem, out):
        if stem == "roots.box":
            self.box_roots += len(out)
        elif stem == "sigma.member":
            witness = out.certificate
            if hasattr(witness, "roots_considered"):
                self.candidates += witness.roots_considered
                self.dp_nodes += witness.decompositions_checked
        elif stem == "sigma.reduce":
            self.reduce_steps += len(out.steps)

    def take_round(self):
        """The figures of the traced round just run (raw seconds and counts),
        keyed by per-layer metric name; the totals start again from zero."""
        t, c = self.total, self.calls
        out = {
            "roots.box_s": t["roots.box"],
            "roots.box_calls": c["roots.box"],
            "roots.box_roots": self.box_roots,
            "roots.fundamental_s": t["roots.fundamental"],
            "roots.is_root_calls": c["roots.is_root"],
            "roots.is_root_s": t["roots.is_root"],
            "sigma.member_calls": c["sigma.member"],
            "sigma.member_s": t["sigma.member"],
            "sigma.member_self_s": self.self_time["sigma.member"],
            "sigma.candidates": self.candidates,
            "sigma.candidate_yield": (self.candidates / self.box_roots
                                      if self.box_roots else 0.0),
            "sigma.dp_nodes": self.dp_nodes,
            "sigma.reduce_calls": c["sigma.reduce"],
            "sigma.reduce_s": t["sigma.reduce"],
            "sigma.reduce_steps": self.reduce_steps,
            "serialize.document_s": t["serialize.document"],
            "cli.check_s": t["cli.check"],
        }
        for stem in ("quiver.dot", "quiver.tits", "builder.lattice", "numeric.eig",
                     "numeric.matmul", "numeric.rank", "matrixops.orbit",
                     "matrixops.htl_reduce"):
            out[stem + "_calls"] = c[stem]
            out[stem + "_s"] = t[stem]
        for stem in ("builder.build", "matrixops.mc", "matrixops.irreducible",
                     "matrixops.quiver_rep", "matrixops.moment"):
            out[stem + "_s"] = t[stem]
        self._reset()
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end", "self"],
                       "spans": self.spans}, fh)
