"""gadsp values -> the plain data the checker reads."""

from __future__ import annotations

from checker import QuiverCheck


def gauss(g):
    return g.re, g.im


def matrix(m):
    """ExactMatrix -> rows of (re, im) Fraction pairs."""
    return [[gauss(x) for x in m.row_list(r)] for r in range(m.rows)]


def tuple_matrices(t):
    """Every coefficient matrix of a MatrixTuple."""
    return [matrix(m) for m in t.all_coefficients()]


def orbit_blocks(spec):
    """matrixops.OrbitSpec -> the block tuples checker.orbit_member reads."""
    return [(tuple(gauss(q) for q in b.q_coeffs), b.size,
             tuple(gauss(x) for x in b.xi), tuple(b.ranks), b.head_free)
            for b in spec.blocks]


def quiver_check(inst):
    return QuiverCheck(inst.quiver.vertices, inst.quiver.arrow_indices())


def lam(inst):
    return [gauss(x) for x in inst.lam]


def verdict(v):
    """sigma.Verdict -> {"solvable", "certificate"} as checker.check_verdict
    reads it."""
    cert = v.certificate
    if cert is None:
        doc = None
    elif hasattr(cert, "parts"):
        doc = {"kind": "violating_decomposition", "parts": list(cert.parts),
               "p_values": list(cert.p_values), "p_alpha": cert.p_alpha}
    else:
        doc = {"kind": "exhaustive_witness",
               "roots_considered": cert.roots_considered,
               "decompositions_checked": cert.decompositions_checked}
    return {"solvable": v.solvable, "certificate": doc}
