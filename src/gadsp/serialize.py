"""Wire formats: JSON instance and tuple documents, verdict JSON, DOT export.

All numbers travel as exact Gaussian-rational strings, never floats.  The
instance schema:

    {"rank": int,
     "poles": [
       {"point": "infinity" | <tag>, "order": int,
        "blocks": [
          {"size": int,
           "q": [gauss, ...],                 # degrees 2..order
           "residue": {"jordan": [{"value": gauss, "blocks": [int, ...]}, ...]}
                    | {"matrix": [[gauss, ...], ...]},
           "xi": [gauss, ...]                 # optional
          }, ...]}, ...]}

A tuple document carries explicit principal-part matrices per pole:

    {"rank": int,
     "poles": [{"point": ..., "matrices": [[[gauss, ...], ...], ...]}, ...]}

with matrices[j-1] the coefficient of x^-j.
"""

from __future__ import annotations

import json

from .builder import QuiverInstance
from .matrixops import MatrixTuple
from .numeric import ExactMatrix, gauss_parse
from .spectral import (
    IrregularBlock,
    PoleData,
    ResidueSpec,
    SpectralData,
    SpectralDataError,
    make_spectral_data,
)


def _parse_g(value, where):
    if not isinstance(value, str):
        raise SpectralDataError("%s: numbers must be exact strings" % where)
    try:
        return gauss_parse(value)
    except ValueError as exc:
        raise SpectralDataError("%s: %s" % (where, exc)) from None


def _is_int(value) -> bool:
    """A JSON integer: bool is an int in Python, but true is not 1 here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _require(cond, message):
    if not cond:
        raise SpectralDataError(message)


def parse_spectral(document) -> SpectralData:
    """Validate an instance document and build the spectral data."""
    _require(isinstance(document, dict), "document must be an object")
    _require(_is_int(document.get("rank")), "rank must be an integer")
    poles_doc = document.get("poles")
    _require(isinstance(poles_doc, list) and poles_doc, "poles must be a non-empty list")
    poles = []
    for pi, pole_doc in enumerate(poles_doc):
        where = "pole %d" % pi
        _require(isinstance(pole_doc, dict), where + " must be an object")
        label = pole_doc.get("point")
        _require(isinstance(label, str) and label, where + ": point tag required")
        order = pole_doc.get("order")
        _require(_is_int(order) and order >= 1, where + ": order must be >= 1")
        blocks_doc = pole_doc.get("blocks")
        _require(isinstance(blocks_doc, list) and blocks_doc,
                 where + ": blocks must be a non-empty list")
        blocks = []
        for bi, blk in enumerate(blocks_doc):
            bwhere = "%s block %d" % (where, bi)
            _require(isinstance(blk, dict), bwhere + " must be an object")
            size = blk.get("size")
            _require(_is_int(size) and size >= 1,
                     bwhere + ": size must be >= 1")
            q_doc = blk.get("q", [])
            _require(isinstance(q_doc, list), bwhere + ": q must be a list")
            q = tuple(_parse_g(c, bwhere + " q") for c in q_doc)
            residue = _parse_residue(blk.get("residue"), size, bwhere)
            xi_doc = blk.get("xi")
            xi = ()
            if xi_doc is not None:
                _require(isinstance(xi_doc, list) and xi_doc,
                         bwhere + ": xi must be a non-empty list")
                xi = tuple(_parse_g(x, bwhere + " xi") for x in xi_doc)
            blocks.append(IrregularBlock(q, size, residue, xi=xi))
        poles.append(PoleData(label, order, tuple(blocks)))
    return make_spectral_data(document["rank"], tuple(poles))


def _parse_matrix(rows, size, where) -> ExactMatrix:
    """A size x size matrix: a list of `size` lists of `size` exact strings."""
    _require(isinstance(rows, list) and len(rows) == size
             and all(isinstance(row, list) and len(row) == size for row in rows),
             "%s must be a list of %d rows of %d entries" % (where, size, size))
    return ExactMatrix.from_rows([[_parse_g(x, where) for x in row] for row in rows])


def _parse_residue(doc, size, where) -> ResidueSpec:
    _require(isinstance(doc, dict), where + ": residue must be an object")
    if "jordan" in doc:
        jd = doc["jordan"]
        _require(isinstance(jd, list) and jd, where + ": jordan must be non-empty")
        out = []
        for item in jd:
            _require(isinstance(item, dict) and "value" in item and "blocks" in item,
                     where + ": jordan entries need value and blocks")
            value = _parse_g(item["value"], where + " jordan value")
            sizes = item["blocks"]
            _require(isinstance(sizes, list) and sizes
                     and all(_is_int(b) and b >= 1 for b in sizes),
                     where + ": jordan blocks must be positive integers")
            out.append((value, tuple(sizes)))
        try:   # the values must be distinct
            return ResidueSpec(jordan=tuple(out))
        except SpectralDataError as exc:
            raise SpectralDataError("%s: %s" % (where, exc)) from None
    if "matrix" in doc:
        return ResidueSpec(explicit=_parse_matrix(doc["matrix"], size,
                                                  where + " residue matrix"))
    raise SpectralDataError(where + ": residue needs jordan or matrix")


def spectral_to_document(data: SpectralData) -> dict:
    poles = []
    for pole in data.poles:
        blocks = []
        for blk in pole.blocks:
            residue = blk.residue
            if residue.jordan is not None:
                res_doc = {"jordan": [{"value": str(v), "blocks": list(b)}
                                      for v, b in residue.jordan]}
            else:
                mat = residue.explicit
                res_doc = {"matrix": [[str(x) for x in mat.row_list(i)]
                                      for i in range(mat.rows)]}
            blocks.append({
                "size": blk.size,
                "q": [str(c) for c in blk.q_coeffs],
                "residue": res_doc,
                "xi": [str(x) for x in blk.xi],
            })
        poles.append({"point": pole.label, "order": pole.order, "blocks": blocks})
    return {"rank": data.rank, "poles": poles}


def parse_tuple(document, data: SpectralData) -> MatrixTuple:
    """Validate a tuple document against the (normalized) instance data."""
    _require(isinstance(document, dict), "tuple document must be an object")
    rank = document.get("rank")
    _require(_is_int(rank) and rank == data.rank, "tuple rank mismatch")
    poles_doc = document.get("poles")
    _require(isinstance(poles_doc, list) and len(poles_doc) == len(data.poles),
             "tuple must list one entry per pole")
    parts = []
    for pi, pole_doc in enumerate(poles_doc):
        where = "tuple pole %d" % pi
        _require(isinstance(pole_doc, dict), where + " must be an object")
        _require(pole_doc.get("point") == data.poles[pi].label,
                 where + ": point tag mismatch")
        mats_doc = pole_doc.get("matrices")
        _require(isinstance(mats_doc, list)
                 and len(mats_doc) == data.poles[pi].order,
                 where + ": needs one matrix per power 1..order")
        parts.append(tuple(_parse_matrix(rows, data.rank, "%s matrix %d" % (where, mj + 1))
                           for mj, rows in enumerate(mats_doc)))
    return MatrixTuple(data.rank, tuple(p.order for p in data.poles), tuple(parts))


def tuple_to_document(t: MatrixTuple, data: SpectralData) -> dict:
    poles = []
    for pole, part in zip(data.poles, t.parts):
        poles.append({
            "point": pole.label,
            "matrices": [[[str(x) for x in m.row_list(i)] for i in range(m.rows)]
                         for m in part],
        })
    return {"rank": t.n, "poles": poles}


def vertex_name(v) -> str:
    return "v_" + "_".join(str(x) for x in v)


def dimvec_to_document(inst: QuiverInstance, vec) -> dict:
    return {vertex_name(v): x for v, x in zip(inst.quiver.vertices, vec)}


def paramvec_to_document(inst: QuiverInstance, vec) -> dict:
    return {vertex_name(v): str(x) for v, x in zip(inst.quiver.vertices, vec)}


def instance_report(inst: QuiverInstance) -> dict:
    from .builder import alpha_dot_lambda, lattice_member
    return {
        "vertices": [vertex_name(v) for v in inst.quiver.vertices],
        "arrows": [[vertex_name(s), vertex_name(t)] for s, t in inst.quiver.arrows],
        "alpha": dimvec_to_document(inst, inst.alpha),
        "lambda": paramvec_to_document(inst, inst.lam),
        "i_irr": sorted(inst.i_irr),
        "lattice_ok": lattice_member(inst, inst.alpha),
        "alpha_dot_lambda": str(alpha_dot_lambda(inst)),
    }


def quiver_dot(inst: QuiverInstance) -> str:
    """DOT rendering; parallel arrows are emitted individually."""
    lines = ["digraph quiver {"]
    for v, a in zip(inst.quiver.vertices, inst.alpha):
        lines.append('  %s [label="%s | %d"];'
                     % (vertex_name(v), ",".join(str(x) for x in v), a))
    for s, t in inst.quiver.arrows:
        lines.append("  %s -> %s;" % (vertex_name(s), vertex_name(t)))
    lines.append("}")
    return "\n".join(lines) + "\n"


def verdict_to_document(inst: QuiverInstance, verdict) -> dict:
    from .sigma import ExhaustiveWitness, ViolatingDecomposition
    doc = {
        "solvable": verdict.solvable,
        "moduli_nonempty": verdict.moduli_nonempty,
        "reasons": list(verdict.reasons),
        "alpha": dimvec_to_document(inst, inst.alpha),
        "lambda": paramvec_to_document(inst, inst.lam),
    }
    cert = verdict.certificate
    if isinstance(cert, ViolatingDecomposition):
        doc["certificate"] = {
            "kind": "violating_decomposition",
            "parts": [dimvec_to_document(inst, part) for part in cert.parts],
            "p_values": list(cert.p_values),
            "p_alpha": cert.p_alpha,
        }
    elif isinstance(cert, ExhaustiveWitness):
        doc["certificate"] = {
            "kind": "exhaustive_witness",
            "roots_considered": cert.roots_considered,
            "decompositions_checked": cert.decompositions_checked,
        }
    else:
        doc["certificate"] = None
    return doc


def dumps(document) -> str:
    """Deterministic JSON: sorted keys, fixed separators, trailing newline."""
    return json.dumps(document, sort_keys=True, separators=(",", ": "),
                      indent=1) + "\n"
