"""Answer checks that do not call gadsp's decision code.

Everything here is computed from a quiver's vertex and arrow lists, in
`Fraction` arithmetic: the Tits form, simple and composite reflections, the
positive-root test, level-sum lattice membership, lambda-orthogonality, a
brute-force Sigma / Sigma-tilde decision for small boxes, and the Burnside
irreducibility of matrix tuples.  Gaussian rationals are `(re, im)` pairs of
`Fraction`; matrices are lists of rows of such pairs.

Every `check_*` function returns a list of problems; an empty list means the
output passed.  The functions take plain data (vectors, dicts, documents), so
they can be fed a tampered output as easily as a real one.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))

# A prime p = 1 (mod 4) below 2**25, so that i exists mod p and a row of
# up to 256 products of residues fits in int64.
MODP = 33554393
MODP_I = pow(3, (MODP - 1) // 4, MODP)

_GAUSS = re.compile(r"^(?P<re>-?\d+(?:/\d+)?)?(?P<im>[+-]?\d+(?:/\d+)?i)?$")


def parse_gauss(text):
    """'-1/3+2i' -> (Fraction(-1, 3), Fraction(2))."""
    m = _GAUSS.match(text)
    if not text or m is None:
        raise ValueError("not a Gaussian rational: %r" % text)
    re_part = Fraction(m.group("re")) if m.group("re") else Fraction(0)
    im_part = Fraction(m.group("im")[:-1]) if m.group("im") else Fraction(0)
    return re_part, im_part


def g_add(a, b):
    return a[0] + b[0], a[1] + b[1]


def g_mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def g_scale(k, a):
    return k * a[0], k * a[1]


def g_inv(a):
    norm = a[0] * a[0] + a[1] * a[1]
    return a[0] / norm, -a[1] / norm


# ---------------------------------------------------------------------------
# the quiver side


class QuiverCheck:
    """A quiver given by vertex labels and (source, target) index pairs.

    Block vertices are the labels of length 2, `(pole, block)`; leg vertices
    have length 3.  Poles owning block vertices are the irregular poles.
    """

    def __init__(self, vertices, arrows):
        self.vertices = [tuple(v) for v in vertices]
        self.arrows = [tuple(a) for a in arrows]
        self.nv = len(self.vertices)
        self.index = {v: k for k, v in enumerate(self.vertices)}
        self.nbrs = [[] for _ in self.vertices]
        for s, t in self.arrows:
            self.nbrs[s].append(t)
            self.nbrs[t].append(s)
        self.blocks = {}
        for k, v in enumerate(self.vertices):
            if len(v) == 2:
                self.blocks.setdefault(v[0], []).append(k)
        self.legs = [k for k, v in enumerate(self.vertices) if len(v) == 3]

    def name_map(self):
        """Vertex name as gadsp documents print it -> index."""
        return {"v_" + "_".join(str(x) for x in v): k
                for k, v in enumerate(self.vertices)}

    def pair(self, beta, k):
        """(beta, eps_k) = 2 beta_k - sum over arrows at k of the other end."""
        return 2 * beta[k] - sum(beta[w] for w in self.nbrs[k])

    def q_form(self, beta):
        return (sum(b * b for b in beta)
                - sum(beta[s] * beta[t] for s, t in self.arrows))

    def p_value(self, beta):
        return 1 - self.q_form(beta)

    def reflect(self, beta, k):
        out = list(beta)
        out[k] -= self.pair(beta, k)
        return tuple(out)

    def connected(self, beta):
        supp = {k for k, b in enumerate(beta) if b}
        if not supp:
            return False
        start = min(supp)
        seen, todo = {start}, [start]
        while todo:
            k = todo.pop()
            for w in self.nbrs[k]:
                if w in supp and w not in seen:
                    seen.add(w)
                    todo.append(w)
        return seen == supp

    def root_kind(self, beta):
        """'real', 'imaginary' or None for a non-negative vector.

        Reflects at the vertex of largest positive pairing until a simple
        root, a fundamental-set member, or a negative coordinate appears.
        """
        cur = tuple(beta)
        if any(b < 0 for b in cur) or not any(cur):
            return None
        while True:
            if not self.connected(cur):
                return None
            if sum(cur) == 1:
                return "real"
            best, pivot = 0, None
            for k in range(self.nv):
                if cur[k]:
                    c = self.pair(cur, k)
                    if c > best:
                        best, pivot = c, k
            if pivot is None:
                return "imaginary"
            cur = self.reflect(cur, pivot)
            if cur[pivot] < 0:
                return None

    def in_lattice(self, beta):
        levels = {sum(beta[k] for k in ks) for ks in self.blocks.values()}
        return len(levels) <= 1

    def lam_dot(self, beta, lam):
        acc = ZERO
        for b, l in zip(beta, lam):
            if b:
                acc = g_add(acc, g_scale(b, l))
        return acc

    def composite_pair(self, beta, mi):
        return sum(self.pair(beta, self.index[(i, mi[i])]) for i in self.blocks)

    def reflect_composite(self, beta, mi):
        c = self.composite_pair(beta, mi)
        out = list(beta)
        for i in self.blocks:
            out[self.index[(i, mi[i])]] -= c
        return tuple(out)

    def quasi_fundamental(self, beta):
        if any(b < 0 for b in beta) or not any(beta):
            return False
        if not self.in_lattice(beta) or not self.connected(beta):
            return False
        if any(self.pair(beta, k) > 0 for k in self.legs):
            return False
        return sum(max(self.pair(beta, k) for k in ks)
                   for ks in self.blocks.values()) <= 0

    def arrow_count(self, a, b):
        return sum(1 for s, t in self.arrows if {s, t} == {a, b})


def brute_force_sigma(qc, alpha, lam, lattice):
    """Independent Sigma (lattice=False) or Sigma-tilde decision.

    Enumerates every vector of the box below alpha, keeps the orthogonal
    positive roots (in the lattice when asked), and fills a knapsack table
    of the best p-sum of a decomposition of each vector.  Returns
    (solvable, best p-sum of a decomposition of alpha or None).
    """
    alpha = tuple(alpha)
    if qc.root_kind(alpha) is None or qc.lam_dot(alpha, lam) != ZERO:
        return False, None
    if lattice and not qc.in_lattice(alpha):
        return False, None
    box = list(itertools.product(*(range(a + 1) for a in alpha)))
    cands = []
    for beta in box[1:]:
        if beta == alpha or qc.lam_dot(beta, lam) != ZERO:
            continue
        if lattice and not qc.in_lattice(beta):
            continue
        if qc.root_kind(beta) is not None:
            cands.append((beta, qc.p_value(beta)))
    best = {box[0]: 0}
    # itertools.product runs in lexicographic order and gamma - c is
    # lexicographically smaller than gamma, so every lookup is filled.
    for gamma in box[1:]:
        top = None
        for c, pc in cands:
            rest = tuple(g - x for g, x in zip(gamma, c))
            if min(rest) < 0:
                continue
            sub = best[rest]
            if sub is not None and (top is None or pc + sub > top):
                top = pc + sub
        best[gamma] = top
    value = best[alpha]
    return value is None or value < qc.p_value(alpha), value


def box_volume(alpha):
    vol = 1
    for a in alpha:
        vol *= a + 1
    return vol


# ---------------------------------------------------------------------------
# verdicts


def check_verdict(qc, alpha, lam, verdict, lattice, brute_limit):
    """Check one membership verdict.

    `verdict` is {"solvable": bool, "certificate": None | {"kind":
    "violating_decomposition", "parts", "p_values", "p_alpha"} | {"kind":
    "exhaustive_witness", ...}} with parts as integer tuples.
    """
    problems = []
    alpha = tuple(alpha)
    kind = qc.root_kind(alpha)
    orth = qc.lam_dot(alpha, lam) == ZERO
    in_lat = qc.in_lattice(alpha) or not lattice
    cert = verdict.get("certificate")
    if verdict["solvable"]:
        if kind is None:
            problems.append("solvable, but alpha is not a positive root")
        if not orth:
            problems.append("solvable, but alpha . lambda != 0")
        if not in_lat:
            problems.append("solvable, but alpha is outside the lattice")
        if not cert or cert.get("kind") != "exhaustive_witness":
            problems.append("solvable verdict without an exhaustive witness")
    elif cert is None:
        if kind is not None and orth and in_lat:
            problems.append("unsolvable without certificate, but alpha is an "
                            "orthogonal positive root in the lattice")
    elif cert.get("kind") == "violating_decomposition":
        problems += check_decomposition(qc, alpha, lam, cert, lattice)
    else:
        problems.append("unsolvable verdict with a %r certificate"
                        % cert.get("kind"))
    if box_volume(alpha) <= brute_limit:
        solvable, best = brute_force_sigma(qc, alpha, lam, lattice)
        if solvable != verdict["solvable"]:
            problems.append("brute force says solvable=%s" % solvable)
        if (cert and cert.get("kind") == "violating_decomposition"
                and best != sum(cert["p_values"])):
            problems.append("violating p-sum %d is not the optimum %r"
                            % (sum(cert["p_values"]), best))
    return problems


def check_decomposition(qc, alpha, lam, cert, lattice):
    problems = []
    parts = [tuple(p) for p in cert["parts"]]
    if len(parts) < 2:
        problems.append("decomposition has fewer than two parts")
    if len(cert["p_values"]) != len(parts):
        problems.append("p-value count does not match the parts")
    total = [0] * qc.nv
    for part, p_val in zip(parts, cert["p_values"]):
        if qc.root_kind(part) is None:
            problems.append("part %r is not a positive root" % (part,))
        if qc.lam_dot(part, lam) != ZERO:
            problems.append("part %r is not orthogonal to lambda" % (part,))
        if lattice and not qc.in_lattice(part):
            problems.append("part %r is outside the lattice" % (part,))
        if qc.p_value(part) != p_val:
            problems.append("part %r has p = %d, not %d"
                            % (part, qc.p_value(part), p_val))
        total = [t + x for t, x in zip(total, part)]
    if tuple(total) != alpha:
        problems.append("parts do not sum to alpha")
    if cert["p_alpha"] != qc.p_value(alpha):
        problems.append("p(alpha) misreported")
    if sum(cert["p_values"]) < qc.p_value(alpha):
        problems.append("p-sum below p(alpha): not a violation")
    return problems


def check_fuchsian(qc, alpha, lam, tilde, plain, brute_limit):
    """Sigma-tilde and Sigma verdicts on Fuchsian data: both right, and equal."""
    problems = []
    if tilde["solvable"] != plain["solvable"]:
        problems.append("Sigma-tilde and Sigma disagree")
    problems += ["Sigma-tilde: " + p for p in
                 check_verdict(qc, alpha, lam, tilde, True, brute_limit)]
    problems += ["Sigma: " + p for p in
                 check_verdict(qc, alpha, lam, plain, False, brute_limit)]
    return problems


def document_verdict(qc, doc):
    """The verdict of a `gadsp check` JSON document in check_verdict's form."""
    names = qc.name_map()

    def vec(d):
        out = [0] * qc.nv
        for name, x in d.items():
            out[names[name]] = x
        return tuple(out)

    cert = doc.get("certificate")
    if cert and cert.get("kind") == "violating_decomposition":
        cert = dict(cert, parts=[vec(p) for p in cert["parts"]])
    return {"solvable": doc["solvable"], "certificate": cert}, vec(doc["alpha"])


def check_cli_check(qc, alpha, lam, code, doc, known, brute_limit):
    """Check one `gadsp check --reduce` run: exit code, document, trace."""
    problems = []
    names = qc.name_map()
    verdict, doc_alpha = document_verdict(qc, doc)
    if doc_alpha != tuple(alpha):
        problems.append("document alpha differs from the instance's")
    doc_lam = [ZERO] * qc.nv
    for name, text in doc["lambda"].items():
        doc_lam[names[name]] = parse_gauss(text)
    if doc_lam != list(lam):
        problems.append("document lambda differs from the instance's")
    if code != (0 if verdict["solvable"] else 1):
        problems.append("exit code %d does not match the verdict" % code)
    if known is not None and known != verdict["solvable"]:
        problems.append("known answer solvable=%s contradicted" % known)
    problems += check_verdict(qc, alpha, lam, verdict, True, brute_limit)
    if verdict["solvable"]:
        if "reduction" not in doc:
            problems.append("solvable verdict without a reduction trace")
        else:
            problems += check_reduction(qc, alpha, lam, doc["reduction"])
    elif "reduction" in doc:
        problems.append("unsolvable verdict carries a reduction trace")
    return problems


def check_reduction(qc, alpha, lam, reduction):
    """Replay the reported reflection steps on (alpha, lambda).

    Each step must pair positively with the current vector (so it lowers
    it), carry the nonzero lambda value that legalizes it, and the replay
    must end at the reported terminal kind.
    """
    problems = []
    cur, lam = tuple(alpha), list(lam)
    for n, step in enumerate(reduction["steps"]):
        at = tuple(step["at"])
        value = parse_gauss(step["value"])
        if step["kind"] == "reflect_composite":
            c = qc.composite_pair(cur, at)
            lam_mi = ZERO
            for i in qc.blocks:
                lam_mi = g_add(lam_mi, lam[qc.index[(i, at[i])]])
            legal = lam_mi
            cur = qc.reflect_composite(cur, at)
            lam = _reflect_lambda_composite(qc, lam, at, lam_mi)
        elif step["kind"] == "reflect_leg":
            k = qc.index[at]
            c = qc.pair(cur, k)
            legal = lam[k]
            cur = qc.reflect(cur, k)
            lv = lam[k]
            lam[k] = g_add(lam[k], g_scale(-2, lv))
            for w in qc.nbrs[k]:
                lam[w] = g_add(lam[w], lv)
        else:
            problems.append("step %d has unknown kind %r" % (n, step["kind"]))
            return problems
        if c <= 0:
            problems.append("step %d does not lower alpha" % n)
        if legal == ZERO or legal != value:
            problems.append("step %d is not legalized by its lambda value" % n)
        if min(cur) < 0:
            problems.append("step %d leaves the positive cone" % n)
            return problems
    if qc.lam_dot(cur, lam) != ZERO:
        problems.append("terminal pair is not orthogonal")
    terminal = reduction["terminal"]
    if terminal == "unit-composite":
        ok = (all(cur[k] == 0 for k in qc.legs)
              and all(sorted(cur[k] for k in ks) == [0] * (len(ks) - 1) + [1]
                      for ks in qc.blocks.values()))
    elif terminal == "unit-leg":
        ok = sum(cur) == 1 and any(cur[k] == 1 for k in qc.legs)
    elif terminal == "quasi-fundamental":
        ok = qc.quasi_fundamental(cur)
    else:
        ok = False
    if not ok:
        problems.append("replay does not end at a %s vector" % terminal)
    return problems


def _reflect_lambda_composite(qc, lam, mi, lam_mi):
    """The dual composite reflection on lambda (see the module docstring
    of gadsp.quiver): pole-0 picked vertex -2 lam_mi, other block vertices
    +(d + 2) lam_mi (+d at pole 0), first leg vertices of picked blocks
    +lam_mi; d counts the arrows to the picked block."""
    out = list(lam)
    for i, ks in qc.blocks.items():
        picked = qc.index[(i, mi[i])]
        for k in ks:
            if k == picked:
                if i == 0:
                    out[k] = g_add(out[k], g_scale(-2, lam_mi))
            else:
                d = qc.arrow_count(k, picked)
                out[k] = g_add(out[k], g_scale(d if i == 0 else d + 2, lam_mi))
    for i, j in enumerate(mi):
        leg = qc.index.get((i, j, 1))
        if leg is not None:
            out[leg] = g_add(out[leg], lam_mi)
    return out


# ---------------------------------------------------------------------------
# matrices


def mat_mul(a, b):
    inner = len(b)
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        new = []
        for j in range(cols):
            acc = ZERO
            for t in range(inner):
                if row[t] != ZERO and b[t][j] != ZERO:
                    acc = g_add(acc, g_mul(row[t], b[t][j]))
            new.append(acc)
        out.append(new)
    return out


def mat_add(a, b, sign=1):
    return [[g_add(x, g_scale(sign, y)) for x, y in zip(ra, rb)]
            for ra, rb in zip(a, b)]


def is_scalar(m, value):
    return all(m[r][c] == (value if r == c else ZERO)
               for r in range(len(m)) for c in range(len(m)))


def identity(n):
    return [[ONE if r == c else ZERO for c in range(n)] for r in range(n)]


def add_scalar(m, value):
    return [[g_add(x, value) if r == c else x for c, x in enumerate(row)]
            for r, row in enumerate(m)]


def sub_block(m, r0, r1):
    return [row[r0:r1] for row in m[r0:r1]]


def row_reduce(rows, ncols):
    """Reduced row echelon form of `rows` over Q(i): (nonzero rows, pivots)."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        p = next((k for k in range(r, len(rows)) if rows[k][c] != ZERO), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = g_inv(rows[r][c])
        rows[r] = [g_mul(inv, x) for x in rows[r]]
        for k in range(len(rows)):
            f = rows[k][c]
            if k != r and f != ZERO:
                rows[k] = [g_add(x, g_scale(-1, g_mul(f, y)))
                           for x, y in zip(rows[k], rows[r])]
        pivots.append(c)
    return rows[:len(pivots)], pivots


def rank(m):
    return len(row_reduce(m, len(m[0]) if m else 0)[1])


def kernel(m, n):
    """A basis of {v : m v = 0} for an n-column matrix."""
    rows, pivots = row_reduce(m, n)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        v = [ZERO] * n
        v[free] = ONE
        for row, p in zip(rows, pivots):
            v[p] = g_scale(-1, row[free])
        basis.append(v)
    return basis


def inverse(m):
    n = len(m)
    rows, pivots = row_reduce([row + unit for row, unit in zip(m, identity(n))],
                              2 * n)
    if pivots[:n] != list(range(n)):
        raise ValueError("singular matrix")
    return [row[n:] for row in rows]


def _gauge_shear(part, s, u):
    """The polar part of g A g^-1 for g = I + x^s u; `part` is [A_1, ..., A_k]
    with A_j the coefficient of x^-j."""
    k, n = len(part), len(part[0])
    g = {0: identity(n), s: u}
    h, term, minus_u = {}, identity(n), [[g_scale(-1, x) for x in row] for row in u]
    for deg in range(0, k, s):
        h[deg] = term
        term = mat_mul(term, minus_u)
    out = []
    for j in range(1, k + 1):
        acc = [[ZERO] * n for _ in range(n)]
        for a, ga in g.items():
            for b, hb in h.items():
                if j + a + b <= k:
                    acc = mat_add(acc, mat_mul(mat_mul(ga, part[j + a + b - 1]), hb))
        out.append(acc)
    return out


def orbit_member(part, blocks):
    """Whether the pole part [A_1, ..., A_k] lies in the truncated orbit given
    by `blocks`, a list of (q, size, xi, ranks, head_free): q = (q_2, ..., q_k)
    the scalar coefficients, xi the residue's annihilating sequence, ranks the
    rank of each partial product, and head_free to skip the first rank.

    The leading coefficient must be semisimple with the blocks' top
    coefficients as eigenvalues and their summed sizes as multiplicities.
    Conjugating to its eigenbasis and shearing the lower coefficients to block
    diagonal form (gauges I + x^s U) splits the part into one part of order
    k - 1 per eigenvalue; at order 1 one block remains, and the residue's
    rank sequence decides.
    """
    k, n = len(part), len(part[0])
    if k == 1:
        if len(blocks) != 1 or blocks[0][1] != n:
            return False
        _, _, xi, ranks, head_free = blocks[0]
        prod = identity(n)
        for l, (value, r) in enumerate(zip(xi, ranks), start=1):
            prod = mat_mul(prod, add_scalar(part[0], g_scale(-1, value)))
            if not (l == 1 and head_free) and rank(prod) != r:
                return False
        return is_scalar(prod, ZERO)
    groups = {}
    for blk in blocks:
        groups.setdefault(blk[0][k - 2], []).append(blk)
    values = list(groups)
    columns = []
    for value in values:
        basis = kernel(add_scalar(part[-1], g_scale(-1, value)), n)
        if len(basis) != sum(blk[1] for blk in groups[value]):
            return False
        columns += basis
    if len(columns) != n:
        return False
    p = [[v[r] for v in columns] for r in range(n)]
    p_inv = inverse(p)
    part = [mat_mul(mat_mul(p_inv, a), p) for a in part]
    ranges, start = [], 0
    for value in values:
        size = sum(blk[1] for blk in groups[value])
        ranges.append((start, start + size))
        start += size
    for s in range(1, k):
        target = part[k - 1 - s]
        u = [[ZERO] * n for _ in range(n)]
        dirty = False
        for a, (r0, r1) in enumerate(ranges):
            for b, (c0, c1) in enumerate(ranges):
                if a == b:
                    continue
                gap = g_inv(g_add(values[b], g_scale(-1, values[a])))
                for r in range(r0, r1):
                    for c in range(c0, c1):
                        if target[r][c] != ZERO:
                            u[r][c] = g_scale(-1, g_mul(target[r][c], gap))
                            dirty = True
        if dirty:
            part = _gauge_shear(part, s, u)
    return all(orbit_member([sub_block(a, r0, r1) for a in part[:-1]], groups[value])
               for value, (r0, r1) in zip(values, ranges))


def _modp(g):
    re_part, im_part = g
    num = (re_part.numerator * pow(re_part.denominator, -1, MODP)
           + im_part.numerator * pow(im_part.denominator, -1, MODP) * MODP_I)
    return num % MODP


def _mat_mul_modp(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % MODP for col in cols]
            for row in a]


def _span_dim_modp(gens, n):
    """Dimension mod p of the unital algebra generated by `gens`, or None
    when an entry's denominator is divisible by p."""
    try:
        gens = [[[_modp(x) for x in row] for row in m] for m in gens]
    except ValueError:
        return None
    basis = {}  # pivot -> row with 1 there, reduced by the rows added before

    def add(m):
        vec = [x for row in m for x in row]
        for piv, row in basis.items():
            f = vec[piv]
            if f:
                vec = [(x - f * y) % MODP for x, y in zip(vec, row)]
        for k, x in enumerate(vec):
            if x:
                inv = pow(x, -1, MODP)
                basis[k] = [y * inv % MODP for y in vec]
                return True
        return False

    todo = [[[int(r == c) for c in range(n)] for r in range(n)]]
    add(todo[0])
    while todo and len(basis) < n * n:
        todo = [w for g in gens for m in todo for w in [_mat_mul_modp(g, m)]
                if add(w)]
    return len(basis)


def _span_dim_exact(gens, n):
    basis = {}  # as in _span_dim_modp, over Q(i)

    def add(m):
        vec = [x for row in m for x in row]
        for piv, row in basis.items():
            f = vec[piv]
            if f != ZERO:
                vec = [g_add(x, g_scale(-1, g_mul(f, y))) for x, y in zip(vec, row)]
        for k, x in enumerate(vec):
            if x != ZERO:
                inv = g_inv(x)
                basis[k] = [g_mul(inv, y) for y in vec]
                return True
        return False

    todo = [identity(n)]
    add(todo[0])
    while todo and len(basis) < n * n:
        todo = [w for g in gens for m in todo for w in [mat_mul(g, m)] if add(w)]
    return len(basis)


def irreducible(mats, n):
    """Burnside: the coefficient matrices generate the full matrix algebra.

    Decided mod p when the span is full there (the span can only shrink
    under reduction); otherwise decided exactly over Q(i).
    """
    gens = [m for m in mats if any(x != ZERO for row in m for x in row)]
    if _span_dim_modp(gens, n) == n * n:
        return True
    return _span_dim_exact(gens, n) == n * n


def residue_sum_zero(parts, n):
    acc = [[ZERO] * n for _ in range(n)]
    for part in parts:
        acc = mat_add(acc, part[0])
    return is_scalar(acc, ZERO)


def moment_values(qc, dims, psi, psi_star):
    """mu_v = sum over arrows into v of psi psi* - sum out of v of psi* psi."""
    out = [[[ZERO] * d for _ in range(d)] for d in dims]
    for a, (s, t) in enumerate(qc.arrows):
        out[t] = mat_add(out[t], mat_mul(psi[a], psi_star[a]))
        out[s] = mat_add(out[s], mat_mul(psi_star[a], psi[a]), sign=-1)
    return out


def check_mc(qc, alpha, mi, n_in, out_parts, n_out, dim_w, block_sizes):
    """Middle convolution: residue sum zero, rank law and alpha' = s_mi(alpha).

    `block_sizes` maps each block vertex (i, j) to the size the output's
    orbit at pole i gives block j.
    """
    problems = []
    if not residue_sum_zero(out_parts, n_out):
        problems.append("output residues do not sum to zero")
    alpha2 = qc.reflect_composite(tuple(alpha), mi)
    level = sum(alpha2[k] for k in qc.blocks[0])
    if n_out != dim_w - n_in or n_out != level:
        problems.append("rank law fails: rank %d, dim W - n = %d, level of "
                        "s_mi(alpha) = %d" % (n_out, dim_w - n_in, level))
    for v, size in block_sizes.items():
        if alpha2[qc.index[v]] != size:
            problems.append("block %r: s_mi(alpha) = %d, output size %d"
                            % (v, alpha2[qc.index[v]], size))
    return problems


def check_orbit(qc, alpha, mi, i, part, blocks, reported):
    """gadsp's orbit_member answer for output pole i against orbit_member
    above, and the predicted orbit's block sizes against s_mi(alpha)."""
    problems = []
    alpha2 = qc.reflect_composite(tuple(alpha), mi)
    if i in qc.blocks:
        sizes = [alpha2[qc.index[(i, j)]] for j in range(1, len(qc.blocks[i]) + 1)]
    else:
        sizes = [sum(alpha2[k] for k in qc.blocks[0])]
    if [blk[1] for blk in blocks] != [size for size in sizes if size]:
        problems.append("predicted orbit sizes %s, s_mi(alpha) gives %s"
                        % ([blk[1] for blk in blocks], sizes))
    mine = orbit_member([list(m) for m in part], blocks)
    if reported != mine:
        problems.append("orbit_member = %s, the checker finds %s" % (reported, mine))
    return problems


def check_moment(qc, lam, dims, psi, psi_star, mu):
    """mu = lambda, for gadsp's moment values and for independent ones."""
    problems = []
    if list(dims) != [len(m) for m in mu]:
        problems.append("moment values have the wrong sizes")
        return problems
    mine = moment_values(qc, dims, psi, psi_star)
    for k, (value, m_gadsp, m_mine) in enumerate(zip(lam, mu, mine)):
        if not is_scalar(m_gadsp, value):
            problems.append("reported mu != lambda at %r" % (qc.vertices[k],))
        if not is_scalar(m_mine, value):
            problems.append("recomputed mu != lambda at %r" % (qc.vertices[k],))
    return problems
