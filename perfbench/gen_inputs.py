"""Write the benchmark's input files from a seed.

    python3 perfbench/gen_inputs.py                 # the committed inputs
    python3 perfbench/gen_inputs.py --seed 7 --out /tmp/fresh

The files are committed, so the benchmark of two commits always reads the
same bytes; this script only makes them anew.  It draws with gadsp's own
generators (`gadsp.gensamples`) and writes with `gadsp.serialize`, then
prints a summary for the README.  One seed drives all three workloads:
fuchsian-agree draws from Random(seed), irregular-check from
Random(seed + 1) and matrix-mc from Random(seed + 2).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from gadsp.builder import build_instance  # noqa: E402
from gadsp.gensamples import (  # noqa: E402
    POOL,
    random_fuchsian_data,
    random_instance_data,
    random_multi_index,
    random_orbit_tuple,
)
from gadsp.matrixops import OrbitMismatchError, middle_convolution  # noqa: E402
from gadsp.numeric import ZERO  # noqa: E402
from gadsp.serialize import dumps, spectral_to_document, tuple_to_document  # noqa: E402
from gadsp.spectral import normalize  # noqa: E402

import checker  # noqa: E402
from convert import tuple_matrices  # noqa: E402

DEFAULT_SEED = 20240801  # the seed of test_acceptance_1

FUCHSIAN_COUNT = 30
FUCHSIAN_VOLUME_CAP = 150_000   # the 414,720 box of the default draw is out
HEAVY_VOLUME = 100_000
IRREGULAR_RANDOM = 40
IRREGULAR_ORBIT = 12
IRREGULAR_VOLUME_CAP = 30_000
MATRIX_COUNT = 6


def fuchsian(rng):
    """Draws like test_acceptance_1 under a box-volume cap; at least one
    kept instance has a box of HEAVY_VOLUME or more."""
    out, skipped = [], []
    while len(out) < FUCHSIAN_COUNT or max(e["box_volume"] for e in out) < HEAVY_VOLUME:
        data = random_fuchsian_data(rng, n=rng.randint(1, 4),
                                    p=rng.randint(1, 3), pool=POOL)
        data, _ = normalize(data)
        vol = checker.box_volume(build_instance(data).alpha)
        if vol > FUCHSIAN_VOLUME_CAP:
            skipped.append(vol)
            continue
        if len(out) >= FUCHSIAN_COUNT and vol < HEAVY_VOLUME:
            continue
        out.append({"name": "f%03d" % len(out), "rank": data.rank,
                    "orders": [p.order for p in data.poles],
                    "box_volume": vol, "instance": spectral_to_document(data)})
    return out, skipped


def irregular(rng):
    """Random instances with an irregular pole, then instances of
    irreducible in-orbit tuples (solvable by construction)."""
    out, skipped = [], []
    while len(out) < IRREGULAR_RANDOM:
        data = random_instance_data(rng, n=rng.randint(1, 4),
                                    p=rng.randint(1, 3), max_order=3)
        data, _ = normalize(data)
        if max(p.order for p in data.poles) < 2:
            continue
        vol = checker.box_volume(build_instance(data).alpha)
        if vol > IRREGULAR_VOLUME_CAP:
            skipped.append(vol)
            continue
        out.append({"name": "r%03d" % len(out), "rank": data.rank,
                    "orders": [p.order for p in data.poles], "box_volume": vol,
                    "known": None, "instance": spectral_to_document(data)})
    orbit = 0
    while orbit < IRREGULAR_ORBIT:
        data, t = random_orbit_tuple(rng, n=rng.randint(1, 4),
                                     p=rng.randint(1, 3), max_order=3)
        norm, _ = normalize(data)
        vol = checker.box_volume(build_instance(norm).alpha)
        if vol > IRREGULAR_VOLUME_CAP:
            skipped.append(vol)
            continue
        if not checker.irreducible(tuple_matrices(t), t.n):
            continue
        out.append({"name": "t%03d" % orbit, "rank": data.rank,
                    "orders": [p.order for p in data.poles], "box_volume": vol,
                    "known": True, "instance": spectral_to_document(data),
                    "tuple": tuple_to_document(t, data)})
        orbit += 1
    return out, skipped


def matrix(rng):
    """Orbit tuples drawn like test_acceptance_4, kept only when xi_mi != 0
    and the middle convolution does not collapse."""
    out, skipped = [], 0
    while len(out) < MATRIX_COUNT:
        data, t = random_orbit_tuple(rng, n=rng.randint(1, 3),
                                     p=rng.randint(1, 2), max_order=3)
        inst = build_instance(data)
        mi = random_multi_index(rng, inst)
        xi_mi = ZERO
        for i in range(inst.num_poles):
            xi_mi = xi_mi + data.block(i, mi[i]).xi[0]
        if not xi_mi:
            skipped += 1
            continue
        try:
            res = middle_convolution(t, data, mi)
        except OrbitMismatchError:
            skipped += 1
            continue
        out.append({"name": "m%03d" % len(out), "rank": t.n,
                    "rank_out": res.output.n, "orders": list(t.orders),
                    "multi_index": list(mi),
                    "instance": spectral_to_document(data),
                    "tuple": tuple_to_document(t, data)})
    return out, skipped


def summary(seed, fuch, irr, mat):
    def spread(vols):
        vols = sorted(vols)
        return "%d to %d (median %d)" % (vols[0], vols[-1], vols[len(vols) // 2])

    lines = ["seed %d" % seed]
    f, fs = fuch
    lines.append("fuchsian-agree: %d instances, ranks %s, poles %s, box volume %s; "
                 "skipped boxes above the cap: %s"
                 % (len(f), sorted({e["rank"] for e in f}),
                    sorted({len(e["orders"]) for e in f}),
                    spread([e["box_volume"] for e in f]), fs))
    r, rs = irr
    known = [e["name"] for e in r if e["known"]]
    lines.append("irregular-check: %d instances, ranks %s, poles %s, orders %s, "
                 "box volume %s; known solvable: %s; skipped boxes: %s"
                 % (len(r), sorted({e["rank"] for e in r}),
                    sorted({len(e["orders"]) for e in r}),
                    sorted({o for e in r for o in e["orders"]}),
                    spread([e["box_volume"] for e in r]), " ".join(known), rs))
    m, ms = mat
    lines.append("matrix-mc: %d tuples, ranks in %s, ranks out %s, poles %s, "
                 "orders %s; draws skipped (xi_mi = 0 or collapse): %d"
                 % (len(m), [e["rank"] for e in m], [e["rank_out"] for e in m],
                    [len(e["orders"]) for e in m],
                    [e["orders"] for e in m], ms))
    return "\n".join(lines)


def write(out_dir, seed):
    fuch = fuchsian(random.Random(seed))
    irr = irregular(random.Random(seed + 1))
    mat = matrix(random.Random(seed + 2))
    irr_dir = os.path.join(out_dir, "irregular-check")
    shutil.rmtree(irr_dir, ignore_errors=True)
    os.makedirs(irr_dir)
    for entry in irr[0]:
        with open(os.path.join(irr_dir, entry["name"] + ".json"), "w") as fh:
            fh.write(dumps(entry.pop("instance")))
    for name, (entries, _) in (("fuchsian-agree", fuch),
                               ("irregular-check", irr),
                               ("matrix-mc", mat)):
        with open(os.path.join(out_dir, name + ".json"), "w") as fh:
            json.dump({"seed": seed, "entries": entries}, fh, sort_keys=True,
                      separators=(",", ":"))
            fh.write("\n")
    return summary(seed, fuch, irr, mat)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", default=os.path.join(HERE, "inputs"))
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    print(write(args.out, args.seed))


if __name__ == "__main__":
    main()
