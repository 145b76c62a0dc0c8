"""The benchmark's committed inputs must be reproducible from their seed.

perfbench/gen_inputs.py draws them with gadsp.gensamples (and, through
random_orbit_tuple, gauge_conjugate), so a change to either that moves a
draw shows up here.  The script runs with -B and writes only to a temporary
directory, so nothing is written under perfbench/.
"""

import pathlib
import subprocess
import sys

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _files(root):
    return {path.relative_to(root): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def test_gen_inputs_reproduces_the_committed_inputs(tmp_path):
    before = sorted(PERFBENCH.rglob("*"))
    subprocess.run([sys.executable, "-B", str(PERFBENCH / "gen_inputs.py"),
                    "--out", str(tmp_path)],
                   check=True, capture_output=True, timeout=300)
    assert sorted(PERFBENCH.rglob("*")) == before
    committed = _files(PERFBENCH / "inputs")
    fresh = _files(tmp_path)
    assert committed
    assert sorted(fresh) == sorted(committed)
    assert [name for name in committed if fresh[name] != committed[name]] == []
