"""The names the benchmark's traced run wraps must exist.

perfbench/tracer.py replaces functions at the names their callers look them
up by ("gadsp.sigma:is_root", "gadsp.numeric:ExactMatrix.__mul__", ...).
Renaming or deleting one of those names breaks only the traced run, so this
test resolves every site.  The tracer is read and executed here, never
imported as a module, so nothing is written under perfbench/.
"""

import pathlib
import types

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"),
         module.__dict__)
    return module


def test_every_traced_site_resolves_to_an_own_attribute():
    tracer = _tracer()
    sites = [site for _stem, _leaf, group in tracer.LAYERS for site in group]
    assert sites
    missing = []
    for site in sites:
        owner, name = tracer._resolve(site)
        if name not in vars(owner):
            missing.append(site)
    assert missing == []
