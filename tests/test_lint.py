"""Source checks on src/gadsp: known memory pitfalls stay out, and the module
state stays the one README lists.

A call math.gcd(*xs) or math.lcm(*xs) builds one argument tuple of len(xs),
and CPython keeps up to 2000 freed tuples of each size below 20 on free
lists that only full (generation-2) garbage collections empty.  When little
else allocates, those collections are rare, and such calls over many sizes
raised the peak memory of the matrix benchmark; the loops that replace them
pass two or three arguments at a time.
"""

import ast
import pathlib

import gadsp

SOURCES = sorted(pathlib.Path(gadsp.__file__).parent.glob("*.py"))


def _starred_gcd_lcm_calls(tree):
    names = {"gcd", "lcm"}
    for alias in (a for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  and node.module == "math" for a in node.names):
        if alias.name in names:
            names.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in names and any(isinstance(arg, ast.Starred) for arg in node.args):
            yield node.lineno


def test_no_starred_gcd_or_lcm_calls():
    assert SOURCES
    found = ["%s:%d" % (path.name, line) for path in SOURCES
             for line in _starred_gcd_lcm_calls(ast.parse(path.read_text(), str(path)))]
    assert found == []


def test_the_check_sees_starred_calls():
    tree = ast.parse("import math\nfrom math import gcd as g\n"
                     "math.lcm(*xs)\ng(*xs)\nmath.gcd(a, b)\nmath.lcm(a, *xs)\n")
    assert list(_starred_gcd_lcm_calls(tree)) == [3, 4, 6]


# The module state README lists: the one-entry memos of sigma and matrixops.
MODULE_STATE = {("sigma", "_last_candidates"), ("matrixops", "_last_reduction")}


def _global_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            yield from node.names


def test_only_the_listed_module_state_is_rebound():
    found = {(path.stem, name) for path in SOURCES
             for name in _global_names(ast.parse(path.read_text(), str(path)))}
    assert found == MODULE_STATE


def test_the_check_sees_nested_global_statements():
    tree = ast.parse("def f():\n    global a, b\n"
                     "class C:\n    def g(self):\n        global c\n")
    assert sorted(_global_names(tree)) == ["a", "b", "c"]
