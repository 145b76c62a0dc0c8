"""Source checks on src/gadsp: known memory pitfalls stay out, number
literals take ASCII digits only, the module state stays the one README
lists with one writer each, the limits stay the two that count work,
rejected input keeps one class, no handler takes apart the message of the
exception it caught, only the sample generator draws random numbers, and
every module-level import is used.

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


# Number literals take the ASCII digits 0-9 alone: str.isdigit, isdecimal and
# isnumeric accept other Unicode digits too, which int() then reads.
DIGIT_TESTS = {"isdigit", "isdecimal", "isnumeric"}


def _unicode_digit_tests(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in DIGIT_TESTS:
            yield node.lineno


def test_no_unicode_digit_tests():
    found = ["%s:%d" % (path.name, line) for path in SOURCES
             for line in _unicode_digit_tests(ast.parse(path.read_text(), str(path)))]
    assert found == []


def test_the_check_sees_digit_tests():
    tree = ast.parse("s.isdigit()\ntext[0].isdecimal()\nstr.isnumeric(c)\n"
                     "'0' <= c <= '9'\nisdigit(c)\n")
    assert list(_unicode_digit_tests(tree)) == [1, 2, 3]


# The module state README lists: the one-entry memos of sigma and matrixops,
# each with the one function that writes it.
MODULE_STATE = {("sigma", "_last_candidates"): "_membership",
                ("matrixops", "_last_reduction"): "_orbit_reduction"}


def _global_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            yield from node.names


def test_only_the_listed_module_state_is_rebound():
    found = {(path.stem, name) for path in SOURCES
             for name in _global_names(ast.parse(path.read_text(), str(path)))}
    assert found == MODULE_STATE.keys()


def test_the_check_sees_nested_global_statements():
    tree = ast.parse("def f():\n    global a, b\n"
                     "class C:\n    def g(self):\n        global c\n")
    assert sorted(_global_names(tree)) == ["a", "b", "c"]


def _memo_writers(tree, name):
    """(function, assignments of `name`) for each function that declares
    `name` global and assigns it; a function defined inside counts apart."""
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        own, stack = [], list(func.body)
        while stack:
            node = stack.pop()
            own.append(node)
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef, ast.Lambda)):
                stack.extend(ast.iter_child_nodes(node))
        declared = any(isinstance(n, ast.Global) and name in n.names for n in own)
        stores = sum(isinstance(n, ast.Name) and n.id == name
                     and isinstance(n.ctx, ast.Store) for n in own)
        if declared and stores:
            yield func.name, stores


def test_each_memo_has_one_writer():
    # one function assigns each memo, once: it stores whole entries, with no
    # clearing before its computation
    for (module, name), writer in MODULE_STATE.items():
        path = next(path for path in SOURCES if path.stem == module)
        assert list(_memo_writers(ast.parse(path.read_text(), str(path)), name)) \
            == [(writer, 1)]


def test_the_check_sees_a_second_writer():
    tree = ast.parse("def f():\n    global m\n    m = None\n    m = 1\n"
                     "def g():\n    global m\n    m, n = 2, 3\n"
                     "def h():\n    m = 4\n"
                     "def k():\n    global m\n    return m\n"
                     "def l():\n    global m\n    def inner():\n        m = 5\n")
    assert list(_memo_writers(tree, "m")) == [("f", 2), ("g", 1)]


# The limits a run has: one work budget for the enumeration and one node cap
# for the search, both counting work.  A new limit is a new name here; the
# exit code a cap gives (cli.EXIT_CAP) is no limit.
LIMITS = {("roots", "DEFAULT_WORK_CAP"), ("sigma", "DEFAULT_NODE_CAP")}


def _module_level_names(tree):
    """The names that statements at the top of a module bind by assignment."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def test_only_the_listed_limits_exist():
    found = {(path.stem, name) for path in SOURCES
             for name in _module_level_names(ast.parse(path.read_text(), str(path)))
             if name.endswith("_CAP") and not name.startswith("EXIT_")}
    assert found == LIMITS


def test_the_check_sees_module_level_assignments():
    tree = ast.parse("A_CAP = 1\nB_CAP: int = 2\nC_CAP, (D_CAP, e) = f\n"
                     "def g():\n    H_CAP = 3\nfrom m import I_CAP\n")
    assert list(_module_level_names(tree)) == ["A_CAP", "B_CAP", "C_CAP", "D_CAP", "e"]


# Rejected input is one class: the input modules raise nothing else, and the
# command line maps that class alone to exit 2 (ValueError from anywhere
# else is a bug and exits 4).
INPUT_MODULES = ("serialize", "spectral")


def _raises_other_than_spectral_data_error(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if not (isinstance(exc, ast.Name) and exc.id == "SpectralDataError"):
                yield node.lineno


def _invalid_input_handlers(tree):
    """The exception types (as source) of each handler in main that returns
    EXIT_INVALID."""
    main = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    for node in ast.walk(main):
        if isinstance(node, ast.ExceptHandler) and any(
                isinstance(ret, ast.Return) and isinstance(ret.value, ast.Name)
                and ret.value.id == "EXIT_INVALID" for ret in ast.walk(node)):
            yield ast.unparse(node.type)


def test_input_modules_raise_only_spectral_data_error():
    found = ["%s:%d" % (path.name, line) for path in SOURCES
             if path.stem in INPUT_MODULES
             for line in _raises_other_than_spectral_data_error(
                 ast.parse(path.read_text(), str(path)))]
    assert found == []


def test_main_maps_only_spectral_data_error_to_exit_two():
    cli = next(path for path in SOURCES if path.stem == "cli")
    assert list(_invalid_input_handlers(ast.parse(cli.read_text(), str(cli)))) \
        == ["SpectralDataError"]


def test_the_checks_see_other_input_errors():
    tree = ast.parse("raise SpectralDataError('a')\nraise SpectralDataError\n"
                     "raise ValueError('b')\nraise\nraise errors.SpectralDataError('c')\n")
    assert list(_raises_other_than_spectral_data_error(tree)) == [3, 4, 5]
    tree = ast.parse("def main():\n    try:\n        pass\n"
                     "    except SearchCapExceeded:\n        return EXIT_CAP\n"
                     "    except (SpectralDataError, ValueError):\n        return EXIT_INVALID\n"
                     "    except OSError:\n        return EXIT_INVALID\n")
    assert list(_invalid_input_handlers(tree)) == ["(SpectralDataError, ValueError)",
                                                   "OSError"]


# A message's format is known where it is written, in its exception's
# constructor: a handler that splits or searches str(exc) of the exception it
# caught knows that format a second time; the handler reads the exception's
# attributes instead.
def _exception_text_reads(tree):
    found = set()
    for handler in ast.walk(tree):
        if not (isinstance(handler, ast.ExceptHandler) and handler.name):
            continue
        for node in ast.walk(handler):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                text = node.func.value
                if isinstance(text, ast.Call) and isinstance(text.func, ast.Name) \
                        and text.func.id == "str" and len(text.args) == 1 \
                        and isinstance(text.args[0], ast.Name) \
                        and text.args[0].id == handler.name:
                    found.add(node.lineno)
    return sorted(found)


def test_no_handler_reads_an_exception_message_back():
    found = ["%s:%d" % (path.name, line) for path in SOURCES
             for line in _exception_text_reads(ast.parse(path.read_text(), str(path)))]
    assert found == []


def test_the_check_sees_exception_text_reads():
    tree = ast.parse("try:\n    f()\nexcept E as exc:\n"
                     "    g(str(exc).rsplit(' (at', 1)[0])\n"
                     "    str(exc).startswith('x')\n    str(other).split()\n"
                     "    str(exc)\n    '%s' % exc\n"
                     "    try:\n        h()\n    except F as exc:\n"
                     "        str(exc).find('y')\n"
                     "except G:\n    str(exc).split()\n")
    assert _exception_text_reads(tree) == [4, 5, 12]


# Outputs are byte-deterministic: every search, Norton's test mod p among
# them, walks a fixed sequence.  Only the sample generator draws, from a
# Random its caller seeds.
RANDOM_USERS = {"gensamples"}


def _random_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name == "random" or name.startswith("random.") for name in names):
            yield node.lineno


def test_only_the_sample_generator_imports_random():
    found = ["%s:%d" % (path.name, line) for path in SOURCES
             if path.stem not in RANDOM_USERS
             for line in _random_imports(ast.parse(path.read_text(), str(path)))]
    assert found == []
    assert all(any(_random_imports(ast.parse(path.read_text(), str(path))))
               for path in SOURCES if path.stem in RANDOM_USERS)


def test_the_check_sees_random_imports():
    tree = ast.parse("import random\nimport os, random as r\nfrom random import Random\n"
                     "import secrets\nfrom .random import x\nimport randomness\n"
                     "def f():\n    import random.x\n")
    assert list(_random_imports(tree)) == [1, 2, 3, 8]


# Every module-level import is used in its module.  roots imports quiver.dot
# only for the benchmark's tracer, which wraps gadsp.roots:dot, and matrixops
# imports numeric.qi_eigenvalues only because the tracer wraps
# gadsp.matrixops:qi_eigenvalues (htl_reduce takes its leading values from
# the orbit, and tests/test_benchmark_sites.py resolves that site).
UNUSED_IMPORT_EXCEPTIONS = {("roots", "dot"), ("matrixops", "qi_eigenvalues")}


def _unused_imports(tree):
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_no_unused_imports():
    found = ["%s:%d %s" % (path.name, line, name) for path in SOURCES
             for line, name in _unused_imports(ast.parse(path.read_text(), str(path)))
             if (path.stem, name) not in UNUSED_IMPORT_EXCEPTIONS]
    assert found == []
    # each exception is still an unused import, or it would not need listing
    for stem, name in UNUSED_IMPORT_EXCEPTIONS:
        path = SOURCES[0].parent / (stem + ".py")
        assert name in {n for _, n in _unused_imports(ast.parse(path.read_text(), str(path)))}


def test_the_check_sees_unused_imports():
    tree = ast.parse("from __future__ import annotations\nimport os, os.path\n"
                     "import json as j\nfrom .numeric import (\n    invert,\n    rref,\n)\n"
                     "import collections.abc\n"
                     "def f():\n    import math\n    return rref(os.sep)\n")
    assert _unused_imports(tree) == [(3, "j"), (4, "invert"), (8, "collections")]
