import dataclasses
import json
import pathlib
from fractions import Fraction

import pytest

from gadsp import cli, sigma
from gadsp.builder import build_instance
from gadsp.cli import main
from gadsp.gensamples import random_orbit_tuple, rng_from_seed
from gadsp.numeric import GaussRat, gauss_parse
from gadsp.serialize import (
    dumps,
    parse_spectral,
    spectral_to_document,
    tuple_to_document,
)


def fuchsian_doc(resonant):
    infinity_values = ["-1/4", "-1/2"] if resonant else ["-1/3", "-1/5"]
    finite = [["0", "1/4"], ["0", "1/2"]] if resonant \
        else [["0", "1/4"], ["0", "17/60"]]
    poles = [{"point": "infinity", "order": 1, "blocks": [
        {"size": 2, "q": [], "residue": {"jordan": [
            {"value": infinity_values[0], "blocks": [1]},
            {"value": infinity_values[1], "blocks": [1]}]}}]}]
    for i, values in enumerate(finite, start=1):
        poles.append({"point": "a%d" % i, "order": 1, "blocks": [
            {"size": 2, "q": [], "residue": {"jordan": [
                {"value": values[0], "blocks": [1]},
                {"value": values[1], "blocks": [1]}]}}]})
    return {"rank": 2, "poles": poles}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_quiver_command_json_and_dot(tmp_path, capsys):
    path = write(tmp_path, "inst.json", fuchsian_doc(resonant=False))
    assert main(["quiver", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["vertices"]) == 4
    assert report["alpha_dot_lambda"] == "0"
    assert main(["quiver", path, "--format", "dot"]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith("digraph quiver {")
    assert dot.count("->") == 3


def test_check_exit_codes_and_certificates(tmp_path, capsys):
    good = write(tmp_path, "good.json", fuchsian_doc(resonant=False))
    bad = write(tmp_path, "bad.json", fuchsian_doc(resonant=True))
    assert main(["check", good]) == 0
    out_good = json.loads(capsys.readouterr().out)
    assert out_good["solvable"] and out_good["moduli_nonempty"]
    assert main(["check", bad]) == 1
    out_bad = json.loads(capsys.readouterr().out)
    assert not out_bad["solvable"]
    assert out_bad["certificate"]["kind"] == "violating_decomposition"


def test_check_deterministic_output(tmp_path, capsys):
    path = write(tmp_path, "inst.json", fuchsian_doc(resonant=True))
    main(["check", path])
    first = capsys.readouterr().out
    main(["check", path])
    second = capsys.readouterr().out
    assert first == second


def test_malformed_input_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["check", str(path)]) == 2
    missing_residue = {"rank": 1, "poles": [
        {"point": "infinity", "order": 1, "blocks": [{"size": 1, "q": []}]}]}
    path2 = write(tmp_path, "norres.json", missing_residue)
    assert main(["check", path2]) == 2


def test_tiny_cap_exits_three(tmp_path, capsys):
    path = write(tmp_path, "inst.json", fuchsian_doc(resonant=True))
    assert main(["check", path, "--max-nodes", "1"]) == 3


def test_max_nodes_below_one_exits_two(tmp_path, capsys):
    # a cap that no search can meet is invalid input, not an exceeded cap
    path = write(tmp_path, "inst.json", fuchsian_doc(resonant=False))
    for value, reason in (("0", "0 is below 1"), ("-5", "-5 is below 1"),
                          ("two", "'two' is not an integer")):
        assert main(["check", path, "--max-nodes", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --max-nodes: " + reason in captured.err
        assert "search cap exceeded" not in captured.err


def test_help_and_usage_errors_return_their_exit_codes(capsys):
    assert main(["--help"]) == 0
    assert "usage: gadsp" in capsys.readouterr().out
    assert main([]) == 2
    assert "usage: gadsp" in capsys.readouterr().err


def test_internal_error_exits_four(tmp_path, monkeypatch, capsys):
    def crash(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    path = write(tmp_path, "inst.json", fuchsian_doc(resonant=False))
    monkeypatch.setattr("gadsp.cli.sigma_tilde_member", crash)
    assert main(["check", path]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" in captured.err and "RecursionError" in captured.err


def test_failed_reducibility_certificate_is_internal(tmp_path, monkeypatch, capsys):
    # m004's tuple is reducible, so verify reaches the invariant-subspace
    # certificate; a certificate that fails its recheck is a bug (exit 4),
    # never invalid input (exit 2).
    doc = json.loads((pathlib.Path(__file__).resolve().parents[1]
                      / "perfbench" / "inputs" / "matrix-mc.json").read_text())
    entry = next(e for e in doc["entries"] if e["name"] == "m004")
    inst_path = write(tmp_path, "inst.json", entry["instance"])
    tup_path = write(tmp_path, "tuple.json", entry["tuple"])
    monkeypatch.setattr("gadsp.matrixops._invariant_span_holds",
                        lambda basis, gens, n: False)
    assert main(["verify", inst_path, tup_path]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "AssertionError" in captured.err and "(bug)" in captured.err


def test_verify_and_mc_roundtrip(tmp_path, capsys):
    rng = rng_from_seed(99)
    data, t = random_orbit_tuple(rng, n=2, p=1)
    inst_path = write(tmp_path, "inst.json", spectral_to_document(data))
    tup_path = write(tmp_path, "tuple.json", tuple_to_document(t, data))
    code = main(["verify", inst_path, tup_path])
    report = json.loads(capsys.readouterr().out)
    assert report["checks"]["residue_sum_zero"]
    assert report["checks"]["moment_map_equals_lambda"]
    assert "irreducible" in report
    assert report["ok"] and code == 0

    # find a multi-index with nonzero leading-xi sum
    inst = build_instance(data)
    from gadsp.numeric import ZERO
    chosen = None
    for mi in inst.multi_indices():
        acc = ZERO
        for i in range(inst.num_poles):
            acc = acc + data.block(i, mi[i]).xi[0]
        if acc:
            chosen = mi
            break
    if chosen is None:
        pytest.skip("all leading-xi sums vanish for this sample")
    code = main(["mc", inst_path, tup_path,
                 "--index", ",".join(str(j) for j in chosen)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert all(report["orbit_checks"])
    assert report["rank_out"] == report["dim_w"] - report["rank_in"]


def test_verify_detects_residue_sum_violation(tmp_path, capsys):
    rng = rng_from_seed(100)
    data, t = random_orbit_tuple(rng, n=2, p=1)
    doc = tuple_to_document(t, data)
    doc["poles"][0]["matrices"][0][0][0] = "77"
    inst_path = write(tmp_path, "inst.json", spectral_to_document(data))
    tup_path = write(tmp_path, "tuple.json", doc)
    # failed checks exit 1, as failed mc cross-checks do; 2 is rejected input
    assert main(["verify", inst_path, tup_path]) == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert not report["checks"]["residue_sum_zero"] and not report["ok"]
    assert captured.err == ""


def test_a_wrong_moment_map_fails_verify_and_selftest(monkeypatch, capsys):
    real = cli.moment_map

    def shifted(inst, rep):
        return [m.add_scalar(GaussRat(1)) for m in real(inst, rep)]

    monkeypatch.setattr(cli, "moment_map", shifted)
    assert main(["verify", *PAIR]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["checks"]["moment_map_equals_lambda"] is False and not report["ok"]
    assert main(["selftest", "--seed", "1", "--trials", "1"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["failures"] and not report["ok"]
    assert all(f.startswith("moment map trial 0 at ") for f in report["failures"])


def test_mc_zero_xi_exits_two(tmp_path, capsys):
    # craft an instance whose only multi-index has leading-xi sum zero
    doc = {"rank": 1, "poles": [
        {"point": "infinity", "order": 1, "blocks": [
            {"size": 1, "q": [], "residue": {"jordan": [
                {"value": "1", "blocks": [1]}]}}]},
        {"point": "a1", "order": 1, "blocks": [
            {"size": 1, "q": [], "residue": {"jordan": [
                {"value": "-1", "blocks": [1]}]}}]}]}
    data = parse_spectral(doc)
    from gadsp.matrixops import tuple_from_data
    t = tuple_from_data(data)
    inst_path = write(tmp_path, "inst.json", doc)
    tup_path = write(tmp_path, "tuple.json", tuple_to_document(t, data))
    assert main(["mc", inst_path, tup_path, "--index", "1,1"]) == 2


def test_selftest_runs_clean(capsys):
    assert main(["selftest", "--seed", "1", "--trials", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"]


def test_roundtrip_documents():
    rng = rng_from_seed(101)
    data, t = random_orbit_tuple(rng, n=2, p=1)
    doc = spectral_to_document(data)
    again = parse_spectral(doc)
    assert again == data
    from gadsp.serialize import parse_tuple
    t2 = parse_tuple(tuple_to_document(t, data), data)
    assert t2 == t


def test_consecutive_main_calls_do_not_share_options(tmp_path, capsys,
                                                     monkeypatch):
    # options of one call must not reach the next, whether main builds its
    # parser per call or keeps one
    import gadsp.cli as cli
    from gadsp.sigma import DEFAULT_NODE_CAP
    caps = []
    real = cli.sigma_tilde_member

    def recording(inst, node_cap):
        caps.append(node_cap)
        return real(inst)
    monkeypatch.setattr(cli, "sigma_tilde_member", recording)
    path = write(tmp_path, "inst.json", fuchsian_doc(resonant=False))
    assert main(["check", path, "--reduce", "--max-nodes", "5"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(["check", path]) == 0
    second = json.loads(capsys.readouterr().out)
    assert caps == [5, DEFAULT_NODE_CAP]
    assert "reduction" in first
    assert "reduction" not in second
    assert {k: v for k, v in first.items() if k != "reduction"} == second


ROOT = pathlib.Path(__file__).resolve().parents[1]
PAIR = [str(ROOT / "samples" / name) for name in ("pair_instance.json",
                                                  "pair_tuple.json")]


def _residue_doc(matrix):
    """fuchsian_doc with pole a1's residue given as an explicit matrix."""
    doc = fuchsian_doc(resonant=False)
    doc["poles"][1]["blocks"][0]["residue"] = {"matrix": matrix}
    return doc


def _tuple_doc(matrix):
    """The pair sample's tuple with its first matrix at pole 1 replaced."""
    doc = json.loads(pathlib.Path(PAIR[1]).read_text(encoding="utf-8"))
    doc["poles"][1]["matrices"][0] = matrix
    return doc


def _jordan_value_doc(value):
    doc = fuchsian_doc(resonant=False)
    doc["poles"][1]["blocks"][0]["residue"]["jordan"][0]["value"] = value
    return doc


def _rejects(capsys, argv, place):
    """main(argv) exits 2, writes nothing to stdout, and names the place."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and place in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("value, message", [
    (0, "numbers must be exact strings"),
    ("1+i", "expected digits"),
    # more digits than int() of a string converts, at the literal's start
    pytest.param("1/" + "3" * 5000, "not a decimal integer within this"
                 " interpreter's digit limit (at position 2)", id="long-literal"),
    # Arabic-Indic digits, which int() would read as 12
    pytest.param("\u0661\u0662", "expected digits (at position 0)", id="non-ascii-digits"),
])
def test_bad_number_exits_two_naming_its_place(tmp_path, capsys, value, message):
    path = write(tmp_path, "inst.json", _jordan_value_doc(value))
    _rejects(capsys, ["check", path], "pole 1 block 0 jordan value: " + message)


def _parse_long_fraction(text):
    """Fraction(text) for a "-n/d" of any length: int() of a string is
    capped by the interpreter's digit limit, so convert 1,000 digits at a
    time."""
    def digits(part):
        value = 0
        for k in range(0, len(part), 1000):
            chunk = part[k:k + 1000]
            value = value * 10 ** len(chunk) + int(chunk)
        return value
    sign = -1 if text.startswith("-") else 1
    num, _, den = text.lstrip("-").partition("/")
    return Fraction(sign * digits(num), digits(den or "1"))


def test_values_longer_than_the_interpreter_digit_limit_print(tmp_path, capsys):
    # Three residues of about 3,000 digits each: lambda at the pole-0 vertex,
    # minus their sum, has more digits than str() of an int converts by
    # default, and each literal fits under that limit.
    dens = [10 ** 2999 + c for c in (7, 9, 13)]
    doc = {"rank": 1, "poles": [
        {"point": point, "order": 1, "blocks": [{"size": 1, "q": [], "residue": {
            "jordan": [{"value": "1/%d" % den, "blocks": [1]}]}}]}
        for point, den in zip(("infinity", "a1", "a2"), dens)]}
    path = write(tmp_path, "long.json", doc)
    lam = -sum(Fraction(1, den) for den in dens)
    assert main(["check", path]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["reasons"][-1] == "FAIL: alpha . lambda != 0"
    assert [_parse_long_fraction(v) for v in report["lambda"].values()] == [lam]
    assert main(["check", path, "--format", "text"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.endswith("verdict: unsolvable\n")
    assert main(["quiver", path]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert [_parse_long_fraction(v) for v in report["lambda"].values()] == [lam]
    assert _parse_long_fraction(report["alpha_dot_lambda"]) == lam


def _rank_one_doc(rank=1, order=1, size=1, blocks=1):
    return {"rank": rank, "poles": [{"point": "infinity", "order": order, "blocks": [
        {"size": size, "q": [], "residue": {"jordan": [
            {"value": "0", "blocks": [blocks]}]}}]}]}


@pytest.mark.parametrize("doc, place", [
    # JSON true is a Python int, and this document once parsed to rank-1 data
    (_rank_one_doc(True, True, True, True), "rank must be an integer"),
    (_rank_one_doc(rank=True), "rank must be an integer"),
    (_rank_one_doc(order=True), "pole 0: order must be >= 1"),
    (_rank_one_doc(size=True), "pole 0 block 0: size must be >= 1"),
    (_rank_one_doc(blocks=True), "pole 0 block 0: jordan blocks must be positive"),
])
def test_boolean_integers_exit_two(tmp_path, capsys, doc, place):
    assert main(["quiver", write(tmp_path, "ok.json", _rank_one_doc())]) == 0
    capsys.readouterr()
    _rejects(capsys, ["check", write(tmp_path, "inst.json", doc)], place)


@pytest.mark.parametrize("rank", [True, 1.0])
def test_tuple_rank_must_be_an_integer(tmp_path, capsys, rank):
    # true == 1 and 1.0 == 1 in Python, so an equality test alone takes both
    inst = write(tmp_path, "inst.json", _rank_one_doc())
    tup = {"rank": 1, "poles": [{"point": "infinity", "matrices": [[["0"]]]}]}
    assert main(["verify", inst, write(tmp_path, "ok.json", tup)]) == 0
    capsys.readouterr()
    path = write(tmp_path, "tuple.json", dict(tup, rank=rank))
    for argv in (["verify", inst, path], ["mc", inst, path, "--index", "1"]):
        _rejects(capsys, argv, "tuple rank mismatch")


@pytest.mark.parametrize("rows", [["10", "01"], [1, 0], [["1", "0"]],
                                  [["1", "0"], ["0"]]])
def test_malformed_residue_matrix_exits_two(tmp_path, capsys, rows):
    # string rows were once split into characters ("10" read as [1, 0]),
    # and number rows crashed
    path = write(tmp_path, "inst.json", _residue_doc(rows))
    for command in ("quiver", "check"):
        _rejects(capsys, [command, path], "pole 1 block 0 residue matrix must be "
                 "a list of 2 rows of 2 entries")


@pytest.mark.parametrize("rows", [["10", "01"], [1, 0], [["1", "0", "0"], ["0", "1"]]])
def test_malformed_tuple_matrix_exits_two(tmp_path, capsys, rows):
    path = write(tmp_path, "tuple.json", _tuple_doc(rows))
    for argv in (["verify", PAIR[0], path], ["mc", PAIR[0], path, "--index", "1,1"]):
        _rejects(capsys, argv, "tuple pole 1 matrix 1 must be a list of 2 rows of "
                 "2 entries")


def test_explicit_residue_outside_q_i_exits_two(tmp_path, capsys):
    path = write(tmp_path, "inst.json", _residue_doc([["0", "2"], ["1", "0"]]))
    _rejects(capsys, ["check", path], "pole 'a1' block 0 residue: ")


@pytest.mark.parametrize("index, place", [
    ("1,x", "--index '1,x': not comma-separated integers"),
    ("1", "multi-index (1,) needs one block for each of the 2 poles"),
    ("1,3", "multi-index block 3 out of range 1..2 at pole 1"),
])
def test_bad_index_exits_two(capsys, index, place):
    _rejects(capsys, ["mc", *PAIR, "--index", index], place)


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b'{"rank": ' + b"1" * 5000 + b"}"])
def test_unreadable_json_exits_two(tmp_path, capsys, content):
    # a non-UTF-8 file, and an integer past Python's 4,300-digit limit
    path = tmp_path / "inst.json"
    path.write_bytes(content)
    _rejects(capsys, ["check", str(path)], "cannot read %s: " % path)


def test_deeply_nested_json_exits_two(tmp_path, capsys):
    # the JSON parser recurses once per nesting level, so this document
    # raises RecursionError; it once exited 4 with a traceback
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    for argv in (["check", str(path)], ["verify", PAIR[0], str(path)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot read %s: " % path)
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


def test_unwritable_output_exits_two(tmp_path, capsys):
    inst = str(ROOT / "samples" / "fuchsian_solvable.json")
    out = tmp_path / "missing" / "out.json"
    _rejects(capsys, ["check", inst, "--output", str(out)], "cannot write %s: " % out)


def test_internal_value_error_exits_four(monkeypatch, capsys):
    # a ValueError from inside the matrix layer is a bug, not rejected input
    def broken(*args, **kwargs):
        raise ValueError("could not complete basis")

    monkeypatch.setattr("gadsp.matrixops.rref_kernel", broken)
    assert main(["mc", *PAIR, "--index", "1,1"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" in captured.err
    assert "ValueError: could not complete basis" in captured.err


@pytest.mark.parametrize("keys, value, place", [
    (("rank",), 0, "rank must be positive"),
    (("poles", 0, "point"), "a0", "pole 0 must be the point at infinity"),
    (("poles", 2, "point"), "a1", "duplicate pole labels"),
    # an order-1 pole takes no q at all
    (("poles", 1, "blocks", 0, "q"), ["1"], "pole 'a1': q degree exceeds pole order"),
    (("poles", 1, "blocks", 0, "residue", "jordan", 0, "blocks"), [2],
     "pole 'a1': residue size mismatch"),
    (("poles", 1, "blocks", 0, "residue", "jordan", 1, "value"), "0",
     "pole 1 block 0: repeated eigenvalue in jordan data"),
    (("poles", 1, "blocks", 0, "residue"), {"xi": ["0"]},
     "pole 1 block 0: residue needs jordan or matrix"),
], ids=["rank-0", "first-pole", "duplicate-label", "order-1-q", "residue-size",
        "repeated-eigenvalue", "no-residue-encoding"])
def test_rejected_spectral_data_exits_two(tmp_path, capsys, keys, value, place):
    doc = fuchsian_doc(resonant=False)
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    _rejects(capsys, ["check", write(tmp_path, "inst.json", doc)], place)


def test_mc_rejects_residues_that_do_not_sum_to_zero(tmp_path, capsys):
    doc = json.loads(pathlib.Path(PAIR[1]).read_text(encoding="utf-8"))
    residue = doc["poles"][1]["matrices"][0]   # the coefficient of 1/x
    residue[0][0] = str(gauss_parse(residue[0][0]) + 1)
    _rejects(capsys, ["mc", PAIR[0], write(tmp_path, "tuple.json", doc), "--index", "1,1"],
             "residues do not sum to zero")


@pytest.mark.parametrize("argv", [
    ["quiver", str(ROOT / "samples" / "irregular_order2.json"), "--format", "text"],
    ["check", str(ROOT / "samples" / "fuchsian_resonant.json")],
    ["mc", *PAIR, "--index", "1,2"],
    ["verify", *PAIR],
    ["selftest", "--trials", "1"],
], ids=["quiver", "check", "mc", "verify", "selftest"])
def test_output_file_holds_the_printed_bytes(tmp_path, capsys, argv):
    code = main(argv)
    printed = capsys.readouterr()
    assert printed.out
    out = tmp_path / "out"
    assert main(argv + ["--output", str(out)]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == printed.err
    assert out.read_bytes() == printed.out.encode("utf-8")


def test_a_sigma_disagreement_fails_selftest(monkeypatch, capsys):
    real = sigma.sigma_member

    def flipped(*args, **kwargs):
        verdict = real(*args, **kwargs)
        return dataclasses.replace(verdict, solvable=not verdict.solvable)

    monkeypatch.setattr(sigma, "sigma_member", flipped)
    assert main(["selftest", "--trials", "2"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["failures"] == ["fuchsian agreement trial 0",
                                  "fuchsian agreement trial 1"]
    assert not report["ok"]
