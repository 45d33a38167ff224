import importlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artinsigma import __version__, character_to_dict, graph_to_dict
from artinsigma.cli import EXIT_CROSSCHECK, EXIT_INVALID, EXIT_OK, MAX_DEGREE, run
from artinsigma.salvetti import MAX_ORACLE_SPAN, MAX_ORACLE_WORK

from genutil import alternating_complete_graph


def write_instance(tmp_path, name, graph_edges, character, vertices=None):
    if vertices is None:
        vertices = sorted({v for e in graph_edges for v in (e["u"], e["v"])})
    doc = {"name": name,
           "graph": {"vertices": vertices, "edges": graph_edges},
           "character": character}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def example2_path(tmp_path):
    return write_instance(
        tmp_path, "example-2",
        [{"u": "a", "v": "b", "label": 4}, {"u": "c", "v": "d", "label": 4},
         {"u": "a", "v": "c", "label": 2}, {"u": "b", "v": "d", "label": 2}],
        {"a": 1, "b": -1, "c": 0, "d": 1},
        vertices=["a", "b", "c", "d"])


@pytest.fixture
def d4d6_path(tmp_path):
    return write_instance(
        tmp_path, "d4xd6",
        [{"u": "v", "v": "w", "label": 4}, {"u": "x", "v": "y", "label": 6},
         {"u": "v", "v": "x", "label": 2}, {"u": "v", "v": "y", "label": 2},
         {"u": "w", "v": "x", "label": 2}, {"u": "w", "v": "y", "label": 2}],
        {"v": 1, "w": -1, "x": 1, "y": -1},
        vertices=["v", "w", "x", "y"])


@pytest.fixture
def dihedral4_path(tmp_path):
    return write_instance(
        tmp_path, "dihedral-4",
        [{"u": "v", "v": "w", "label": 4}],
        {"v": 1, "w": -1})


def run_cli(argv):
    out = io.StringIO()
    code, report = run(argv, out=out)
    return code, report, out.getvalue()


def test_validate_ok(example2_path):
    code, report, text = run_cli(["validate", example2_path])
    assert code == EXIT_OK
    assert report["results"]["even"]["ok"] and report["results"]["fc"]["ok"]
    assert "example-2" in text


def test_validate_rejects_fc_violation(tmp_path):
    path = write_instance(
        tmp_path, "bad-fc",
        [{"u": "a", "v": "b", "label": 4}, {"u": "b", "v": "c", "label": 4},
         {"u": "a", "v": "c", "label": 2}],
        {"a": 1, "b": 1, "c": 1})
    code, report, _ = run_cli(["validate", path])
    assert code == EXIT_INVALID
    assert not report["results"]["fc"]["ok"]


def test_malformed_file_is_input_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, report, text = run_cli(["validate", str(path)])
    assert code == EXIT_INVALID and report is None and "error" in text

    odd = write_instance(tmp_path, "odd", [{"u": "a", "v": "b", "label": 3}], {"a": 1, "b": 1})
    code, report, text = run_cli(["classify", odd])
    assert code == EXIT_INVALID and report is None


@pytest.mark.parametrize("graph, message", [
    ({"vertices": ["a", "b"], "edges": 5}, '"edges" must be a list'),
    ({"vertices": ["a", "b"], "edges": [{"u": ["x"], "v": "b", "label": 2}]},
     "edge endpoints must be vertex ids"),
])
def test_malformed_edges_are_input_errors(tmp_path, graph, message):
    path = tmp_path / "edges.json"
    path.write_text(json.dumps({"graph": graph, "character": {"a": 1, "b": 1}}))
    code, report, text = run_cli(["classify", str(path)])
    assert code == EXIT_INVALID and report is None
    assert message in text


def test_overlong_json_integer_is_input_error(tmp_path):
    path = tmp_path / "long.json"
    path.write_text('{"graph": {"vertices": ["a"]}, "character": {"a": ' + "7" * 5000 + "}}")
    code, report, text = run_cli(["classify", str(path)])
    assert code == EXIT_INVALID and report is None and "not valid JSON" in text


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=10)
FUZZ_COMMANDS = (["validate"], ["classify"], ["links", "--n", "2", "--p", "2"],
                 ["check", "--n", "2"], ["homology", "--p", "3", "--n", "2"],
                 ["verdict", "--n", "2"])


@st.composite
def instance_documents(draw):
    """Instance-shaped JSON in which any part may be replaced by arbitrary JSON."""
    def part(valid):
        return draw(JSON_VALUES) if draw(st.integers(0, 9)) == 0 else draw(valid)

    vertices = draw(st.lists(st.sampled_from("abcde"), max_size=5, unique=True))
    pairs = [(u, v) for i, u in enumerate(vertices) for v in vertices[i + 1:]]
    edges = [part(st.just({"u": u, "v": v, "label": part(st.sampled_from((2, 4, 6)))}))
             for u, v in draw(st.lists(st.sampled_from(pairs), max_size=6, unique=True))
             ] if pairs else []
    graph = {"vertices": part(st.just(vertices)), "edges": part(st.just(edges))}
    character = {v: part(st.integers(-2, 2)) for v in vertices}
    return part(st.just({"name": part(st.text(max_size=4)), "graph": part(st.just(graph)),
                         "character": part(st.just(character))}))


@settings(max_examples=200, deadline=None)
@given(doc=instance_documents(), command=st.sampled_from(FUZZ_COMMANDS))
def test_random_documents_never_raise(doc, command):
    # The oracle is left out: its cost grows with labels and character
    # values without any bound yet.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.json"
        path.write_text(json.dumps(doc))
        code, report, text = run_cli([*command, str(path)])
    assert code in (EXIT_OK, EXIT_INVALID)
    assert (report is None) == text.startswith("error:")


def test_classify_reports_p_living_comparison(example2_path):
    code, report, _ = run_cli(["classify", example2_path])
    assert code == EXIT_OK
    results = report["results"]
    assert results["dead_vertices"] == ["c"]
    assert results["dead_edges"] == [["a", "b"]]
    assert results["relevant_primes"] == [2]
    assert results["p_living_equals_living"]["2"] is True


def test_check_example2(example2_path):
    code, report, _ = run_cli(["check", "--n", "1", example2_path])
    assert code == EXIT_OK
    assert report["results"]["holds"] == "false"
    failing = [w for w in report["results"]["witnesses"] if w["status"] == "fail"]
    assert failing[0]["clique"] == []


def test_check_with_characteristic(d4d6_path):
    code, report, _ = run_cli(["check", "--n", "2", "--p", "2", d4d6_path])
    assert code == EXIT_OK
    assert report["results"]["holds"] == "true"
    assert report["results"]["coefficients"] == "F2"


def test_links_lists_dead_cliques(example2_path):
    code, report, _ = run_cli(["links", "--n", "3", example2_path])
    assert code == EXIT_OK
    cliques = [tuple(e["clique"]) for e in report["results"]["cliques"]]
    assert cliques == [(), ("c",), ("a", "b")]


def test_composite_characteristic_rejected(d4d6_path):
    code, report, _ = run_cli(["check", "--n", "2", "--p", "6", d4d6_path])
    assert code == EXIT_INVALID and report is None


def test_verdict_d4d6(d4d6_path):
    code, report, _ = run_cli(["verdict", "--n", "2", d4d6_path])
    assert code == EXIT_OK
    sigma = report["results"]["sigma_z"]
    assert sigma["status"] == "NOT_IN"
    fired = [j["rule"] for j in sigma["justifications"] if j["fired"]]
    assert fired == ["dihedral_product"]
    assert report["results"]["fp"]["status"] == "NOT_IN"


def test_verdict_example2(example2_path):
    code, report, _ = run_cli(["verdict", "--n", "1", example2_path])
    assert code == EXIT_OK
    assert report["results"]["sigma_z"]["status"] == "NOT_IN"
    fired = [j["rule"] for j in report["results"]["sigma_z"]["justifications"] if j["fired"]]
    assert "p_local_obstruction" in fired


def test_homology_with_oracle(dihedral4_path):
    code, report, _ = run_cli(
        ["homology", "--n", "1", "--p", "2", "--oracle", dihedral4_path])
    assert code == EXIT_OK
    results = report["results"]
    assert results["free_rank"] == 1
    assert results["finite_dimensional_at_n"] is False
    assert results["oracle"]["free_rank"] == 1
    assert results["oracle"]["module"] == "R"
    assert results["cross_check"] == {"ok": True}


def test_homology_without_oracle(d4d6_path):
    code, report, _ = run_cli(["homology", "--n", "2", "--p", "2", d4d6_path])
    assert code == EXIT_OK
    assert report["results"]["free_rank"] == 0
    assert report["results"]["finite_dimensional_through_n"] is True
    assert "oracle" not in report["results"]


def test_boolean_character_value_rejected(tmp_path):
    path = write_instance(tmp_path, "bool",
                          [{"u": "a", "v": "b", "label": 4}], {"a": True, "b": 1})
    code, report, text = run_cli(["classify", path])
    assert code == EXIT_INVALID and report is None
    assert "value for 'a' must be an integer" in text


@pytest.mark.parametrize("value", ["1e5000", "1.5", "+1", " 1", "1/0", "-1/-2", "0x10",
                                   "1" * 4301, "1/" + "3" * 4301])
def test_character_string_outside_documented_forms_rejected(tmp_path, value):
    path = write_instance(tmp_path, "strings",
                          [{"u": "a", "v": "b", "label": 4}], {"a": value, "b": -1})
    code, report, text = run_cli(["classify", path])
    assert code == EXIT_INVALID and report is None
    assert "value for 'a' must be an integer or a 'p/q' string" in text


def test_character_strings_in_documented_forms_accepted(tmp_path):
    big = "7" * 4300
    path = write_instance(tmp_path, "strings", [{"u": "a", "v": "b", "label": 4}],
                          {"a": f"-{big}/{big}", "b": "-0003/06", "c": big},
                          vertices=["a", "b", "c"])
    code, report, _ = run_cli(["classify", path])
    assert code == EXIT_OK
    assert report["instance"]["character"] == {"a": "-1", "b": "-1/2", "c": big}


def test_large_prime_characteristic_answers_in_bounded_time(dihedral4_path):
    start = time.perf_counter()
    code, report, _ = run_cli(["check", "--n", "1", "--p", "1000000000000000003",
                               dihedral4_path])
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_OK
    assert report["results"]["coefficients"] == "F1000000000000000003"


@pytest.mark.parametrize("p", ["3215031751", "3317044064679887385961981", "10" * 20])
def test_strong_pseudoprime_and_undecidable_characteristics_rejected(dihedral4_path, p):
    # 3215031751 = 151 * 751 * 28351 passes Miller-Rabin to the bases 2, 3, 5, 7;
    # from 3317044064679887385961981 on, the fixed bases no longer decide primality
    code, report, text = run_cli(["check", "--n", "1", "--p", p, dihedral4_path])
    assert code == EXIT_INVALID and report is None
    assert text.startswith("error: --p must be")


@pytest.mark.parametrize("p, line", [
    ("6", "error: --p must be 0 or a prime, got 6\n"),
    ("-3", "error: --p must be 0 or a prime, got -3\n"),
    ("3317044064679887385961981",
     "error: --p must be below 3317044064679887385961981, where primality is decided "
     "exactly, got 3317044064679887385961981\n"),
])
@pytest.mark.parametrize("command", ["links", "check", "homology"])
def test_bad_characteristic_error_lines(dihedral4_path, command, p, line):
    code, report, text = run_cli([command, "--n", "1", "--p", p, dihedral4_path])
    assert code == EXIT_INVALID and report is None
    assert text == line


def test_module_entry_point_runs_validate():
    demo = Path(__file__).resolve().parent.parent / "demos" / "instances" / "example1.json"
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-m", "artinsigma", "validate", str(demo)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == EXIT_OK
    assert done.stdout.startswith(f"artinsigma {__version__}\n")


def test_closed_standard_output_is_a_clean_exit(tmp_path):
    # the report (about 180 kB) outgrows the pipe, so the writer meets the
    # closed pipe after the reader has taken one line and gone
    g, chi = alternating_complete_graph(30)
    path = tmp_path / "k30.json"
    path.write_text(json.dumps({"graph": graph_to_dict(g), **character_to_dict(chi)}))
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    for buffered in (True, False):
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        child = subprocess.Popen([sys.executable, "-m", "artinsigma", "links", "--n", "2",
                                  str(path)], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                 env=env)
        assert child.stdout.readline() == f"artinsigma {__version__}\n".encode()
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=60) == EXIT_OK
        assert err == b""


# Runs a command with standard output on a pipe whose reader is already gone:
# the report stays in the stream's buffer until the flush at the end fails,
# and the flush at exit must not meet it again.
CLOSED_PIPE = r"""
import os, sys
read, write = os.pipe()
os.close(read)
os.dup2(write, 1)
os.close(write)
sys.argv[0] = "artinsigma"
from artinsigma.cli import main
main()
"""


def test_standard_output_closed_before_the_report_is_a_clean_exit():
    demo = Path(__file__).resolve().parent.parent / "demos" / "instances" / "example1.json"
    src = Path(__file__).resolve().parent.parent / "src"
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([str(src), *filter(None, [env.get("PYTHONPATH")])])
    done = subprocess.run([sys.executable, "-c", CLOSED_PIPE, "verdict", "--n", "2", str(demo)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stderr) == (EXIT_OK, "")


def test_zero_character_rejected(tmp_path):
    path = write_instance(tmp_path, "zero",
                          [{"u": "a", "v": "b", "label": 4}], {"a": 0, "b": 0})
    code, report, text = run_cli(["verdict", "--n", "1", path])
    assert code == EXIT_INVALID and "zero character" in text


NOT_FC = [{"u": "a", "v": "b", "label": 4}, {"u": "a", "v": "c", "label": 4},
          {"u": "b", "v": "c", "label": 2}, {"u": "d", "v": "e", "label": 4},
          {"u": "d", "v": "f", "label": 6}, {"u": "e", "v": "f", "label": 2}]
NOT_FC_FINDINGS = ("error: triangle a,b,c carries 2 labels > 2\n"
                   "error: triangle d,e,f carries 2 labels > 2\n")
ANALYSIS_COMMANDS = [["classify"], ["links", "--n", "1"], ["check", "--n", "1"],
                     ["homology", "--p", "2", "--n", "1", "--oracle"], ["verdict", "--n", "1"]]


@pytest.mark.parametrize("argv", ANALYSIS_COMMANDS, ids=lambda argv: argv[0])
@pytest.mark.parametrize("value", [1, 0], ids=["nonzero", "zero"])
def test_every_finding_is_printed_before_the_zero_character(tmp_path, argv, value):
    # the graph's findings come first, in order, and a zero character on a
    # graph that is not FC gets them, not the zero-character line
    path = write_instance(tmp_path, "not-fc", NOT_FC, dict.fromkeys("abcdef", value))
    code, report, text = run_cli([*argv, path])
    assert (code, report, text) == (EXIT_INVALID, None, NOT_FC_FINDINGS)


def test_json_report_round_trips(tmp_path, d4d6_path):
    json_path = tmp_path / "report.json"
    code, report, _ = run_cli(
        ["verdict", "--n", "2", "--json", str(json_path), d4d6_path])
    assert code == EXIT_OK
    on_disk = json.loads(json_path.read_text())
    assert on_disk == json.loads(json.dumps(report))


def test_output_is_deterministic(d4d6_path):
    outputs = set()
    for _ in range(3):
        _, _, text = run_cli(["verdict", "--n", "2", d4d6_path])
        outputs.add(text)
    assert len(outputs) == 1


def test_cross_check_failure_exit_code(monkeypatch, dihedral4_path):
    monkeypatch.setattr("artinsigma.conditions.Analysis.free_ranks",
                        lambda self, p, n: [7] * (n + 1))
    code, report, _ = run_cli(
        ["homology", "--n", "1", "--p", "2", "--oracle", dihedral4_path])
    assert code == EXIT_CROSSCHECK
    assert report["results"]["cross_check"]["ok"] is False


def test_rational_oracle_coefficients_stay_small(monkeypatch):
    # A generated instance (10 vertices, 27 edges, values in [-6, 6]) whose
    # Laurent Smith form over Q once swelled to rational coefficients of
    # ~76,000 bits and took ~20 s; the answer itself is small.
    import artinsigma.laurent as laurent

    widest = [0]
    divmod_ = laurent.laurent_divmod

    def recording_divmod(a, b):
        q, r = divmod_(a, b)
        for c in q.coeffs + r.coeffs:
            widest[0] = max(widest[0], c.numerator.bit_length(), c.denominator.bit_length())
        return q, r

    monkeypatch.setattr(laurent, "laurent_divmod", recording_divmod)
    path = Path(__file__).parent / "data" / "oracle_q_swell.json"
    code, report, _ = run_cli(["homology", "--p", "0", "--n", "1", "--oracle", str(path)])
    assert code == EXIT_OK
    results = report["results"]
    assert results["cross_check"]["ok"] is True
    assert results["free_rank"] == 0 and results["oracle"]["free_rank"] == 0
    t_minus_1 = {"offset": 0, "coeffs": ["-1", "1"]}
    assert results["oracle"]["torsion"] == [t_minus_1] * 8 + [
        {"offset": 0, "coeffs": ["-1", "1", "0", "-1", "1"]}]
    assert widest[0] <= 64


DEMOS = Path(__file__).resolve().parent.parent / "demos" / "instances"


def count_calls(monkeypatch, *targets):
    """Rebind every target, all names of one function, to one wrapper that
    records the arguments of each call."""
    module, name = targets[0].rsplit(".", 1)
    original = getattr(importlib.import_module(module), name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for target in targets:
        monkeypatch.setattr(target, wrapper)
    return calls


@pytest.mark.parametrize("argv", [["verdict", "--n", "4"],
                                  ["homology", "--p", "2", "--n", "3", "--oracle"]])
@pytest.mark.parametrize("demo", ["example1.json", "d4xd6.json", "d4xd4.json"])
def test_one_context_per_command(monkeypatch, argv, demo):
    classified = count_calls(monkeypatch, "artinsigma.conditions.classify")
    decided = count_calls(monkeypatch, "artinsigma.verdicts.sigma_verdict",
                          "artinsigma.cli.sigma_verdict")
    complexes = count_calls(monkeypatch, "artinsigma.conditions.flag_complex")
    boundaries = count_calls(monkeypatch, "artinsigma.homology._boundary")
    code, _, _ = run_cli([*argv, str(DEMOS / demo)])
    assert code == EXIT_OK
    assert len(classified) == 1
    assert len(decided) == (1 if argv[0] == "verdict" else 0)
    links = [args[0] for args in complexes]
    assert len(links) == len(set(links))                 # one flag complex per link graph
    diagonalised = [(id(args[0]), args[1]) for args in boundaries]
    assert len(diagonalised) == len(set(diagonalised))   # each (link, degree) once


@pytest.mark.parametrize("argv, checks", [
    (["verdict", "--n", "4", str(DEMOS / "example1.json")], 1),
    (["homology", "--p", "2", "--n", "3", "--oracle", str(DEMOS / "example1.json")], 1),
    # complete graphs: the verdict's closed form reads the instance as checked
    (["verdict", "--n", "4", str(DEMOS / "d4xd6.json")], 1)])
def test_the_graph_is_checked_once_per_context(monkeypatch, argv, checks):
    # by the command's one analysis context; the oracle is built from its checked instance
    checked = count_calls(monkeypatch, "artinsigma.characters.validate_fc",
                          "artinsigma.cli.validate_fc")
    code, _, _ = run_cli(argv)
    assert code == EXIT_OK and len(checked) == checks


@pytest.mark.parametrize("command", ["check", "verdict"])
def test_large_degrees_do_no_more_work(monkeypatch, tmp_path, command):
    # a dead vertex x coned over a graph: the links of the empty clique and of
    # x are both that graph.  The join of the 5-cycles abcde and fghij, the
    # 3-sphere, reduces no further, so its flag complex is built and
    # diagonalised; the 5-cycle alone is a triangle-free core, read in
    # closed form with no Smith form at all
    def cycle(vs):
        return [{"u": u, "v": v, "label": 2} for u, v in zip(vs, vs[1:] + vs[:1])]

    join = [*cycle("abcde"), *cycle("fghij"),
            *({"u": u, "v": v, "label": 2} for u in "abcde" for v in "fghij")]
    factored = count_calls(monkeypatch, "artinsigma.homology.integer_invariant_factors")
    for name, edges, vs in (("coned-join", join, "abcdefghij"),
                            ("coned-cycle", cycle("abcde"), "abcde")):
        path = write_instance(tmp_path, name, [*edges, *({"u": v, "v": "x", "label": 2}
                                                         for v in vs)],
                              {**dict.fromkeys(vs, 1), "x": 0})
        reports = {}
        counts = {}
        for n in (50, 5000):
            factored.clear()
            code, report, _ = run_cli([command, "--n", str(n), path])
            assert code == EXIT_OK
            reports[n], counts[n] = report["results"], len(factored)
        assert counts[50] == counts[5000]
        assert (counts[50] > 0) == (name == "coned-join")
        if command == "check":
            assert reports[50]["holds"] == reports[5000]["holds"]
            for a, b in zip(reports[50]["witnesses"], reports[5000]["witnesses"], strict=True):
                assert b["required_degree"] - a["required_degree"] == 4950
                assert {**a, "required_degree": 0} == {**b, "required_degree": 0}
        else:
            for question in ("sigma_z", "fp", "sigma_homotopic"):
                assert reports[50][question]["status"] == reports[5000][question]["status"]


@pytest.mark.parametrize("n", ["10000", "10001", str(10 ** 30)])
def test_degree_is_capped(example2_path, n):
    start = time.perf_counter()
    code, report, text = run_cli(["check", "--n", n, example2_path])
    assert time.perf_counter() - start < 5.0
    if int(n) <= MAX_DEGREE:
        assert code == EXIT_OK and report["results"]["n"] == int(n)
    else:
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_INVALID and report is None
        assert text == f"error: --n must be at most {MAX_DEGREE}, got {n}\n"


def test_oracle_refused_above_span_budget(tmp_path):
    # b(w, {v, w}) = (t^100000 - 1) q_poly(2, 100001) has span 200001
    path = write_instance(tmp_path, "wide", [{"u": "v", "v": "w", "label": 4}],
                          {"v": 1, "w": 100000})
    start = time.perf_counter()
    code, report, text = run_cli(["homology", "--p", "2", "--n", "1", "--oracle", path])
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_INVALID and report is None
    assert text == (f"error: the oracle is refused: a differential weight would have span "
                    f"200001, above the budget of {MAX_ORACLE_SPAN}\n")
    # the link formula alone still answers
    code, report, _ = run_cli(["homology", "--p", "2", "--n", "1", path])
    assert code == EXIT_OK and report["results"]["free_rank"] == 0


def test_oracle_span_budget_boundary(tmp_path):
    # largest weights b(w, {v, w}) = (t^1023 - 1) q_poly(2, 1025), span 2048,
    # and (t^1024 - 1) q_poly(2, 1025), span 2049
    for w, code in ((1023, EXIT_OK), (1024, EXIT_INVALID)):
        path = write_instance(tmp_path, f"edge-{w}", [{"u": "v", "v": "w", "label": 4}],
                              {"v": 2 if w == 1023 else 1, "w": w})
        got, report, text = run_cli(["homology", "--p", "2", "--n", "1", "--oracle", path])
        assert got == code
        if code == EXIT_OK:
            assert report["results"]["cross_check"] == {"ok": True}
        else:
            assert "span 2049" in text


def test_oracle_work_budget_boundary(tmp_path):
    # the span-2048 edge of the test above plus isolated vertices: at --n 1
    # the cliques are the empty one, the vertices and the edge, so 12
    # isolated vertices make 16 * 2048 = MAX_ORACLE_WORK and 13 one clique more
    assert 16 * 2048 == MAX_ORACLE_WORK
    for isolated, code in ((12, EXIT_OK), (13, EXIT_INVALID)):
        others = [f"u{i:02d}" for i in range(isolated)]
        path = write_instance(tmp_path, f"isolated-{isolated}",
                              [{"u": "v", "v": "w", "label": 4}],
                              {"v": 2, "w": 1023, **dict.fromkeys(others, 1)},
                              vertices=["v", "w", *others])
        start = time.perf_counter()
        got, report, text = run_cli(["homology", "--p", "2", "--n", "1", "--oracle", path])
        assert time.perf_counter() - start < 1.0
        assert got == code
        if code == EXIT_OK:
            assert report["results"]["cross_check"] == {"ok": True}
        else:
            assert text == (f"error: the oracle is refused: 17 cliques of size at most 2 "
                            f"times the weight span 2048 is 34816, above the budget of "
                            f"{MAX_ORACLE_WORK}\n")


@pytest.mark.parametrize("argv", [
    ["verdict", "--n", "x", "INSTANCE"],      # --n is not an integer
    ["frobnicate", "INSTANCE"],               # unknown command
    ["verdict", "--n", "1"],                  # no instance argument
])
def test_usage_errors_exit_1(dihedral4_path, capsys, argv):
    argv = [dihedral4_path if a == "INSTANCE" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        run(argv, out=io.StringIO())
    assert exc.value.code == EXIT_INVALID
    assert "error:" in capsys.readouterr().err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["verdict", "--help"], out=io.StringIO())
    assert exc.value.code == EXIT_OK
    assert "usage:" in capsys.readouterr().out


def test_unwritable_json_path_is_input_error(tmp_path, dihedral4_path):
    json_path = tmp_path / "missing-dir" / "out.json"
    code, report, text = run_cli(["verdict", "--n", "1", dihedral4_path, "--json", str(json_path)])
    assert code == EXIT_INVALID and report is None
    assert text.splitlines()[-1].startswith("error: cannot write the JSON report: ")
    assert not json_path.exists()


def test_run_reuses_the_parser_built_at_import(monkeypatch, example2_path):
    def refuse():
        raise AssertionError("run built a parser")
    monkeypatch.setattr("artinsigma.cli._build_parser", refuse)
    code, report, _ = run_cli(["check", "--n", "1", example2_path])
    assert code == EXIT_OK and report["command"] == "check"


def fresh_process(argv) -> tuple[int, str, str]:
    """Exit code, standard output and standard error of one command run in
    a new interpreter."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "COLUMNS": "80", "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-m", "artinsigma", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    return done.returncode, done.stdout, done.stderr


def test_one_parser_answers_each_command_as_a_fresh_process(monkeypatch, capsys,
                                                            example2_path):
    # a usage error, links with --p and then without it, then check, in one
    # process: nothing of one command's arguments may reach the next
    monkeypatch.setenv("COLUMNS", "80")
    sequence = (["links", "--n", "x", example2_path],
                ["links", "--n", "2", "--p", "2", example2_path],
                ["links", "--n", "2", example2_path],
                ["check", "--n", "2", example2_path])
    codes, reports = [], []
    for argv in sequence:
        out = io.StringIO()
        try:
            code, report = run(argv, out=out)
        except SystemExit as exc:
            code, report = exc.code, None
        err = capsys.readouterr().err
        assert (code, out.getvalue(), err) == fresh_process(argv)
        assert err.startswith("usage: artinsigma links ") == (report is None)
        codes.append(code)
        reports.append(report)
    assert codes == [EXIT_INVALID, EXIT_OK, EXIT_OK, EXIT_OK]
    assert [r["parameters"]["p"] for r in reports[1:]] == [2, None, None]
    assert reports[2]["results"]["coefficients"] == "Z"


def test_oracle_work_counts_do_not_grow(monkeypatch, tmp_path):
    # Laurent divisions and multiplications of `homology --p 2 --n 3
    # --oracle` on a fixed sample, counted by wrapping them as the benchmark's
    # tracer does.  The bounds are the counts of the current elimination;
    # before unit invariant factors were taken as t - 1 without a product
    # the same sample took 293 divisions and 301 multiplications.
    import random

    import artinsigma.laurent as laurent
    from genutil import random_character, random_even_fc_graph

    counts = {"divisions": 0, "multiplications": 0}

    def counted(key, f):
        def wrapper(*args):
            counts[key] += 1
            return f(*args)
        return wrapper

    monkeypatch.setattr(laurent, "laurent_divmod", counted("divisions", laurent.laurent_divmod))
    monkeypatch.setattr(laurent._F2Poly, "__mul__",
                        counted("multiplications", laurent._F2Poly.__mul__))
    rng = random.Random(60)
    for k in range(40):
        g = random_even_fc_graph(rng, max_vertices=10)
        chi = random_character(rng, g)
        path = write_instance(tmp_path, f"sample-{k}", graph_to_dict(g)["edges"],
                              character_to_dict(chi)["character"], vertices=list(g.vertices))
        code, report, _ = run_cli(["homology", "--p", "2", "--n", "3", "--oracle", path])
        assert code == EXIT_OK and report["results"]["cross_check"] == {"ok": True}
    assert counts["divisions"] <= 293
    assert counts["multiplications"] <= 277
