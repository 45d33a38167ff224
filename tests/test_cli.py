import io
import json
from pathlib import Path

import pytest

from artinsigma.cli import EXIT_CROSSCHECK, EXIT_INVALID, EXIT_OK, run


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


def test_zero_character_rejected(tmp_path):
    path = write_instance(tmp_path, "zero",
                          [{"u": "a", "v": "b", "label": 4}], {"a": 0, "b": 0})
    code, report, text = run_cli(["verdict", "--n", "1", path])
    assert code == EXIT_INVALID and "zero character" in text


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
    monkeypatch.setattr("artinsigma.conditions.kernel_free_rank", lambda *a, **k: 7)
    monkeypatch.setattr("artinsigma.cli.kernel_free_rank", lambda *a, **k: 7)
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
