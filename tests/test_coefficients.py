"""One coefficient convention, checked in one place.

A coefficient value is None for Z, 0 for Q or a prime p for F_p, and
``homology.coeffs_label`` is its one check.  Every entry point that takes
such a value refuses the same bad values with ValueError, and the questions
that need a field also refuse None.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from artinsigma import (Analysis, Character, EvenGraph, LaurentPoly, build_salvetti_complex,
                        character_from_dict, flag_complex, graph_from_dict, homology_module,
                        reduced_homology)
from artinsigma import homology
from artinsigma.homology import PRIME_BOUND, coeffs_label

ROOT = Path(__file__).resolve().parent.parent

BAD = [2.0, True, "Z", 4, -1, PRIME_BOUND]


def instance():
    g = EvenGraph(["a", "b", "c"], [("a", "b", 4), ("b", "c", 2)])
    return g, Character({"a": 1, "b": -1, "c": 0})


def _links_mode(p):
    return list(Analysis(*instance()).links(1, p))


def _links_coeffs(p):
    return list(Analysis(*instance()).links(1, None, p))


ENTRY_POINTS = {
    "coeffs_label": coeffs_label,
    "reduced_homology": lambda p: reduced_homology(flag_complex(instance()[0]), p, 1),
    "living": lambda p: Analysis(*instance()).living(p),
    "links(mode)": _links_mode,
    "links(coeffs)": _links_coeffs,
    "strong_p_n_link": lambda p: Analysis(*instance()).strong_p_n_link(1, p),
    "free_ranks": lambda p: Analysis(*instance()).free_ranks(p, 1),
    "LaurentPoly": lambda p: LaurentPoly(p, 0, [1]),
    "build_salvetti_complex": lambda p: build_salvetti_complex(*instance(), p, max_n=2),
}
FIELD_ONLY = ("strong_p_n_link", "free_ranks", "LaurentPoly", "build_salvetti_complex")


@pytest.mark.parametrize("bad", BAD, ids=repr)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_refuses_bad_coefficients(entry, bad):
    with pytest.raises(ValueError):
        ENTRY_POINTS[entry](bad)


@pytest.mark.parametrize("entry", FIELD_ONLY)
def test_field_questions_refuse_z(entry):
    with pytest.raises(ValueError, match="field characteristic is needed"):
        ENTRY_POINTS[entry](None)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_takes_good_coefficients(entry):
    for p in (None, 0, 2, 3):
        if p is None and entry in FIELD_ONLY:
            continue
        ENTRY_POINTS[entry](p)


def test_labels():
    assert [coeffs_label(p) for p in (None, 0, 2, 2**61 - 1)] == \
        ["Z", "Q", "F2", f"F{2**61 - 1}"]


def _oracle_f2_instance(seed: int, index: int) -> dict:
    """Instance ``index`` of the benchmark's oracle_f2 workload for ``seed``."""
    path = ROOT / "bench" / "instances.py"
    spec = importlib.util.spec_from_file_location("bench_instances", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # the workload dataclass looks its module up
    spec.loader.exec_module(module)
    return module.generate(module.WORKLOADS["oracle_f2"], seed, index)


def test_the_oracle_checks_p_once_whatever_the_instance(monkeypatch):
    # build_salvetti_complex is the door; the weights, matrices, Smith forms
    # and factors behind it never check p again, so a small and a benchmark-
    # size instance cost the same one primality test
    docs = [json.loads((ROOT / "demos" / "instances" / "example1.json").read_text()),
            _oracle_f2_instance(1, 0)]
    tested = []
    original = homology.is_prime
    monkeypatch.setattr(homology, "is_prime", lambda n: tested.append(n) or original(n))
    counts = []
    for doc in docs:
        g, chi = graph_from_dict(doc["graph"]), character_from_dict(doc)
        tested.clear()
        twisted = build_salvetti_complex(g, chi, 1000003, max_n=3)
        for n in range(3):
            homology_module(twisted, n)
        counts.append(len(tested))
    assert len(docs[1]["graph"]["vertices"]) == 11
    assert counts == [1, 1]
