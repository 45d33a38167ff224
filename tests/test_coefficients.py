"""One coefficient convention, checked in one place.

A coefficient value is None for Z, 0 for Q or a prime p for F_p, and
``homology.coeffs_label`` is its one check.  Every entry point that takes
such a value refuses the same bad values with ValueError, and the questions
that need a field also refuse None.
"""

import pytest

from artinsigma import (Analysis, Character, EvenGraph, Field, build_salvetti_complex,
                        flag_complex, reduced_homology)
from artinsigma.homology import PRIME_BOUND, coeffs_label

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
    "Field": Field,
    "build_salvetti_complex": lambda p: build_salvetti_complex(*instance(), p, max_n=2),
}
FIELD_ONLY = ("strong_p_n_link", "free_ranks", "Field", "build_salvetti_complex")


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
    assert repr(Field(0)) == "Q" and repr(Field(3)) == "F3"
