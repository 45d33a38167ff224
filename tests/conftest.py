"""Shared fixtures: the worked example instances used throughout the suite."""

import pytest

from artinsigma import Character, EvenGraph

from genutil import product_of_dihedrals


@pytest.fixture
def example1():
    """Square with a diagonal; two opposite label-4 edges.

    Character kills c and the top label-4 edge; the living subgraph is the
    path a-d-b and every dead-clique link is coned, so membership holds in
    every degree.
    """
    g = EvenGraph(["a", "b", "c", "d"],
                  [("a", "b", 4), ("c", "d", 4), ("a", "c", 2), ("b", "d", 2), ("a", "d", 2)])
    chi = Character({"a": 1, "b": -1, "c": 0, "d": 1})
    return g, chi


@pytest.fixture
def example2():
    """Same square without the diagonal: the living subgraph disconnects."""
    g = EvenGraph(["a", "b", "c", "d"],
                  [("a", "b", 4), ("c", "d", 4), ("a", "c", 2), ("b", "d", 2)])
    chi = Character({"a": 1, "b": -1, "c": 0, "d": 1})
    return g, chi


@pytest.fixture
def d4d6():
    return product_of_dihedrals(4, 6)


@pytest.fixture
def d4d4():
    return product_of_dihedrals(4, 4)
