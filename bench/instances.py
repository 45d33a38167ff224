"""Seeded instance generator and the benchmark's workload definitions.

Graphs are FC by construction: edges are drawn first, then labels are
assigned in a random edge order, and an edge may take a label above 2 only
when no triangle through it already carries a label above 2.  The generator
never calls into the library, so set-up time does not depend on the layers
being measured.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    vertices: int
    density: float            # edge count m = density * n(n-1)/2, as in G(n, m)
    values: tuple[int, int]   # character values are drawn from this closed range
    commands: tuple[tuple[str, ...], ...]  # CLI argv prefixes, taken in turn
    why: str


BIG_LABELS = (4, 6)   # every other edge has label 2
BIG_P = 0.5           # chance that an edge allowed a label above 2 takes one


WORKLOADS = {w.name: w for w in (
    Workload("verdict_dense", vertices=13, density=0.7, values=(-2, 2),
             commands=(("verdict", "--n", "4"),),
             why="13 vertices, 55 edges, labels 2/4/6, values in [-2, 2], verdict --n 4: "
                 "integer Smith forms on many overlapping links, so homology dominates"),
    Workload("oracle_f2", vertices=11, density=0.6, values=(-2, 2),
             commands=(("homology", "--p", "2", "--n", "3", "--oracle"),),
             why="11 vertices, 33 edges, labels 2/4/6, values in [-2, 2], homology --p 2 "
                 "--n 3 --oracle: Laurent Smith forms over F_2 bound by matrix size, so "
                 "laurent dominates"),
)}


def _edges(w: Workload, rng: random.Random) -> list[tuple[int, int]]:
    # G(n, m): a fixed edge count keeps the cost spread between seeds small
    n = w.vertices
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return sorted(rng.sample(pairs, round(w.density * len(pairs))))


def _labels(w: Workload, n: int, edges: list[tuple[int, int]],
            rng: random.Random) -> dict[tuple[int, int], int]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    labels = {e: 2 for e in edges}
    order = list(edges)
    rng.shuffle(order)
    for i, j in order:
        if rng.random() >= BIG_P:
            continue
        # (i, j) and another big edge would share the triangle i, j, k
        if any(labels[min(i, k), max(i, k)] > 2 or labels[min(j, k), max(j, k)] > 2
               for k in adj[i] & adj[j]):
            continue
        labels[i, j] = rng.choice(BIG_LABELS)
    return labels


def generate(w: Workload, seed: int, index: int) -> dict:
    """Instance document number ``index`` of workload ``w`` for ``seed``."""
    rng = random.Random(f"{w.name}:{seed}:{index}")
    names = [f"v{i:03d}" for i in range(w.vertices)]
    edges = _edges(w, rng)
    labels = _labels(w, w.vertices, edges, rng)
    lo, hi = w.values
    values = [0] * w.vertices
    while not any(values):
        values = [rng.randint(lo, hi) for _ in range(w.vertices)]
    return {
        "name": f"{w.name}-{seed}-{index}",
        "graph": {
            "vertices": names,
            "edges": [{"u": names[i], "v": names[j], "label": labels[i, j]} for i, j in edges],
        },
        "character": dict(zip(names, values)),
    }


def write_instances(w: Workload, seed: int, directory: Path, count: int) -> list[Path]:
    """Write instances 0 .. count-1 of ``w`` for ``seed``; returns the paths in order."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for index in range(count):
        path = directory / f"{index:04d}.json"
        path.write_text(json.dumps(generate(w, seed, index), sort_keys=True) + "\n",
                        encoding="utf-8")
        paths.append(path)
    return paths
