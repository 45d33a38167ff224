"""Kernel homology of a single dihedral group across characteristics.

For the edge group with label 2*l and the difference character, the
degree-1 homology of the kernel is a free module of rank one exactly when
the characteristic divides l, and the (t-1)-torsion module otherwise.  The
table below computes each entry twice: by the closed-form link sum and by
Smith-diagonalizing the twisted chain complex.

Run:  python demos/dihedral_homology.py
"""

import json

from artinsigma import Analysis, Character, EvenGraph, build_salvetti_complex, homology_module


def main() -> None:
    halves = (2, 3, 4, 6)
    chars = (0, 2, 3, 5)

    print(f"{'label':>6} {'char':>5} {'formula rank':>13} {'module (chain complex)':>24}")
    for half in halves:
        g = EvenGraph(["v", "w"], [("v", "w", 2 * half)])
        chi = Character({"v": 1, "w": -1})
        for p in chars:
            rank = Analysis(g, chi).free_ranks(p, 1)[1]
            twisted = build_salvetti_complex(g, chi, p, max_n=2)
            module = homology_module(twisted, 1)
            marker = "<- free, infinite dimensional" if module.free_rank else ""
            print(f"{2 * half:>6} {p:>5} {rank:>13} {module.describe():>24}  {marker}")
        print()

    print("The differential dump of the label-4 complex in characteristic 2:")
    g = EvenGraph(["v", "w"], [("v", "w", 4)])
    chi = Character({"v": 1, "w": -1})
    twisted = build_salvetti_complex(g, chi, 2, max_n=2)
    dump = {}
    for n in range(1, twisted.max_degree + 1):
        d = twisted.differential(n)
        dump[str(n)] = {"rows": d.nrows, "cols": d.ncols,
                        "entries": [[e.to_dict() for e in row] for row in d.entries]}
    print(json.dumps(dump, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
