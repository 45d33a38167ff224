"""Products of two dihedral groups: where membership and finiteness diverge.

Both graphs are complete on four vertices with two disjoint labeled edges;
the character sends each edge's endpoints to 1 and -1.  The class is not a
member in degree 2 either way (the product rule excludes it), but the
kernel homology tells the two cases apart: with labels 4 and 6 every field
sees finite-dimensional degree-2 homology, while with labels 4 and 4 the
characteristic-2 module has free rank 1.

Run:  python demos/product_graphs.py
"""

from artinsigma import (Analysis, Character, EvenGraph, build_salvetti_complex, cross_check,
                        describe_graph, homology_module, sigma_verdict)


def product_graph(label1: int, label2: int) -> tuple[EvenGraph, Character]:
    g = EvenGraph(["v", "w", "x", "y"],
                  [("v", "w", label1), ("x", "y", label2),
                   ("v", "x", 2), ("v", "y", 2), ("w", "x", 2), ("w", "y", 2)])
    return g, Character({"v": 1, "w": -1, "x": 1, "y": -1})


def analyse(label1: int, label2: int) -> None:
    g, chi = product_graph(label1, label2)
    print(f"== labels {label1} and {label2} ==")
    ctx = Analysis(g, chi)
    print(f"living subgraph: {describe_graph(ctx.living())}")

    print(f"strong 2-link over Z: {ctx.strong_n_link(2).holds}")
    primes = sorted({0, 2, 3, 5, *ctx.classification.relevant_primes})
    for p in primes:
        report = ctx.strong_p_n_link(2, p)
        rank = ctx.free_ranks(p, 2)[2]
        twisted = build_salvetti_complex(g, chi, p, max_n=3)
        module = homology_module(twisted, 2)
        cross_check(g, chi, 2, twisted, rank)   # raises on a mismatch
        status = "finite" if rank == 0 else "INFINITE"
        print(f"  char {p}: p-2-link {str(report.holds):5s}  "
              f"H_2 = {module.describe():20s} ({status}; cross-check ok)")

    verdict = sigma_verdict(ctx, 2)
    print(f"degree-2 membership: {verdict.status}")
    for j in verdict.justifications:
        if j.fired:
            print(f"  [{j.rule}] {j.detail}")
    print()


def main() -> None:
    analyse(4, 6)
    analyse(4, 4)


if __name__ == "__main__":
    main()
