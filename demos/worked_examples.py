"""Tour of the two square fixtures: classification, links, and verdicts.

Both graphs are squares with two opposite label-4 edges and the same
character (one corner dead, the top edge dead).  Adding the diagonal makes
every dead-clique link a cone, so the class is a member in every degree;
without the diagonal the living subgraph disconnects and the degree-1
obstruction fires.

Run:  python demos/worked_examples.py
"""

from artinsigma import Analysis, Character, EvenGraph, describe_graph, fp_verdict, sigma_verdict


def analyse(title: str, g: EvenGraph, chi: Character, n: int) -> None:
    print(f"== {title} ==")
    print(f"graph: {describe_graph(g)}")
    print(f"character: {chi!r}")

    ctx = Analysis(g, chi)
    cls = ctx.classification
    print(f"dead vertices: {sorted(cls.dead_vertices)}")
    print(f"dead edges:    {sorted(cls.dead_edges)} (relevant primes {sorted(cls.relevant_primes)})")
    print(f"living subgraph: {describe_graph(ctx.living())}")

    print(f"dead-supported cliques up to size {n}:")
    for clique, _, lk, _ in ctx.links(n):
        print(f"  {{{','.join(clique)}}}: link = {describe_graph(lk)}")

    report = ctx.strong_n_link(n)
    print(f"strong {n}-link condition: {report.holds}")
    for w in report.witnesses:
        print(f"  clique {{{','.join(w.clique)}}}: needs {w.required_degree}-acyclic link "
              f"-> {w.status} (via {w.via})")

    verdict = sigma_verdict(ctx, n)
    print(f"membership in degree {n}: {verdict.status}")
    for j in verdict.justifications:
        if j.fired:
            print(f"  [{j.rule}] {j.detail}")
    fp = fp_verdict(verdict)
    print(f"kernel of type FP_{n}: {fp.status}")
    print()


def main() -> None:
    chi_values = {"a": 1, "b": -1, "c": 0, "d": 1}

    with_diagonal = EvenGraph(
        ["a", "b", "c", "d"],
        [("a", "b", 4), ("c", "d", 4), ("a", "c", 2), ("b", "d", 2), ("a", "d", 2)])
    analyse("square with diagonal: member in every degree",
            with_diagonal, Character(chi_values), 3)

    without_diagonal = EvenGraph(
        ["a", "b", "c", "d"],
        [("a", "b", 4), ("c", "d", 4), ("a", "c", 2), ("b", "d", 2)])
    analyse("square without diagonal: living subgraph disconnects",
            without_diagonal, Character(chi_values), 1)


if __name__ == "__main__":
    main()
