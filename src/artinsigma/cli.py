"""Command-line front end.

Commands operate on an instance file, a JSON object with a graph, a
character and an optional name:

    {"name": "...",
     "graph": {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "label": 4}]},
     "character": {"a": 1, "b": "-1"}}

Exit codes: 0 analysis completed (verdict content is in the report), also
when the reader closes standard output before the whole report is written
(as ``| head`` does), 1 validation, input or usage error, 2 internal
cross-check mismatch.  Reports are deterministic: identical input yields
byte-identical output, and the ``--json`` file carries exactly the data
rendered as text.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import IO

from . import __version__
from .characters import (Character, CharacterError, GraphDomainError, character_from_dict,
                         character_to_dict)
from .conditions import Analysis, ConditionReport
from .graphs import (EvenGraph, GraphFormatError, describe_graph, graph_from_dict,
                     graph_to_dict, validate_even, validate_fc)
from .homology import TooManyCliques, coeffs_label
from .salvetti import (CrossCheckError, OracleTooLarge, _build_salvetti_complex, cross_check,
                       homology_module)
from .verdicts import Verdict, fp_verdict, homotopic_sigma_verdict, sigma_verdict

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_CROSSCHECK = 2

# The largest accepted --n.  Degrees above a link's dimension cost no Smith
# form, but the homology profiles and reports keep per-degree entries, so
# their size is linear in --n (check --n 200000 took 1.8 s on a 4-vertex
# instance).
MAX_DEGREE = 10_000


class InstanceError(ValueError):
    pass


def load_instance(path: str) -> tuple[EvenGraph, Character, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InstanceError(f"cannot read instance file: {exc}") from exc
    except ValueError as exc:   # malformed JSON, or an integer too long to convert
        raise InstanceError(f"instance file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "graph" not in doc or "character" not in doc:
        raise InstanceError('instance file needs "graph" and "character" fields')
    try:
        g = graph_from_dict(doc["graph"])
        chi = character_from_dict(doc)
    except (GraphFormatError, CharacterError) as exc:
        raise InstanceError(str(exc)) from exc
    if set(chi.values) != set(g.vertices):
        raise InstanceError("character domain does not match the vertex set")
    name = doc.get("name", "unnamed")
    return g, chi, str(name)


# ---------------------------------------------------------------------------
# serialization


def _validation_dict(report) -> dict:
    return {
        "ok": report.ok,
        "violations": [
            {"message": f.message, "vertices": list(f.vertices),
             "edges": [list(e) for e in f.edges]}
            for f in report.violations
        ],
    }


def _condition_dict(report: ConditionReport) -> dict:
    return {
        "holds": {True: "true", False: "false", None: "unknown"}[report.holds],
        "n": report.n,
        "coefficients": report.coefficients,
        "mode": report.mode,
        "variant": report.variant,
        "witnesses": [
            {"clique": list(w.clique), "required_degree": w.required_degree,
             "link": w.link, "status": w.status, "failing_degree": w.failing_degree,
             "via": w.via}
            for w in report.witnesses
        ],
    }


def _verdict_dict(v: Verdict) -> dict:
    return {
        "question": v.question,
        "status": v.status,
        "degree": v.degree,
        "justifications": [
            {"rule": j.rule, "fired": j.fired, "status": j.status, "detail": j.detail}
            for j in v.justifications
        ],
    }


def _classification_dict(ctx: Analysis) -> dict:
    cls = ctx.classification
    living = ctx.living()
    out = {
        "zero_character": ctx.chi.is_zero,
        "dead_vertices": sorted(cls.dead_vertices),
        "dead_edges": [list(e) for e in sorted(cls.dead_edges)],
        "relevant_primes": sorted(cls.relevant_primes),
        "p_dead_edges": {str(p): [list(e) for e in sorted(es)]
                         for p, es in sorted(cls.p_dead_edges.items())},
        "living_subgraph": describe_graph(living),
        "living_subgraph_vertices_only": describe_graph(ctx.living(0)),
        "p_living_subgraphs": {},
        "p_living_equals_living": {},
    }
    for p in sorted(cls.relevant_primes):
        lp = ctx.living(p)
        out["p_living_subgraphs"][str(p)] = describe_graph(lp)
        out["p_living_equals_living"][str(p)] = lp == living
    return out


# ---------------------------------------------------------------------------
# commands


def _cmd_validate(g: EvenGraph) -> tuple[int, dict]:
    even = validate_even(g)
    fc = validate_fc(g)
    code = EXIT_OK if even.ok and fc.ok else EXIT_INVALID
    return code, {"even": _validation_dict(even), "fc": _validation_dict(fc)}


def _cmd_classify(ctx: Analysis, args) -> tuple[int, dict]:
    return EXIT_OK, _classification_dict(ctx)


def _cmd_links(ctx: Analysis, args) -> tuple[int, dict]:
    p = args.p
    entries = []
    for clique, d, lk, homology in ctx.links(args.n, p, p):
        profile = homology()
        entries.append({
            "clique": list(clique),
            "required_degree": d,
            "link": lk.description,
            "betti": {str(j): profile.betti_at(j) for j in range(-1, d + 1)},
            "torsion": {str(j): list(profile.torsion.get(j, ())) for j in range(-1, d + 1)},
        })
    return EXIT_OK, {"n": args.n, "coefficients": coeffs_label(p),
                     "mode": "dead" if p is None else f"{p}-dead", "cliques": entries}


def _cmd_check(ctx: Analysis, args) -> tuple[int, dict]:
    report = ctx.strong_n_link(args.n) if args.p is None else ctx.strong_p_n_link(args.n, args.p)
    return EXIT_OK, _condition_dict(report)


def _cmd_homology(ctx: Analysis, args) -> tuple[int, dict]:
    g, chi, p, n = ctx.g, ctx.chi, args.p, args.n
    # built first, so that the oracle's budgets refuse before the link formula
    # runs, from the instance the context has checked
    twisted = _build_salvetti_complex(g, chi, p, max_n=n + 1) if args.oracle else None
    ranks = ctx.free_ranks(p, n)
    result = {
        "p": p,
        "n": n,
        "free_rank": ranks[n],
        "free_ranks_through_n": {str(k): r for k, r in enumerate(ranks)},
        "finite_dimensional_at_n": ranks[n] == 0,
        "finite_dimensional_through_n": not any(ranks),
    }
    if twisted is not None:
        module = homology_module(twisted, n)
        result["oracle"] = {
            "free_rank": module.free_rank,
            "torsion": [f.to_dict() for f in module.torsion],
            "module": module.describe(),
        }
        try:
            cross_check(g, chi, n, twisted, ranks[n])
        except CrossCheckError as exc:
            result["cross_check"] = {"ok": False, "error": str(exc)}
            return EXIT_CROSSCHECK, result
        result["cross_check"] = {"ok": True}
    return EXIT_OK, result


def _cmd_verdict(ctx: Analysis, args) -> tuple[int, dict]:
    sigma = sigma_verdict(ctx, args.n)
    return EXIT_OK, {
        "sigma_z": _verdict_dict(sigma),
        "fp": _verdict_dict(fp_verdict(sigma)),
        "sigma_homotopic": _verdict_dict(homotopic_sigma_verdict(ctx, args.n)),
    }


_COMMANDS = {
    "classify": _cmd_classify,
    "links": _cmd_links,
    "check": _cmd_check,
    "homology": _cmd_homology,
    "verdict": _cmd_verdict,
}


# ---------------------------------------------------------------------------
# rendering


def _render(report: dict, out: IO[str]) -> None:
    out.write(f"artinsigma {report['tool']['version']}\n")
    out.write(f"instance: {report['instance']['name']}\n")
    params = report.get("parameters") or {}
    shown = " ".join(f"{k}={v}" for k, v in sorted(params.items()) if v is not None)
    out.write(f"command: {report['command']}" + (f" ({shown})" if shown else "") + "\n")
    _render_value(report["results"], out, indent=0)


def _render_value(value, out: IO[str], indent: int) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        for key in value:
            sub = value[key]
            if isinstance(sub, (dict, list)) and sub:
                out.write(f"{pad}{key}:\n")
                _render_value(sub, out, indent + 1)
            else:
                out.write(f"{pad}{key}: {_scalar(sub)}\n")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                out.write(f"{pad}-\n")
                _render_value(item, out, indent + 1)
            else:
                out.write(f"{pad}- {_scalar(item)}\n")
    else:
        out.write(f"{pad}{_scalar(value)}\n")


def _scalar(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if x is None:
        return "none"
    if isinstance(x, (dict, list)) and not x:
        return "{}" if isinstance(x, dict) else "[]"
    return str(x)


# ---------------------------------------------------------------------------
# entry points


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as input errors do; argparse's own 2 would read
    as a cross-check mismatch."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="artinsigma",
        description="Sigma-invariant verdicts and kernel homology for even Artin groups of FC type")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs in (("validate", ()), ("classify", ()),
                        ("links", ("n", "p")), ("check", ("n", "p")),
                        ("homology", ("n", "P", "oracle")), ("verdict", ("n",))):
        cmd = sub.add_parser(name)
        if "n" in needs:
            cmd.add_argument("--n", type=int, required=True, help="degree")
        if "p" in needs:
            cmd.add_argument("--p", type=int, default=None,
                             help="field characteristic (0 for the rationals); omit for Z")
        if "P" in needs:
            cmd.add_argument("--p", type=int, required=True,
                             help="field characteristic (0 for the rationals)")
        if "oracle" in needs:
            cmd.add_argument("--oracle", action="store_true",
                             help="also run the chain-complex oracle and cross-check")
        cmd.add_argument("instance", help="path to the instance JSON file")
        cmd.add_argument("--json", dest="json_path", default=None,
                         help="also write the machine-readable report to this path")
    return parser


# Built once per process: a parser per command cost about 1 ms and left
# cyclic garbage behind.  Parsing keeps no state between calls.
_PARSER = _build_parser()


def run(argv: list[str], out: IO[str] | None = None) -> tuple[int, dict | None]:
    """Run one command; returns (exit code, report dict)."""
    out = out if out is not None else sys.stdout
    args = _PARSER.parse_args(argv)

    try:
        g, chi, name = load_instance(args.instance)
    except InstanceError as exc:
        out.write(f"error: {exc}\n")
        return EXIT_INVALID, None

    try:
        coeffs_label(getattr(args, "p", None))
    except ValueError as exc:
        out.write(f"error: --p {exc}\n")
        return EXIT_INVALID, None
    n = getattr(args, "n", None)
    if n is not None and n < 0:
        out.write("error: --n must be nonnegative\n")
        return EXIT_INVALID, None
    if n is not None and n > MAX_DEGREE:
        out.write(f"error: --n must be at most {MAX_DEGREE}, got {n}\n")
        return EXIT_INVALID, None

    if args.command == "validate":
        code, results = _cmd_validate(g)
    else:
        # the one context of the command, whose construction checks the graph
        try:
            ctx = Analysis(g, chi)
        except GraphDomainError as exc:
            for f in exc.findings:
                out.write(f"error: {f.message}\n")
            return EXIT_INVALID, None
        if args.command != "classify" and chi.is_zero:
            out.write("error: the zero character has no sphere class\n")
            return EXIT_INVALID, None
        try:
            code, results = _COMMANDS[args.command](ctx, args)
        except (OracleTooLarge, TooManyCliques) as exc:
            out.write(f"error: {exc}\n")
            return EXIT_INVALID, None
    params = {k: getattr(args, k) for k in ("n", "p") if hasattr(args, k)}
    if getattr(args, "oracle", False):
        params["oracle"] = True
    report = {
        "tool": {"name": "artinsigma", "version": __version__},
        "instance": {"name": name, "graph": graph_to_dict(g),
                     **character_to_dict(chi)},
        "command": args.command,
        "parameters": params,
        "exit_code": code,
        "results": results,
    }
    _render(report, out)
    if args.json_path:
        try:
            with open(args.json_path, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            out.write(f"error: cannot write the JSON report: {exc}\n")
            return EXIT_INVALID, None
    return code, report


def main() -> None:
    try:
        code = run(sys.argv[1:])[0]
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: what is left unwritten goes nowhere, also at
        # the interpreter's own flush on exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_OK
    sys.exit(code)


if __name__ == "__main__":
    main()
