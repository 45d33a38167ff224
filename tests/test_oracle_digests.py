"""Golden SHA-256 digests of oracle reports on generated instances.

The demo instances are too small to exercise large twisted-complex
matrices, so this suite runs ``homology --p P --n N --oracle`` for P in
{0, 2, 3} and N in {1, 2, 3} on twelve seeded random FC graphs of five to
eight vertices (``genutil.random_even_fc_graph``, smaller draws skipped),
and digests the text and ``--json`` reports of each command.

Those matrices stay small, so it also runs ``homology --p 2 --n 3 --oracle``
on five seeded FC graphs of ten or eleven vertices, the size of the
benchmark's oracle workload (differentials of up to about fifty rows), and
``homology --p 2 --n 1 --oracle`` on one label-4 edge with chi = (1, 1000),
whose weight span 2,001 sits just under ``salvetti.MAX_ORACLE_SPAN``.

After a deliberate change of output, regenerate the digests with

    PYTHONPATH=src:tests python tests/test_oracle_digests.py
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import tempfile
from pathlib import Path

from artinsigma import Character, EvenGraph, character_to_dict, graph_to_dict
from artinsigma.cli import run

from genutil import random_character, random_even_fc_graph

DIGESTS = Path(__file__).resolve().parent / "data" / "oracle_report_digests.json"
SEED = 4004
INSTANCES = 12
MIN_VERTICES = 5  # smaller draws give matrices of a few entries
LARGE_SEED = 4013
LARGE_INSTANCES = 5
LARGE_MIN_VERTICES = 10
LARGE_ARGV = ("homology", "--p", "2", "--n", "3", "--oracle")
SPAN_ARGV = ("homology", "--p", "2", "--n", "1", "--oracle")


def generated_instances() -> list[dict]:
    rng = random.Random(SEED)
    docs = []
    while len(docs) < INSTANCES:
        g = random_even_fc_graph(rng, max_vertices=8)
        chi = random_character(rng, g)
        if len(g.vertices) < MIN_VERTICES:
            continue
        docs.append({"name": f"generated-{len(docs):02d}", "graph": graph_to_dict(g),
                     **character_to_dict(chi)})
    return docs


def large_instances() -> list[dict]:
    """Benchmark-size graphs: ten or eleven vertices, labels 2/4/6."""
    rng = random.Random(LARGE_SEED)
    docs = []
    while len(docs) < LARGE_INSTANCES:
        g = random_even_fc_graph(rng, max_vertices=11, edge_p=0.6)
        chi = random_character(rng, g)
        if len(g.vertices) < LARGE_MIN_VERTICES:
            continue
        docs.append({"name": f"large-{len(docs):02d}", "graph": graph_to_dict(g),
                     **character_to_dict(chi)})
    return docs


def long_span_instance() -> dict:
    """One label-4 edge with chi = (1, 1000): weights of span up to 2,001."""
    g = EvenGraph(["v", "w"], [("v", "w", 4)])
    return {"name": "edge-span-2001", "graph": graph_to_dict(g),
            **character_to_dict(Character({"v": 1, "w": 1000}))}


def commands() -> list[tuple[tuple[str, ...], dict]]:
    """Every (argv, instance document) pair the digests cover."""
    out = [(("homology", "--p", p, "--n", n, "--oracle"), doc)
           for doc in generated_instances() for p in ("0", "2", "3") for n in ("1", "2", "3")]
    out += [(LARGE_ARGV, doc) for doc in large_instances()]
    out.append((SPAN_ARGV, long_span_instance()))
    return out


def report_digests() -> dict[str, dict[str, str]]:
    """Digests of the text and JSON reports, keyed by instance and command."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        instance_path = Path(tmp) / "instance.json"
        json_path = Path(tmp) / "report.json"
        for argv, doc in commands():
            instance_path.write_text(json.dumps(doc))
            text = io.StringIO()
            run([*argv, "--json", str(json_path), str(instance_path)], out=text)
            written = json_path.read_bytes() if json_path.exists() else b""
            json_path.unlink(missing_ok=True)
            out[" ".join([*argv, doc["name"]])] = {
                "text": hashlib.sha256(text.getvalue().encode("utf-8")).hexdigest(),
                "json": hashlib.sha256(written).hexdigest(),
            }
    return out


def test_oracle_reports_match_recorded_digests():
    recorded = json.loads(DIGESTS.read_text())
    current = report_digests()
    assert sorted(current) == sorted(recorded)
    changed = [command for command in current if current[command] != recorded[command]]
    assert not changed, f"{len(changed)} report(s) differ: " + "; ".join(changed)


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(report_digests(), indent=2, sort_keys=True) + "\n")
