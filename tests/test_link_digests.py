"""Golden SHA-256 digests of link-pipeline reports on generated instances.

The demo instances have at most a handful of vertices, so they never reach
the clique enumeration, dead-clique selection and link complexes of a
13-vertex graph.  This suite runs ``links --n N`` over Z, Q and F_2,
``check --n N`` and ``verdict --n N`` for N in 1..4 on twelve seeded random
FC graphs of nine to thirteen vertices (``genutil.random_even_fc_graph``,
smaller draws skipped), and digests the text and ``--json`` reports of each
command.

After a deliberate change of output, regenerate the digests with

    PYTHONPATH=src:tests python tests/test_link_digests.py
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import tempfile
from pathlib import Path

from artinsigma import character_to_dict, graph_to_dict
from artinsigma.cli import run

from genutil import random_character, random_even_fc_graph

DIGESTS = Path(__file__).resolve().parent / "data" / "link_report_digests.json"
SEED = 5005
INSTANCES = 12
MIN_VERTICES = 9
MAX_VERTICES = 13


def generated_instances() -> list[dict]:
    rng = random.Random(SEED)
    docs = []
    while len(docs) < INSTANCES:
        g = random_even_fc_graph(rng, max_vertices=MAX_VERTICES)
        chi = random_character(rng, g)
        if len(g.vertices) < MIN_VERTICES:
            continue
        docs.append({"name": f"generated-{len(docs):02d}", "graph": graph_to_dict(g),
                     **character_to_dict(chi)})
    return docs


def commands() -> list[list[str]]:
    matrix = []
    for n in ("1", "2", "3", "4"):
        matrix.append(["links", "--n", n])
        matrix.extend(["links", "--n", n, "--p", p] for p in ("0", "2"))
        matrix.append(["check", "--n", n])
        matrix.append(["verdict", "--n", n])
    return matrix


def report_digests() -> dict[str, dict[str, str]]:
    """Digests of the text and JSON reports, keyed by instance and command."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        instance_path = Path(tmp) / "instance.json"
        json_path = Path(tmp) / "report.json"
        for doc in generated_instances():
            instance_path.write_text(json.dumps(doc))
            for argv in commands():
                text = io.StringIO()
                run([*argv, "--json", str(json_path), str(instance_path)], out=text)
                written = json_path.read_bytes() if json_path.exists() else b""
                json_path.unlink(missing_ok=True)
                out[" ".join([*argv, doc["name"]])] = {
                    "text": hashlib.sha256(text.getvalue().encode("utf-8")).hexdigest(),
                    "json": hashlib.sha256(written).hexdigest(),
                }
    return out


def test_link_reports_match_recorded_digests():
    recorded = json.loads(DIGESTS.read_text())
    current = report_digests()
    assert sorted(current) == sorted(recorded)
    changed = [command for command in current if current[command] != recorded[command]]
    assert not changed, f"{len(changed)} report(s) differ: " + "; ".join(changed)


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(report_digests(), indent=2, sort_keys=True) + "\n")
