"""Golden SHA-256 digests of every report the CLI writes for the demo instances.

The command matrix covers each demo instance with validate and classify;
links and check at n = 1..4 over Z, Q and F_2; verdict at n = 1..4; and
homology at p = 0, 2, 3 and n = 0..3, with and without the oracle.  Both
the text report and the ``--json`` file are digested, so any change to what
a command prints shows up here by name.

After a deliberate change of output, regenerate the digests with

    PYTHONPATH=src python tests/test_report_digests.py
"""

from __future__ import annotations

import hashlib
import io
import json
import tempfile
from pathlib import Path

from artinsigma.cli import run

DEMOS = Path(__file__).resolve().parent.parent / "demos" / "instances"
DIGESTS = Path(__file__).resolve().parent / "data" / "demo_report_digests.json"


def demo_commands() -> list[list[str]]:
    matrix = [["validate"], ["classify"]]
    for command in ("links", "check"):
        for n in range(1, 5):
            matrix.append([command, "--n", str(n)])
            matrix.extend([command, "--n", str(n), "--p", p] for p in ("0", "2"))
    matrix.extend(["verdict", "--n", str(n)] for n in range(1, 5))
    for p in ("0", "2", "3"):
        for n in range(4):
            matrix.append(["homology", "--p", p, "--n", str(n)])
            matrix.append(["homology", "--p", p, "--n", str(n), "--oracle"])
    return [[*argv, demo.name] for demo in sorted(DEMOS.glob("*.json")) for argv in matrix]


def report_digests() -> dict[str, dict[str, str]]:
    """Digests of the text and JSON reports, keyed by the command line."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        json_path = Path(tmp) / "report.json"
        for argv in demo_commands():
            text = io.StringIO()
            run([*argv[:-1], "--json", str(json_path), str(DEMOS / argv[-1])], out=text)
            written = json_path.read_bytes() if json_path.exists() else b""
            json_path.unlink(missing_ok=True)
            out[" ".join(argv)] = {
                "text": hashlib.sha256(text.getvalue().encode("utf-8")).hexdigest(),
                "json": hashlib.sha256(written).hexdigest(),
            }
    return out


def test_demo_reports_match_recorded_digests():
    recorded = json.loads(DIGESTS.read_text())
    current = report_digests()
    assert sorted(current) == sorted(recorded)
    changed = [command for command in current if current[command] != recorded[command]]
    assert not changed, f"{len(changed)} report(s) differ: " + "; ".join(changed)


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(report_digests(), indent=2, sort_keys=True) + "\n")
