"""The README states the line count of the library; it must be the real one."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_module_map_line_count_is_current():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    stated = re.search(r"Module map \(`src/artinsigma/`, ([0-9,]+) lines\)", readme)
    assert stated, "the README module map no longer states a line count"
    actual = sum(len(path.read_text(encoding="utf-8").splitlines())
                 for path in (ROOT / "src" / "artinsigma").glob("*.py"))
    assert int(stated.group(1).replace(",", "")) == actual
