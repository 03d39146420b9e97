"""Knob census: every environment variable ``src/`` reads is documented.

The README's *Environment* table is the list of ``REPRO_*`` switches; this
test keeps it equal to the set of names that appear under ``src/``, so an
environment knob can neither land undocumented nor linger in the docs after
its code is gone.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KNOB = re.compile(r"REPRO_[A-Z_]*[A-Z]")


def test_environment_table_matches_the_knobs_read_under_src():
    in_source = set()
    for path in (ROOT / "src").rglob("*.py"):
        in_source.update(KNOB.findall(path.read_text()))
    documented = {match.group(1) for match in re.finditer(
        r"^\| `(REPRO_[A-Z_]+)` \|", (ROOT / "README.md").read_text(),
        re.MULTILINE)}
    assert in_source == documented
