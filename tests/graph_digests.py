"""Digest of every representative in a frozen catalog box.

For each record of a frozen catalog (by default
``tests/golden/catalog_g4_n8_i3.jsonl``) whose route is a graph census
(``GRAPH_COUNT_*`` or ``SEP_FULL_DEGREE``), this runs ``rmfchi graphs``
in process and prints one line: the type, its flags
(``-`` for none), the graph count and the sha256 of the command's
stdout.  Non-separating types get three lines, one per gamma
convention; full-degree separating types are enumerated with
``--no-shortcircuit``.  The output is frozen as
``tests/golden/graphs_g4_n8_i3.sha256``; to check it::

    PYTHONPATH=src python tests/graph_digests.py > digests.sha256
    cmp digests.sha256 tests/golden/graphs_g4_n8_i3.sha256

An optional argument names another catalog; the g<=5 and g<=6 boxes
(n<=9, |i|<=3) are frozen as ``tests/golden/graphs_g5_n9_i3.sha256``
and ``tests/golden/graphs_g6_n9_i3.sha256``::

    PYTHONPATH=src python tests/graph_digests.py \
        tests/golden/catalog_g5_n9_i3.jsonl > digests.sha256

The file name keeps pytest from collecting it: the census takes longer
than the tier-1 suite can spend.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from rmfchi.cli import main

CATALOG = Path(__file__).parent / "golden" / "catalog_g4_n8_i3.jsonl"
NONSEP_FLAGS = ((), ("--gamma-existence",), ("--gamma-any-order",))


def runs(catalog: Path):
    """(type, flags) for every graph census the catalog records."""
    for line in catalog.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        route, text = record["route"], record["type"]
        if route == "GRAPH_COUNT_NONSEP":
            for flags in NONSEP_FLAGS:
                yield text, flags
        elif route == "GRAPH_COUNT_SEP":
            yield text, ()
        elif route == "SEP_FULL_DEGREE":
            yield text, ("--no-shortcircuit",)


def digest(text: str, flags: tuple[str, ...]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["graphs", *flags, text])
    if code != 0:
        raise SystemExit(f"rmfchi graphs {' '.join(flags)} {text} "
                         f"exited {code}")
    stdout = out.getvalue()
    count = json.loads(stdout)["count"]
    sha = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
    return f"{text} {','.join(flags) or '-'} {count} {sha}"


if __name__ == "__main__":
    catalog = Path(sys.argv[1]) if len(sys.argv) > 1 else CATALOG
    for text, flags in runs(catalog):
        print(digest(text, flags), flush=True)
