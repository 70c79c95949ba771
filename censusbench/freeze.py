"""Freeze the benchmark's expected outputs from the current source tree.

Run only on unmodified main, from the repository root:

    python3 censusbench/freeze.py

It writes ``censusbench/expected/``: the catalog JSONL files, the
``chi-n --json`` output of every ladder rung, the graph count of every
oracle query (after checking that the fast and naive keys agree) and
the ``verify-cells --json`` output for every ``--max-s``.  Full and
smoke inputs share these files.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402


def _write_json(name: str, data) -> None:
    path = wl.EXPECTED_DIR / name
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")


def main() -> int:
    wl.EXPECTED_DIR.mkdir(exist_ok=True)
    for box in wl.CATALOG_BOX.values():
        target = wl.EXPECTED_DIR / wl.catalog_file(box)
        code, _ = wl.call_cli(wl.catalog_argv(box, target))
        if code != 0:
            raise SystemExit(f"catalog {box} exited with {code}")
        print(f"wrote {target.relative_to(ROOT)}")

    ladder = {}
    for rung in sorted({r for rungs in wl.LADDER.values() for r in rungs}):
        code, out = wl.call_cli(["chi-n", "--json", rung])
        if code != 0:
            raise SystemExit(f"chi-n {rung} exited with {code}")
        ladder[rung] = json.loads(out)
    _write_json("ladder.json", ladder)

    oracle = {}
    for query in wl.oracle_queries(wl.ORACLE_BOX[False]):
        fast_keys, naive_keys = wl.oracle_keys(*query)
        if fast_keys != naive_keys:
            raise SystemExit(f"{wl.oracle_label(query)}: routes disagree")
        oracle[wl.oracle_label(query)] = len(fast_keys)
    _write_json("oracle.json", oracle)

    cells = {}
    for max_s in sorted({s for values in wl.CELLS_MAX_S.values()
                         for s in values}):
        code, out = wl.call_cli(["verify-cells", "--json", "--max-s",
                                 str(max_s)])
        if code != 0:
            raise SystemExit(f"verify-cells --max-s {max_s} exited {code}")
        cells[str(max_s)] = json.loads(out)
    _write_json("cells.json", cells)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
