#!/usr/bin/env python3
"""Consistency gate for the attack-sweep bench artifact.

    python3 tools/sweep_check.py SWEEP_JSON REFERENCE_JSON

SWEEP_JSON holds one JSON object per line, appended by `bench_table2`
runs with ADVTEXT_BENCH_JSON set (see README). Every run of one cell (a
"leg": serial, 4 workers, or serial pinned to one CPU with `taskset -c 0`,
which scores every recurrent batch in one share) attacks the same
documents with the same model, so its `success_rate`, `queries` and
`records_crc` must match the cell's other legs exactly. Checks, per
(bench, config) cell:

  * the cell has exactly three legs;
  * every leg carries a `records_crc`;
  * all legs agree on `success_rate`, `queries` and `records_crc`.

Cells whose values differ from REFERENCE_JSON's (the checked-in
artifact) are printed as well. That comparison is informational and
never changes the exit status: another libm may round `exp`/`log`
differently and so legitimately produce other records.

Exit status: 0 consistent, 1 any check failed, 2 unreadable input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

FIELDS = ("success_rate", "queries", "records_crc")
LEGS = 3  # serial, 4 workers, serial on one CPU


def load_cells(path: Path) -> dict[tuple[str, str], list[dict]]:
    cells: dict[tuple[str, str], list[dict]] = {}
    for line in path.read_text().splitlines():
        if line.strip():
            row = json.loads(line)
            cells.setdefault((row["bench"], row["config"]), []).append(row)
    return cells


def values(row: dict) -> tuple:
    return tuple(row.get(field) for field in FIELDS)


def leg_name(row: dict) -> str:
    return (f"threads={row.get('threads')} "
            f"hardware_threads={row.get('hardware_threads')}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Check that every leg of every attack-sweep cell agrees "
                    "on success_rate, queries and records_crc.")
    parser.add_argument("sweep", type=Path, help="bench JSON-lines file")
    parser.add_argument("reference", type=Path,
                        help="artifact to compare against (informational)")
    args = parser.parse_args(argv)
    try:
        cells = load_cells(args.sweep)
        reference = load_cells(args.reference)
    except (OSError, ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if not cells:
        print(f"error: {args.sweep} has no rows", file=sys.stderr)
        return 2

    failures = 0
    for (bench, config), rows in sorted(cells.items()):
        problems = []
        if len(rows) != LEGS:
            problems.append(f"{len(rows)} legs, expected {LEGS}")
        if any(row.get("records_crc") is None for row in rows):
            problems.append("a leg has no records_crc")
        if len({values(row) for row in rows}) > 1:
            problems.append("legs disagree: " + "; ".join(
                f"{leg_name(row)} -> "
                + ", ".join(f"{f}={row.get(f)}" for f in FIELDS)
                for row in rows))
        failures += bool(problems)
        status = "FAIL" if problems else "ok  "
        print(f"{status}  {bench} {config}"
              + (": " + " | ".join(problems) if problems else ""))

    drift = 0
    for key, rows in sorted(cells.items()):
        want = reference.get(key)
        if want is None:
            print(f"note  {key[0]} {key[1]}: not in {args.reference}")
            drift += 1
        elif values(rows[0]) != values(want[0]):
            drift += 1
            print(f"note  {key[0]} {key[1]}: "
                  + ", ".join(f"{f} {want[0].get(f)} -> {rows[0].get(f)}"
                              for f in FIELDS
                              if want[0].get(f) != rows[0].get(f)))
    print(f"{len(cells) - drift} of {len(cells)} cells match "
          f"{args.reference} (informational, not a gate)")

    print(f"{len(cells) - failures} of {len(cells)} cells consistent "
          f"across legs")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
