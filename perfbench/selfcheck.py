"""Check the benchmark's oracle against the paper's published anchors.

    python3 perfbench/selfcheck.py

Prints one line per anchor and exits 1 if any disagrees.  The anchors are the
reference scenario (4 x 2 NM, 110 m at the centre, 1.5 deg dip, 120 deg fan,
eta = 0.10): 34 lines, the first at 358.522 m and the last at 7,398.49 m; and
the 0 deg row of the width table (120 m at the origin, 0 to 2.1 NM in steps of
0.3 NM), which runs from 415.69 m to 768.48 m.

The last line is held to 0.2 m rather than to its printed digits: the closed
form, like swathplan itself, puts it at 7,398.645 m, and the paper's figure
comes from its own iterative solver.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402

NM = oracle.METERS_PER_NM


def main() -> int:
    lines = oracle.layout(4 * NM, 110.0, 1.5, 120.0, 0.10)
    row = oracle.width_cells(120.0, 1.5, 120.0, [0.0], [i * 0.3 * NM for i in range(8)])[0]
    xs = [line.x for line in lines]
    verdict = oracle.coverage_verdict(
        xs, [line.width for line in lines], 4 * NM, 110.0, 1.5, 120.0, 0.10, 0.20
    )
    checks = [
        ("line count 34", len(lines) == 34, len(lines)),
        ("first line 358.522 m", oracle.agrees("358.522", xs[0]), xs[0]),
        ("last line 7398.49 m, to 0.2 m", abs(xs[-1] - 7398.49) <= 0.2, xs[-1]),
        ("0 deg row starts 415.69 m", round(row[0], 2) == 415.69, row[0]),
        ("0 deg row ends 768.48 m", round(row[-1], 2) == 768.48, row[-1]),
        ("reference plan passes its audit", verdict.passed, f"{len(verdict.gaps)} gaps, "
         f"ratios {min(verdict.ratios):.5f}..{max(verdict.ratios):.5f}"),
    ]
    for name, ok, got in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name} (got {got})")
    return 0 if all(ok for _, ok, _ in checks) else 1


if __name__ == "__main__":
    raise SystemExit(main())
