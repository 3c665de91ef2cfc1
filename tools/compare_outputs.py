#!/usr/bin/env python3
"""Compare two snapshots written by tools/cli_outputs.sh, file by file.

Usage: python3 tools/compare_outputs.py OUT_A OUT_B

For every file under either directory it prints one line: "identical"
when the bytes are equal, otherwise the worst absolute and the worst
relative difference, |a - b| / max(|a|, |b|), over the numbers in the
file, each with its line (and, in a CSV, its column). Numbers are compared
in order and everything between them must be equal, so CSV, OBJ, mesh and
text files are all read the same way.

The exit code is 1 when a file exists on one side only or its text outside
the numbers differs, since such files cannot be compared number by number;
otherwise it is 0, even when numbers differ.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

NUMBER = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)")


def _where(path, lines, row, start):
    """'line N' and, in a CSV with a header row, the column's name."""
    where = f"line {row + 1}"
    if path.suffix == ".csv" and row > 0:
        header = lines[0].split(",")
        col = lines[row][:start].count(",")
        if col < len(header):
            where += f", {header[col]}"
    return where


def compare_file(path, text_a, text_b):
    """One report line for a file present on both sides, and whether its
    text outside the numbers matched."""
    lines_a, lines_b = text_a.splitlines(), text_b.splitlines()
    if len(lines_a) != len(lines_b):
        return f"text differs ({len(lines_a)} vs {len(lines_b)} lines)", False
    worst_abs = worst_rel = (0.0, "")
    for row, (la, lb) in enumerate(zip(lines_a, lines_b)):
        if la == lb:
            continue
        parts_a, parts_b = NUMBER.split(la), NUMBER.split(lb)
        if len(parts_a) != len(parts_b) or parts_a[::2] != parts_b[::2]:
            return f"text differs (line {row + 1})", False
        start = 0
        for k, (sa, sb) in enumerate(zip(parts_a, parts_b)):
            a, b = (float(sa), float(sb)) if k % 2 else (0.0, 0.0)
            diff = abs(a - b)
            if diff > 0.0:
                rel = diff / max(abs(a), abs(b))
                if diff > worst_abs[0]:
                    worst_abs = (diff, _where(path, lines_a, row, start))
                if rel > worst_rel[0]:
                    worst_rel = (rel, _where(path, lines_a, row, start))
            start += len(sa)
    if worst_abs[0] == 0.0:
        return "numbers equal, formatting differs", True
    return (f"max abs {worst_abs[0]:.3e} ({worst_abs[1]}), "
            f"max rel {worst_rel[0]:.3e} ({worst_rel[1]})"), True


def main(argv):
    if len(argv) != 3:
        print("usage: compare_outputs.py OUT_A OUT_B", file=sys.stderr)
        return 2
    root_a, root_b = Path(argv[1]), Path(argv[2])
    for root in (root_a, root_b):
        if not root.is_dir():
            print(f"not a directory: {root}", file=sys.stderr)
            return 2
    files_a = {p.relative_to(root_a) for p in root_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(root_b) for p in root_b.rglob("*") if p.is_file()}
    comparable = True
    for rel in sorted(files_a | files_b):
        if rel not in files_b:
            line, ok = f"only in {root_a}", False
        elif rel not in files_a:
            line, ok = f"only in {root_b}", False
        else:
            data_a = (root_a / rel).read_bytes()
            data_b = (root_b / rel).read_bytes()
            if data_a == data_b:
                line, ok = "identical", True
            else:
                line, ok = compare_file(rel, data_a.decode(errors="replace"),
                                        data_b.decode(errors="replace"))
        comparable &= ok
        print(f"{rel}: {line}")
    return 0 if comparable else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
