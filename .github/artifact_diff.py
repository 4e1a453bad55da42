"""Compare two trees of CLI artifacts and report how far their numbers moved.

    python .github/artifact_diff.py A B

Prints whether every file is byte-identical.  For each file that differs it
prints the largest absolute and relative change of any number in it, and
the largest absolute change over the file's largest |value| (numbers near
zero dominate the relative change).  It always exits 0: it reports, it
gates nothing.
"""

import math
import os
import re
import sys

NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def files(root):
    return {os.path.relpath(os.path.join(folder, name), root)
            for folder, _, names in os.walk(root) for name in names}


def moved(name, a, b):
    base, head = ([float(v) for v in NUMBER.findall(data)] for data in (a, b))
    if len(base) != len(head):
        return f"  {name}: {len(base)} numbers in A, {len(head)} in B"
    moves = [(abs(x - y), abs(x - y) / max(abs(x), abs(y)))
             for x, y in zip(base, head)
             if x != y and not (math.isnan(x) and math.isnan(y))]
    if not moves:
        return f"  {name}: the same numbers, other bytes"
    scale = max((abs(v) for v in base + head if math.isfinite(v)), default=0.0)
    largest = max(m[0] for m in moves)
    return (f"  {name}: {len(moves)} of {len(base)} numbers moved; largest absolute "
            f"{largest:.3g}, relative {max(m[1] for m in moves):.3g}, absolute over the "
            f"largest |value| {largest / scale if scale else math.inf:.3g}")


def main(a_root, b_root):
    a_files, b_files = files(a_root), files(b_root)
    report = [f"  {name}: only in {'A' if name in a_files else 'B'}"
              for name in sorted(a_files ^ b_files)]
    for name in sorted(a_files & b_files):
        with open(os.path.join(a_root, name), "rb") as fa, \
                open(os.path.join(b_root, name), "rb") as fb:
            a, b = fa.read(), fb.read()
        if a != b:
            report.append(moved(name, a, b))
    if report:
        print(f"artifacts differ between A = {a_root} and B = {b_root} (informational):")
        print("\n".join(report))
    else:
        print(f"every artifact is byte-identical ({len(a_files)} files)")


if __name__ == "__main__":
    main(*sys.argv[1:3])
