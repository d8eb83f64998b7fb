#!/usr/bin/env python3
"""Map pcprof samples onto symbols: report.py SAMPLES EXE [ROWS].

Prints the ROWS (default 40) hottest symbols, then the share of each
shared library.

Samples inside EXE are named by its `nm` symbols. A sample outside it
is looked up in SAMPLES.maps (the process's memory map, which pcprof
saves at exit): it is named "[LIB] SYM" after the shared library that
holds it and the nearest symbol at or below it, dynamic ones included
(libraries are usually stripped of the rest, so a static helper such as
malloc's internals shows under the exported symbol before it). A sample
in no mapped file, or with no maps file, stays "[outside the
executable]".
"""
import bisect
import os
import subprocess
import sys
from collections import Counter

OUTSIDE = "[outside the executable]"


def symbols(path, *flags):
    """Sorted (addresses, names) of the defined text symbols of PATH."""
    found = {}
    for extra in flags:
        out = subprocess.run(["nm", "-n", "--defined-only", *extra, path],
                             capture_output=True, text=True).stdout
        for line in out.splitlines():
            parts = line.split()
            if len(parts) == 3 and parts[1] in "tTwWiI":
                found.setdefault(int(parts[0], 16), parts[2].split("@")[0])
    addrs = sorted(found)
    return addrs, [found[a] for a in addrs]


def read_maps(path):
    """File-backed mappings as (start, end, load base, file), the load
    base being the start of the file's mapping at offset 0."""
    rows, base = [], {}
    if not os.path.exists(path):
        return rows
    with open(path) as f:
        for line in f:
            parts = line.split(None, 5)
            if len(parts) < 6 or not parts[5].startswith("/"):
                continue
            lo, hi = (int(x, 16) for x in parts[0].split("-"))
            name = parts[5].strip()
            if int(parts[2], 16) == 0:
                base.setdefault(name, lo)
            rows.append((lo, hi, name))
    return [(lo, hi, base.get(name, lo), name) for lo, hi, name in rows]


def main():
    samples, exe = sys.argv[1], sys.argv[2]
    rows = int(sys.argv[3]) if len(sys.argv) > 3 else 40
    with open(samples) as f:
        base = int(f.readline().split()[1], 16)
        pcs = [int(line, 16) for line in f]
    with open(exe, "rb") as f:
        pie = f.read(18)[16] == 3  # ELF e_type ET_DYN: nm prints offsets
    if not pie:
        base = 0
    addrs, names = symbols(exe, [])
    exe_real = os.path.realpath(exe)
    maps = [m for m in read_maps(samples + ".maps")
            if os.path.realpath(m[3]) != exe_real]
    libs = {}
    hits = Counter()
    for pc in pcs:
        off = pc - base
        i = bisect.bisect_right(addrs, off) - 1
        if 0 <= i and off < addrs[-1] + 4096:
            hits[names[i]] += 1
            continue
        name = OUTSIDE
        for lo, hi, lbase, path in maps:
            if lo <= pc < hi:
                if path not in libs:
                    libs[path] = symbols(path, [], ["-D"])
                la, ln = libs[path]
                j = bisect.bisect_right(la, pc - lbase) - 1
                sym = ln[j] if j >= 0 else "?"
                name = f"[{os.path.basename(path)}] {sym}"
                break
        hits[name] += 1
    n = max(1, len(pcs))
    print(f"{len(pcs)} samples")
    for name, c in hits.most_common(rows):
        print(f"{100.0 * c / n:6.2f}% {c:8d}  {name}")
    per_lib = Counter()
    for name, c in hits.items():
        if name.startswith("["):
            per_lib[name.split("]")[0] + "]"] += c
    for lib, c in per_lib.most_common():
        print(f"{100.0 * c / n:6.2f}% {c:8d}  {lib} in all")


main()
