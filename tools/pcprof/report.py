#!/usr/bin/env python3
"""Map pcprof samples onto symbols: report.py SAMPLES EXE."""
import bisect
import subprocess
import sys
from collections import Counter

samples, exe = sys.argv[1], sys.argv[2]
TOP = 40
with open(samples) as f:
    base = int(f.readline().split()[1], 16)
    pcs = [int(line, 16) for line in f]
with open(exe, "rb") as f:
    pie = f.read(18)[16] == 3  # ELF e_type ET_DYN: nm prints offsets
if not pie:
    base = 0
addrs, names = [], []
nm = subprocess.run(["nm", "-n", "--defined-only", exe],
                    capture_output=True, text=True, check=True).stdout
for line in nm.splitlines():
    parts = line.split()
    if len(parts) == 3 and parts[1] in "tTwW":
        addrs.append(int(parts[0], 16))
        names.append(parts[2])
hits = Counter()
for pc in pcs:
    off = pc - base
    i = bisect.bisect_right(addrs, off) - 1
    inside = 0 <= i and off < addrs[-1] + 4096
    hits[names[i] if inside else "[outside the executable]"] += 1
n = max(1, len(pcs))
print(f"{len(pcs)} samples")
for name, c in hits.most_common(TOP):
    print(f"{100.0 * c / n:6.2f}% {c:8d}  {name}")
