#!/bin/sh
# Sample the PCs of one command and print its hottest symbols.
#
#   tools/pcprof/pcprof.sh OUT EXE [ARGS...]
#
# Builds pcprof.so next to OUT, runs EXE under LD_PRELOAD with samples
# written to OUT (one SIGPROF per millisecond of CPU time, or per kernel
# tick if that is longer), then prints EXE's 40 hottest symbols with
# report.py (OUT.maps, saved beside the samples, names the shared
# libraries). Run EXE directly, not through a wrapper script: every
# process that inherits LD_PRELOAD samples itself and the last to exit
# overwrites OUT.
set -eu
here=$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)
out=$1
shift
exe=$1
cc -O2 -shared -fPIC -o "$out.so" "$here/pcprof.c"
LD_PRELOAD=$out.so PCPROF_OUT=$out "$@"
python3 "$here/report.py" "$out" "$exe"
