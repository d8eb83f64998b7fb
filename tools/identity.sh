#!/bin/sh
# Invariance matrix: the printed output of every experiment must not
# depend on how the simulator executes it. This is the CLI half of the
# invariant; the in-process half is test/test_invariance.ml, one
# property over random small cells.
#
# Each experiment below (Figures 6a, 6e and 7a, the cost, bounds and
# latency audits, the serving benchmark and Figure R) runs once plain
# and once per mode (--jobs 2, --no-vm, either allocator, the
# sanitizer on either engine, the race checker, the sanitizer with the
# race checker, the profiler, and all three instruments), all with
# --quick --stats: 80 cells. Every (experiment, mode) cell is
# byte-diffed against the plain run after normalization:
#   - every cell: the self-contained "--- profile" ... "--- end profile ---"
#     and "--- racecheck" ... "--- end racecheck ---" blocks are stripped
#     (both instruments only observe);
#   - --alloc cells: the telemetry block (up to its blank line) and the
#     "--- flight recorder" blocks are stripped too — the mem.alloc.* /
#     mem.pool.* counters and the block addresses in serve's SLO-breach
#     dumps are the only places the allocator policy may show.
# Besides the diff, a --race cell must print a racecheck block, and every
# such block must report 0 races; a --profile cell must print a profile
# block; an --alloc cell must show that the flag reached its cells: every
# mem.pool.handoffs line is nonzero under --alloc pooled and zero under
# --alloc legacy; the plain Figure R run must show adversary stalls and
# neutralization signals. The last mode arms all three observers at
# once: the sanitizer's slot and window notes, the profiler's frames and
# the race checker's hooks then share one stream of leaf host calls,
# which is where instruments can interact.
#
# Adding a mode or an experiment is one line in the lists below.
#
# Usage:
#   tools/identity.sh      build bin/repro.exe, run the matrix, print one
#                          line per cell; exit 1 if any cell fails
#
# Children run with every REPRO_* variable unset, so "plain" is plain.
set -u

experiments='run 6a
run 6e
run 7a
run audit-cost
run audit-bounds
run audit-latency
serve
run robust'

modes='--jobs 2
--no-vm
--alloc legacy
--alloc pooled
--sanitize
--sanitize --no-vm
--race
--sanitize --race
--profile
--sanitize --race --profile'

root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$root" || exit 1
dune build ./bin/repro.exe || exit 1
repro=$root/_build/default/bin/repro.exe

for v in $(env | sed -n 's/^\(REPRO_[A-Za-z0-9_]*\)=.*/\1/p'); do
  unset "$v"
done

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
status=0

# normalize MODE FILE: the cell's comparable view, on stdout.
normalize() {
  case $1 in
    *--alloc*)
      alloc='/^--- telemetry /,/^$/d
/^--- flight recorder: /,/^--- end flight recorder/d' ;;
    *) alloc='' ;;
  esac
  sed -e '/^--- profile /,/^--- end profile ---$/d' \
    -e '/^--- racecheck /,/^--- end racecheck ---$/d' -e "$alloc" "$2"
}

# run NAME ARGS...: run repro into $work/NAME.{out,err}; on a non-zero
# exit, print the code and stderr and return 1.
run() {
  name=$1
  shift
  "$repro" "$@" --quick --stats >"$work/$name.out" 2>"$work/$name.err"
  code=$?
  if [ "$code" -ne 0 ]; then
    echo "      exit $code; stderr:"
    sed -n '1,5s/^/        /p' "$work/$name.err"
    return 1
  fi
}

# check MODE PLAIN CELL: diff and per-mode assertions; prints the
# first difference and returns 1 on failure.
check() {
  normalize "$1" "$2" >"$work/a"
  normalize "$1" "$3" >"$work/b"
  if ! cmp -s "$work/a" "$work/b"; then
    # the first hunk's header and its first plain / mode lines
    echo "      first difference (< plain, > $1):"
    diff "$work/a" "$work/b" |
      awk 'NR == 1 { print "at " $0; next }
           /^[0-9]/ { exit }
           /^</ && !l { print; l = 1 }
           /^>/ && !r { print; r = 1 }' | sed 's/^/        /'
    return 1
  fi
  case $1 in
    *--race*)
      if ! grep -q '^--- racecheck ' "$3"; then
        echo "      no racecheck block"
        return 1
      fi
      if grep '^--- racecheck ' "$3" | grep -qv '; 0 reports) ---$'; then
        echo "      races reported:"
        grep '^--- racecheck ' "$3" | grep -v '; 0 reports) ---$' |
          sed 's/^/        /'
        return 1
      fi ;;
  esac
  case $1 in
    *'--alloc pooled'*) bad='$2 == 0' ;;
    *'--alloc legacy'*) bad='$2 != 0' ;;
    *) bad='' ;;
  esac
  if [ -n "$bad" ] && ! awk "/^ *mem[.]pool[.]handoffs / { n++; if ($bad) b++ }
      END { exit !(n && !b) }" "$3"; then
    echo "      mem.pool.handoffs missing or wrong under $1: the flag did not reach the cells"
    return 1
  fi
  case $1 in
    *--profile*)
      if ! grep -q '^--- profile ' "$3"; then
        echo "      no profile block"
        return 1
      fi ;;
  esac
}

ei=0
while IFS= read -r exp; do
  ei=$((ei + 1))
  # shellcheck disable=SC2086 # word splitting of the argument lists is intended
  if ! run "e$ei" $exp >"$work/msg"; then
    echo "FAIL  $exp (plain)"
    cat "$work/msg"
    status=1
    continue
  fi
  if [ "$exp" = "run robust" ]; then
    for want in 'adversary stalls' 'neutralization signals'; do
      if ! grep -q "$want" "$work/e$ei.out"; then
        echo "FAIL  $exp (plain): no '$want' line"
        status=1
      fi
    done
  fi
  mi=0
  while IFS= read -r mode; do
    mi=$((mi + 1))
    # shellcheck disable=SC2086
    if run "e$ei.m$mi" $exp $mode >"$work/msg" &&
      check "$mode" "$work/e$ei.out" "$work/e$ei.m$mi.out" \
        >>"$work/msg"; then
      echo "ok    $exp x $mode"
    else
      echo "FAIL  $exp x $mode"
      cat "$work/msg"
      status=1
    fi
  done <<EOF
$modes
EOF
done <<EOF
$experiments
EOF

if [ "$status" -eq 0 ]; then
  echo "identity: every cell matches its plain run"
else
  echo "identity: FAILED" >&2
fi
exit "$status"
