#!/bin/sh
# Repository lint: mechanical rules the type checker cannot express.
#
#   1. Determinism / safety identifiers are banned under lib/:
#      Obj.magic defeats the word-level heap model, and wall-clock or
#      ambient randomness (Random., Unix.gettimeofday, Sys.time) would
#      break the bit-identical reproduction guarantee.
#   2. Direct Memory.free is the reclamation layers' privilege: outside
#      lib/smr, lib/acquire_retire, lib/rc_baselines and lib/core every
#      free must go through a scheme's retire path. A deliberate
#      exception (tests probing the fault machinery, structure teardown
#      that owns its nodes) is marked on the same line with
#      `(* lint: allow-free *)`.
#   3. Effect.perform is the scheduler protocol's privilege: only
#      lib/simcore/proc.ml (the Pay effect), lib/simcore/sim.ml (its
#      handler) and lib/simcore/vm.ml (host-call fibers) may perform
#      effects. Anywhere else a perform would reintroduce a per-step
#      fiber suspension behind the flat dispatch path's back — the
#      exact cost the VM exists to avoid — and bypass the accounting
#      that keeps elided and suspended pays bit-identical.
#   4. Stdout printing (Printf.printf / print_string / print_endline /
#      print_newline) under lib/ is reserved for the designated
#      report/render modules (lib/workload/{tables,registry,serve,
#      audits,fig_robust}.ml): everything else must return strings or take a
#      formatter, so library output is composable and CI byte-diffs
#      (profiled vs not, sanitized vs not) only have to strip known
#      blocks. A deliberate exception is marked on the same line with
#      `(* lint: allow-print *)`.
#   5. Freelist internals (free_heads / large_free / pop_free /
#      push_free) are the allocator's privilege: only
#      lib/simcore/{memory,alloc,memcore}.ml may touch them. Everything
#      else goes through Memory.alloc/Memory.free (or the Alloc
#      interface), so the pluggable-allocator invariant — policies are
#      interchangeable behind one seam — cannot be bypassed.
#   6. Host-level parallelism (Domain. / Atomic.) is the pool's
#      privilege: only lib/simcore/domain_pool.ml may use it freely.
#      Simulated processes synchronize through Memory's operations —
#      that is the model the race checker reasons about — so a stray
#      Domain.spawn or Atomic cell anywhere else is shared state the
#      analyzer (and the deterministic scheduler) cannot see. The few
#      deliberate host-side uses (domain-local keys, process-wide CLI
#      knobs set before workers spawn) are marked on the same line with
#      `(* lint: allow-atomic *)`.
#   7. One access path per VM memory opcode: lib/simcore/vm.ml may name
#      only Memory.t, hot, validate_addr, Fault and the per-access
#      observer (instrument). Calling Memory.read and
#      the like from the dispatch loop would bring back a second access
#      path that can drift from the inline one.
#   8. No hidden runtime calls in the simulator core:
#      lib/simcore/{memory,memcore,vm,sim,proc,racecheck,sanitizer,
#      profiler,telemetry,alloc,int_set}.ml, the protection sweeps
#      (lib/rc_baselines/protectors.ml, lib/smr/hp.ml), the
#      acquire-retire scan (lib/acquire_retire/ar.ml) and the era
#      sweeps (lib/smr/he.ml, lib/smr/ibr.ml) may not use the bare
#      polymorphic min, max or compare, nor Domain.self. On ints
#      the polymorphic ones call the runtime's generic comparison, and
#      Domain.self is a C call that switches stacks; both once ran per
#      simulated access. Int code uses Int.min/Int.max or an explicit
#      test, and sort sites pass a typed comparator. The two protection
#      sweep files and ar.ml may not use Hashtbl either: a sweep once
#      built a fresh hash table (and hashed every guard) per retire; its
#      guarded set is a reused Int_set, and ar.ml's announced multiset
#      is an open-addressed int table cleared in place. Comments and
#      string literals are ignored.
#   9. One environment reader: Sys.getenv and Sys.getenv_opt may appear
#      in no .ml under lib, bin, test or tools except bin/repro.ml, which
#      hands Sys.getenv_opt to Config.resolve. The CLI turns its flags and
#      REPRO_* variables into one Config.t there, so neither a library
#      default nor a test or tool can depend on the process environment
#      behind a caller's back.
#  10. No dead exports: every val of a lib/**/*.mli must be used, outside
#      comments and strings, in some .ml/.mli of lib, bin, examples,
#      perfbench, tools or test other than its own module's.
#      A use is qualified (Module.name, or Alias.name after module Alias
#      = ...Module), or bare in a file that opens or includes the
#      module; a bare name elsewhere (a label, a local, another module's
#      value) is not a use. Vals declared in a module type or a
#      functor's signature keep the bare-name match, since their callers
#      reach them through modules that do not name the declaring one. A
#      value only its own module uses stays off the interface; one
#      nothing uses is deleted.
#  11. One compiled driver: under lib/, only lib/workload/measure.ml may
#      pass a coroutine to Sim.run (lib/simcore/sim.ml declares the
#      parameter). Code without a compiled body runs in the closure
#      driver, which keeps one fiber per process for its whole life;
#      wrapping it in a Vm program instead costs a fresh fiber per HOST
#      call. test/ and perfbench/ are outside the rule.
#  12. Hot paths read the held env cell: lib/simcore/memory.ml outside
#      its fault and report helpers (mem_fault, wrong_domain, file,
#      race_noted), and all of lib/simcore/telemetry.ml and
#      lib/simcore/recorder.ml, may not call Proc.get_env, Proc.pay,
#      Proc.self or Proc.global_now. Each is a domain-local lookup;
#      heaps, registries and recorders capture their domain's env cell
#      (Proc.here) when created and read the running process's env from
#      it, paying through Proc.pay_env. Comments and string literals are
#      ignored.
#
# Usage:
#   tools/lint.sh                lint the repository (exit 1 on violation)
#   tools/lint.sh --self-test    seed violations in a temp tree and check
#                                that the linter catches them
#   LINT_ROOT=<dir> tools/lint.sh    lint a different tree (self-test uses
#                                this internally)
set -u

root=${LINT_ROOT:-$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)}
status=0

fail() {
  printf '%s\n' "$1" >&2
  status=1
}

# --- Rule 1: forbidden identifiers under lib/ -------------------------------
forbidden='Obj\.magic|Random\.|Unix\.gettimeofday|Sys\.time'
if [ -d "$root/lib" ]; then
  hits=$(grep -rnE "$forbidden" "$root/lib" --include='*.ml' --include='*.mli' 2>/dev/null)
  if [ -n "$hits" ]; then
    fail "lint: forbidden identifier(s) under lib/ (Obj.magic / Random. / Unix.gettimeofday / Sys.time):"
    printf '%s\n' "$hits" >&2
  fi
fi

# --- Rule 2: direct Memory.free outside the reclamation layers --------------
free_pattern='(^|[^.A-Za-z0-9_])(Memory|Mem|M)\.free([^_A-Za-z0-9]|$)'
allowed_dir() {
  case $1 in
    "$root"/lib/smr/*|"$root"/lib/acquire_retire/*|"$root"/lib/rc_baselines/*|"$root"/lib/core/*) return 0 ;;
    *) return 1 ;;
  esac
}

for dir in lib bin test examples; do
  [ -d "$root/$dir" ] || continue
  # shellcheck disable=SC2044
  for f in $(find "$root/$dir" -name '*.ml' -o -name '*.mli'); do
    allowed_dir "$f" && continue
    hits=$(grep -nE "$free_pattern" "$f" 2>/dev/null | grep -v 'lint: allow-free')
    if [ -n "$hits" ]; then
      fail "lint: direct Memory.free outside the reclamation layers in $f (annotate the line with (* lint: allow-free *) if deliberate):"
      printf '%s\n' "$hits" >&2
    fi
  done
done

# --- Rule 3: Effect.perform outside the scheduler protocol ------------------
perform_allowed() {
  case $1 in
    "$root"/lib/simcore/proc.ml|"$root"/lib/simcore/sim.ml|"$root"/lib/simcore/vm.ml) return 0 ;;
    *) return 1 ;;
  esac
}

for dir in lib bin examples; do
  [ -d "$root/$dir" ] || continue
  # shellcheck disable=SC2044
  for f in $(find "$root/$dir" -name '*.ml' -o -name '*.mli'); do
    perform_allowed "$f" && continue
    hits=$(grep -nE '(^|[^.A-Za-z0-9_])Effect\.(perform|Deep\.|Shallow\.)' "$f" 2>/dev/null)
    if [ -n "$hits" ]; then
      fail "lint: Effect use outside lib/simcore/{proc,sim,vm}.ml in $f (pays must go through Proc.pay or a Vm opcode):"
      printf '%s\n' "$hits" >&2
    fi
  done
done

# --- Rule 4: stdout printing outside the report/render modules --------------
# The char-class guard keeps Format.pp_print_string and the like out of
# the match (they take an explicit formatter, which is the point).
print_pattern='(^|[^.A-Za-z0-9_])(Printf\.printf|print_string|print_endline|print_newline)([^_A-Za-z0-9]|$)'
print_allowed() {
  case $1 in
    "$root"/lib/workload/tables.ml|"$root"/lib/workload/registry.ml|"$root"/lib/workload/serve.ml|"$root"/lib/workload/audits.ml|"$root"/lib/workload/fig_robust.ml) return 0 ;;
    *) return 1 ;;
  esac
}

if [ -d "$root/lib" ]; then
  # .ml only: interfaces carry no executable code, and their doc
  # comments legitimately mention the printing functions.
  # shellcheck disable=SC2044
  for f in $(find "$root/lib" -name '*.ml'); do
    print_allowed "$f" && continue
    hits=$(grep -nE "$print_pattern" "$f" 2>/dev/null | grep -v 'lint: allow-print')
    if [ -n "$hits" ]; then
      fail "lint: stdout printing outside the report/render modules in $f (return a string / take a formatter, or annotate the line with (* lint: allow-print *) if deliberate):"
      printf '%s\n' "$hits" >&2
    fi
  done
fi

# --- Rule 5: freelist internals outside the allocator seam ------------------
# Unlike rule 2's pattern, a preceding '.' still matches: record access
# (t.free_heads) is exactly the smuggling this rule exists to stop.
freelist_pattern='(^|[^A-Za-z0-9_])(free_heads|large_free|pop_free|push_free)([^_A-Za-z0-9]|$)'
freelist_allowed() {
  case $1 in
    "$root"/lib/simcore/memory.ml|"$root"/lib/simcore/alloc.ml|"$root"/lib/simcore/memcore.ml) return 0 ;;
    *) return 1 ;;
  esac
}

for dir in lib bin test examples; do
  [ -d "$root/$dir" ] || continue
  # shellcheck disable=SC2044
  for f in $(find "$root/$dir" -name '*.ml'); do
    freelist_allowed "$f" && continue
    hits=$(grep -nE "$freelist_pattern" "$f" 2>/dev/null)
    if [ -n "$hits" ]; then
      fail "lint: freelist internals outside lib/simcore/{memory,alloc,memcore}.ml in $f (go through Memory.alloc/Memory.free or the Alloc interface):"
      printf '%s\n' "$hits" >&2
    fi
  done
done

# --- Rule 6: host parallelism outside the domain pool -----------------------
# .ml only: interfaces carry no executable code, and type expressions
# ([bool Atomic.t]) and doc comments legitimately mention the modules.
atomic_pattern='(^|[^.A-Za-z0-9_])(Domain\.|Atomic\.)'
atomic_allowed() {
  case $1 in
    "$root"/lib/simcore/domain_pool.ml) return 0 ;;
    *) return 1 ;;
  esac
}

for dir in lib bin test examples; do
  [ -d "$root/$dir" ] || continue
  # shellcheck disable=SC2044
  for f in $(find "$root/$dir" -name '*.ml'); do
    atomic_allowed "$f" && continue
    hits=$(grep -nE "$atomic_pattern" "$f" 2>/dev/null | grep -v 'lint: allow-atomic')
    if [ -n "$hits" ]; then
      fail "lint: Domain./Atomic. outside lib/simcore/domain_pool.ml in $f (simulated code synchronizes through Memory; annotate the line with (* lint: allow-atomic *) if deliberately host-side):"
      printf '%s\n' "$hits" >&2
    fi
  done
done

# --- Rule 7: one access path per VM memory opcode ---------------------------
vm_ml=$root/lib/simcore/vm.ml
if [ -f "$vm_ml" ]; then
  hits=$(grep -noE '(^|[^.A-Za-z0-9_])Memory\.(\(|[A-Za-z_][A-Za-z0-9_]*)' "$vm_ml" \
    | grep -vE 'Memory\.(t|hot|validate_addr|Fault|instrument)$')
  if [ -n "$hits" ]; then
    fail "lint: lib/simcore/vm.ml reaches Memory beyond t/hot/validate_addr/Fault/instrument (memory opcodes access the heap inline and call the observer):"
    printf '%s\n' "$hits" >&2
  fi
fi

# --- Rule 8: no hidden runtime calls in the simulator core -----------------
# Blank out comments and string literals (keeping line numbers), then
# look for the banned names as whole identifiers.
strip_comments_strings() {
  awk '{
    out = ""; n = length($0); i = 1
    while (i <= n) {
      c = substr($0, i, 1); c2 = substr($0, i, 2)
      if (instr) {
        if (c == "\\") { i += 2; continue }
        if (c == "\"") instr = 0
      } else if (depth > 0) {
        if (c2 == "(*") { depth++; i += 2; continue }
        if (c2 == "*)") { depth--; i += 2; continue }
      } else if (c2 == "(*") { depth = 1; i += 2; continue }
      else if (substr($0, i, 3) == "'"'"'\"'"'"'") { out = out "   "; i += 3; continue }
      else if (c == "\"") instr = 1
      else out = out c
      i++
    }
    print out
  }' "$1"
}

sweeps="rc_baselines/protectors smr/hp acquire_retire/ar"
for name in simcore/memory simcore/memcore simcore/vm simcore/sim simcore/proc \
  simcore/racecheck simcore/sanitizer simcore/profiler simcore/telemetry \
  simcore/alloc simcore/int_set $sweeps smr/he smr/ibr; do
  f=$root/lib/$name.ml
  [ -f "$f" ] || continue
  hits=$(strip_comments_strings "$f" \
    | grep -nE "(^|[^.A-Za-z0-9_'])(min|max|compare)([^A-Za-z0-9_']|\$)|Domain\.self")
  if [ -n "$hits" ]; then
    fail "lint: polymorphic min/max/compare or Domain.self in $f (use Int.min/Int.max, an explicit test or a typed comparator):"
    printf '%s\n' "$hits" >&2
  fi
done

for name in $sweeps; do
  f=$root/lib/$name.ml
  [ -f "$f" ] || continue
  hits=$(strip_comments_strings "$f" | grep -nE "(^|[^.A-Za-z0-9_'])Hashtbl\.")
  if [ -n "$hits" ]; then
    fail "lint: Hashtbl in the sweep $f (collect guarded or announced addresses into a reused open-addressed int table):"
    printf '%s\n' "$hits" >&2
  fi
done

# --- Rule 9: one environment reader ----------------------------------------
for dir in lib bin test tools; do
  [ -d "$root/$dir" ] || continue
  # shellcheck disable=SC2044
  for f in $(find "$root/$dir" -name '*.ml'); do
    [ "$f" = "$root/bin/repro.ml" ] && continue
    hits=$(grep -nE '(^|[^.A-Za-z0-9_])Sys\.getenv' "$f" 2>/dev/null)
    if [ -n "$hits" ]; then
      fail "lint: Sys.getenv outside bin/repro.ml in $f (resolve the environment through Config.resolve and pass a Config.t):"
      printf '%s\n' "$hits" >&2
    fi
  done
done

# --- Rule 10: no dead exports ----------------------------------------------
# One index over every .ml/.mli (comments and strings blanked), one line
# per fact: "B file name" for each bare identifier, "Q file X.name" for
# each qualified value path (X the module right before the name), "O
# file X" for each module opened or included (open, include, let open,
# a local X.( open), "A file Y X" for each alias module Y = ...X. Then
# each lib/**/*.mli val is live when some file other than its own
# module's names it as X.name, as Y.name for an alias Y of X, or bare
# while opening X or the .mli's module. X is the module the val is
# declared in: the .mli's, or a nested module X : sig ... end in it.
# Vals inside a module type or a functor's signature are reached
# through modules that do not name X, so a bare use anywhere counts.
if [ -d "$root/lib" ]; then
  idx=$(mktemp)
  for dir in lib bin examples perfbench tools test; do
    [ -d "$root/$dir" ] || continue
    # shellcheck disable=SC2044
    for f in $(find "$root/$dir" -name '*.ml' -o -name '*.mli'); do
      strip_comments_strings "$f" > "$idx.src"
      grep -oE "[A-Za-z_][A-Za-z0-9_']*" "$idx.src" | sed "s|^|B $f |"
      grep -oE "[A-Z][A-Za-z0-9_']*\.[a-z_][A-Za-z0-9_']*" "$idx.src" \
        | sed "s|^|Q $f |"
      grep -oE "(open!?|include)[[:space:]]+[A-Z][A-Za-z0-9_'.]*" "$idx.src" \
        | sed -E "s|.*[[:space:].]([A-Z][A-Za-z0-9_']*)$|O $f \1|"
      grep -oE "[A-Z][A-Za-z0-9_']*\.[({[]" "$idx.src" \
        | sed -E "s|^(.*)\..$|O $f \1|"
      grep -oE "module[[:space:]]+[A-Z][A-Za-z0-9_']*[[:space:]]*=[[:space:]]*[A-Z][A-Za-z0-9_'.]*" "$idx.src" \
        | sed -E "s|^module[[:space:]]+([A-Za-z0-9_']+)[[:space:]]*=.*[^A-Za-z0-9_']([A-Z][A-Za-z0-9_']*)$|A $f \1 \2|;
                  s|^module[[:space:]]+([A-Za-z0-9_']+)[[:space:]]*=[[:space:]]*([A-Z][A-Za-z0-9_']*)$|A $f \1 \2|"
    done
  done | sort -u > "$idx"
  # One "VAL mli line name module bare" line per val.
  # shellcheck disable=SC2044
  vals=$(for f in $(find "$root/lib" -name '*.mli'); do
      base=$(basename "$f" .mli)
      strip_comments_strings "$f" | awk -v f="$f" \
        -v m="$(printf '%s' "$base" | cut -c1 | tr a-z A-Z)$(printf '%s' "$base" | cut -c2-)" '
        { line = $0; pre = ""
          while (match(line, /(^|[^A-Za-z0-9_'"'"'])(sig|end)([^A-Za-z0-9_'"'"']|$)/)) {
            tok = substr(line, RSTART, RLENGTH); pre = pre substr(line, 1, RSTART)
            line = substr(line, RSTART + RLENGTH - 1)
            if (tok ~ /sig/) {
              if (pre ~ /module[ \t]+type/) k = "T"
              else if (pre ~ /^[ \t]*module[ \t]+[A-Z][A-Za-z0-9_]*[ \t]*:[ \t]*$/ ||
                       pre ~ /^[ \t]*module[ \t]+[A-Z][A-Za-z0-9_]*[ \t]*:[ \t]*.$/) {
                k = pre; sub(/^[ \t]*module[ \t]+/, "", k); sub(/[ \t:].*$/, "", k)
              } else k = "T"
              st[++n] = k
            } else if (n > 0) n--
          }
          if ($0 ~ /^[ \t]*val[ \t]+[a-z_][A-Za-z0-9_'"'"']*/) {
            name = $0; sub(/^[ \t]*val[ \t]+/, "", name); sub(/[^A-Za-z0-9_'"'"'].*$/, "", name)
            x = m; bare = 0
            for (i = 1; i <= n; i++) if (st[i] == "T") bare = 1; else x = st[i]
            print "VAL", f, NR, name, x, m, bare
          } }'
    done)
  hits=$(printf '%s\n' "$vals" | awk -v idx="$idx" '
      BEGIN {
        while ((getline l < idx) > 0) {
          split(l, p, " ")
          if (p[1] == "B") bare[p[3]] = bare[p[3]] " " p[2] " "
          else if (p[1] == "Q") qual[p[3]] = qual[p[3]] " " p[2] " "
          else if (p[1] == "O") opened[p[3]] = opened[p[3]] " " p[2] " "
          else if (p[1] == "A") alias[p[4]] = alias[p[4]] " " p[2] ":" p[3]
        } }
      function other(f) { return f != mli && f != ml }
      function named(list, x,   n, fs, i) {
        n = split(list, fs, " ")
        for (i = 1; i <= n; i++) if (other(fs[i])) return 1
        return 0 }
      $1 == "VAL" {
        mli = $2; ml = substr(mli, 1, length(mli) - 1); name = $4; x = $5; m = $6
        live = 0
        if ($7 == 1) live = named(bare[name])
        else {
          live = named(qual[x "." name])
          n = split(alias[x], as, " ")
          for (i = 1; i <= n && !live; i++) {
            split(as[i], fy, ":")
            if (other(fy[1]) && index(qual[fy[2] "." name], " " fy[1] " ")) live = 1
          }
          n = split(opened[x] " " opened[m], os, " ")
          for (i = 1; i <= n && !live; i++)
            if (other(os[i]) && index(bare[name], " " os[i] " ")) live = 1
        }
        if (!live) print mli ":" $3 ": val " name }')
  rm -f "$idx" "$idx.src"
  if [ -n "$hits" ]; then
    fail "lint: exported val named nowhere outside its own module (delete it, or drop it from the .mli):"
    printf '%s\n' "$hits" >&2
  fi
fi

# --- Rule 11: one compiled driver ------------------------------------------
if [ -d "$root/lib" ]; then
  # shellcheck disable=SC2044
  for f in $(find "$root/lib" -name '*.ml'); do
    case $f in
      "$root"/lib/workload/measure.ml|"$root"/lib/simcore/sim.ml) continue ;;
    esac
    hits=$(strip_comments_strings "$f" | grep -nE "[~?]coroutine([^A-Za-z0-9_']|\$)")
    if [ -n "$hits" ]; then
      fail "lint: a coroutine passed to Sim.run outside lib/workload/measure.ml in $f (run closure code in the closure driver; compiled op bodies go through Measure.run_point's ~compiled):"
      printf '%s\n' "$hits" >&2
    fi
  done
fi

# --- Rule 12: hot paths read the held env cell -----------------------------
# The enclosing top-level binding of each hit decides: a line starting
# with "let" or "and" at column 0 names it.
ambient='Proc\.(get_env|pay|self|global_now)([^A-Za-z0-9_]|$)'
for name in memory telemetry recorder; do
  f=$root/lib/simcore/$name.ml
  [ -f "$f" ] || continue
  hits=$(strip_comments_strings "$f" | awk -v pat="$ambient" -v file="$name" '
    /^(let|and)[ \t]/ {
      cur = $0; sub(/^(let|and)([ \t]+rec)?[ \t]*(\[@[^]]*\])?[ \t]*/, "", cur)
      sub(/[^A-Za-z0-9_].*$/, "", cur) }
    $0 ~ pat {
      if (file == "memory" && cur ~ /^(mem_fault|wrong_domain|file|race_noted)$/) next
      print NR ": " $0 }')
  if [ -n "$hits" ]; then
    fail "lint: ambient env lookup on a hot path in $f (read the env from the held Proc.here cell and pay with Proc.pay_env):"
    printf '%s\n' "$hits" >&2
  fi
done

# --- Self-test: the linter must catch seeded violations ---------------------
if [ "${1:-}" = "--self-test" ]; then
  if [ $status -ne 0 ]; then
    echo "lint --self-test: shipped tree is dirty; fix it first" >&2
    exit 1
  fi
  tmp=$(mktemp -d)
  trap 'rm -rf "$tmp"' EXIT

  check_catches() {
    # $1 = description, stdin provided the seeded tree already under $tmp
    if LINT_ROOT=$tmp sh "$0" >/dev/null 2>&1; then
      echo "lint --self-test FAILED: did not catch $1" >&2
      exit 1
    fi
    rm -rf "$tmp"/lib "$tmp"/test
  }

  check_passes() {
    # $1 = description; the seeded tree under $tmp must lint clean
    if ! LINT_ROOT=$tmp sh "$0" >/dev/null 2>&1; then
      echo "lint --self-test FAILED: flagged $1" >&2
      exit 1
    fi
    rm -rf "$tmp"/lib "$tmp"/test
  }

  mkdir -p "$tmp/lib/simcore"
  echo 'let f x = Obj.magic x' > "$tmp/lib/simcore/bad.ml"
  check_catches "Obj.magic under lib/"

  mkdir -p "$tmp/lib/workload"
  echo 'let t () = Unix.gettimeofday ()' > "$tmp/lib/workload/bad.ml"
  check_catches "Unix.gettimeofday under lib/"

  # lib/service is covered like every lib/ subtree: the serving
  # benchmark's traffic, queueing and latency accounting must be pure
  # functions of the seed (bit-identical across --jobs and fastpath
  # modes), so ambient time or randomness there is a determinism bug.
  mkdir -p "$tmp/lib/service"
  echo 'let jitter () = Random.int 10' > "$tmp/lib/service/bad.ml"
  check_catches "Random. under lib/service/"

  mkdir -p "$tmp/lib/cds"
  echo 'let g mem a = Memory.free mem a' > "$tmp/lib/cds/bad.ml"
  check_catches "direct Memory.free under lib/cds/"

  mkdir -p "$tmp/test"
  echo 'let g mem a = M.free mem a' > "$tmp/test/bad.ml"
  check_catches "direct M.free under test/"

  mkdir -p "$tmp/lib/workload"
  echo 'let f () = Effect.perform Nope' > "$tmp/lib/workload/bad.ml"
  check_catches "Effect.perform under lib/workload/"

  mkdir -p "$tmp/lib/simcore"
  echo 'let h f = Effect.Deep.match_with f () handler' > "$tmp/lib/simcore/bad.ml"
  check_catches "Effect.Deep handler outside proc/sim/vm"

  mkdir -p "$tmp/lib/simcore"
  echo 'let f () = Effect.perform (Pay 1)' > "$tmp/lib/simcore/proc.ml"
  check_passes "Effect.perform in proc.ml"

  mkdir -p "$tmp/lib/simcore"
  echo 'let report () = Printf.printf "x\n"' > "$tmp/lib/simcore/bad.ml"
  check_catches "Printf.printf under lib/simcore/"

  mkdir -p "$tmp/lib/service"
  echo 'let report () = print_string "x"' > "$tmp/lib/service/bad.ml"
  check_catches "print_string under lib/service/"

  # The escape hatch and the allowed directories must pass.
  mkdir -p "$tmp/lib/cds" "$tmp/lib/smr"
  echo 'let g mem a = Memory.free mem a (* lint: allow-free *)' > "$tmp/lib/cds/ok.ml"
  echo 'let g mem a = M.free mem a' > "$tmp/lib/smr/ok.ml"
  check_passes "an allowed free"

  mkdir -p "$tmp/lib/cds"
  echo 'let steal t = t.free_heads.(3)' > "$tmp/lib/cds/bad.ml"
  check_catches "free_heads access under lib/cds/"

  mkdir -p "$tmp/test"
  echo 'let n = pop_free t 4' > "$tmp/test/bad.ml"
  check_catches "pop_free under test/"

  # The allocator seam itself must pass.
  mkdir -p "$tmp/lib/simcore"
  echo 'let pop t s = if s < 512 then t.free_heads.(s) else 0' > "$tmp/lib/simcore/alloc.ml"
  check_passes "freelist internals in lib/simcore/alloc.ml"

  mkdir -p "$tmp/lib/cds"
  echo 'let racy = Atomic.make 0' > "$tmp/lib/cds/bad.ml"
  check_catches "Atomic. under lib/cds/"

  mkdir -p "$tmp/lib/workload"
  echo 'let d = Domain.spawn (fun () -> 0)' > "$tmp/lib/workload/bad.ml"
  check_catches "Domain. under lib/workload/"

  # The escape hatch and the pool itself must pass.
  mkdir -p "$tmp/lib/simcore"
  echo 'let k = Domain.DLS.new_key (fun () -> 0) (* lint: allow-atomic *)' > "$tmp/lib/simcore/ok.ml"
  echo 'let d = Domain.spawn (fun () -> Atomic.make 0)' > "$tmp/lib/simcore/domain_pool.ml"
  check_passes "an allowed Domain./Atomic. use"

  # Print escapes: the allow-print annotation, a designated report
  # module, and a formatter-taking pp_print_string must all pass.
  mkdir -p "$tmp/lib/simcore" "$tmp/lib/workload"
  echo 'let dump () = print_string "x" (* lint: allow-print *)' > "$tmp/lib/simcore/ok.ml"
  echo 'let render () = Printf.printf "x\n"' > "$tmp/lib/workload/tables.ml"
  echo 'let render () = print_endline "figure R"' > "$tmp/lib/workload/fig_robust.ml"
  echo 'let pp ppf = Format.pp_print_string ppf "x"' > "$tmp/lib/simcore/ok2.ml"
  check_passes "an allowed print"

  mkdir -p "$tmp/lib/simcore"
  echo 'let read mem a = Memory.read mem a' > "$tmp/lib/simcore/vm.ml"
  check_catches "Memory.read in lib/simcore/vm.ml"

  # The names the dispatch loop needs, and Memory.read elsewhere, pass.
  mkdir -p "$tmp/lib/simcore"
  cat > "$tmp/lib/simcore/vm.ml" <<'VM'
type f = { mem : Memory.t }
let hc fr = Memory.hot fr.mem
let v fr a = Memory.validate_addr fr.mem a
let obs fr env hook a = Memory.instrument fr.mem env ~write:false hook a
let is_fault = function Memory.Fault _ -> true | _ -> false
VM
  echo 'let read mem a = Memory.read mem a' > "$tmp/lib/simcore/ok.ml"
  check_passes "an allowed Memory reference"

  mkdir -p "$tmp/lib/simcore"
  echo 'let obs2 fr env a = Memory.instrument_pair fr.mem env a' > "$tmp/lib/simcore/vm.ml"
  check_catches "Memory.instrument_pair in lib/simcore/vm.ml"

  # Rule 8: a polymorphic clamp seeded into a copy of racecheck.ml.
  mkdir -p "$tmp/lib/simcore"
  if [ -f "$root/lib/simcore/racecheck.ml" ]; then
    cp "$root/lib/simcore/racecheck.ml" "$tmp/lib/simcore/racecheck.ml"
  fi
  echo 'let clamp x = max 0 x' >> "$tmp/lib/simcore/racecheck.ml"
  check_catches "max 0 x in lib/simcore/racecheck.ml"

  mkdir -p "$tmp/lib/simcore"
  echo 'let d () = (Domain.self () :> int) (* lint: allow-atomic *)' > "$tmp/lib/simcore/sim.ml"
  check_catches "Domain.self in lib/simcore/sim.ml"

  mkdir -p "$tmp/lib/simcore"
  echo 'let s l = List.sort compare l' > "$tmp/lib/simcore/profiler.ml"
  check_catches "List.sort compare in lib/simcore/profiler.ml"

  # A fresh hash table per sweep, seeded into a copy of hp.ml.
  mkdir -p "$tmp/lib/smr"
  if [ -f "$root/lib/smr/hp.ml" ]; then
    cp "$root/lib/smr/hp.ml" "$tmp/lib/smr/hp.ml"
  fi
  echo 'let guarded () = Hashtbl.create 64' >> "$tmp/lib/smr/hp.ml"
  check_catches "Hashtbl.create in lib/smr/hp.ml"

  # The announced multiset of a pass, seeded into a copy of ar.ml.
  mkdir -p "$tmp/lib/acquire_retire"
  if [ -f "$root/lib/acquire_retire/ar.ml" ]; then
    cp "$root/lib/acquire_retire/ar.ml" "$tmp/lib/acquire_retire/ar.ml"
  fi
  echo 'let plist () = Hashtbl.create 64' >> "$tmp/lib/acquire_retire/ar.ml"
  check_catches "Hashtbl.create in lib/acquire_retire/ar.ml"

  mkdir -p "$tmp/lib/acquire_retire"
  echo 'let work w = max 1 w' > "$tmp/lib/acquire_retire/ar.ml"
  check_catches "max 1 w in lib/acquire_retire/ar.ml"

  mkdir -p "$tmp/lib/rc_baselines"
  echo 'let bound n = max n 8' > "$tmp/lib/rc_baselines/protectors.ml"
  check_catches "max n 8 in lib/rc_baselines/protectors.ml"

  # A polymorphic sort of the era snapshot, seeded into a copy of he.ml.
  mkdir -p "$tmp/lib/smr"
  if [ -f "$root/lib/smr/he.ml" ]; then
    cp "$root/lib/smr/he.ml" "$tmp/lib/smr/he.ml"
  fi
  echo 'let sort_eras a = Array.sort compare a' >> "$tmp/lib/smr/he.ml"
  check_catches "Array.sort compare in lib/smr/he.ml"

  mkdir -p "$tmp/lib/smr"
  echo 'let lag e lo = max 0 (e - lo)' > "$tmp/lib/smr/ibr.ml"
  check_catches "max 0 in lib/smr/ibr.ml"

  # Typed forms, comments, strings and files outside the list pass.
  mkdir -p "$tmp/lib/simcore" "$tmp/lib/workload"
  cat > "$tmp/lib/simcore/racecheck.ml" <<'RC'
(* the polymorphic max 0 x is banned here *)
let clamp x = if x < 0 then 0 else Int.max x 1
let k = "/max" and max_int' = max_int and q = '"' and r = String.compare
let s l = List.sort Int.compare l
RC
  echo 'let m a b = max a b' > "$tmp/lib/workload/ok.ml"
  mkdir -p "$tmp/lib/smr"
  echo '(* no Hashtbl here *) let s = "Hashtbl." and t = Simcore.Int_set.create ()' > "$tmp/lib/smr/hp.ml"
  echo 'let h = Hashtbl.create 8' > "$tmp/lib/smr/ebr.ml"
  check_passes "typed comparisons and polymorphic ones elsewhere"

  # Rule 9: an environment read seeded into a copy of fig6.ml.
  mkdir -p "$tmp/lib/workload"
  if [ -f "$root/lib/workload/fig6.ml" ]; then
    cp "$root/lib/workload/fig6.ml" "$tmp/lib/workload/fig6.ml"
  fi
  echo 'let vm () = Sys.getenv_opt "REPRO_VM" <> Some "0"' >> "$tmp/lib/workload/fig6.ml"
  check_catches "Sys.getenv_opt in lib/workload/fig6.ml"

  mkdir -p "$tmp/test"
  echo 'let seed () = Sys.getenv_opt "SEED"' > "$tmp/test/bad.ml"
  check_catches "Sys.getenv_opt in test/"

  mkdir -p "$tmp/bin"
  echo 'let c = Config.resolve ~getenv:Sys.getenv_opt ()' > "$tmp/bin/repro.ml"
  check_passes "Sys.getenv_opt in bin/repro.ml"
  rm -rf "$tmp/bin"

  # Rule 10: an export nothing outside its module names, planted in a
  # copy of the whole tree.
  for dir in bin examples perfbench tools; do
    if [ -d "$root/$dir" ]; then cp -R "$root/$dir" "$tmp/$dir"; fi
  done
  cp -R "$root/lib" "$root/test" "$tmp/"
  echo 'let uncalled_export x = x + 1' >> "$tmp/lib/simcore/config.ml"
  echo "val uncalled_export : int -> int" >> "$tmp/lib/simcore/config.mli"
  check_catches "an uncalled export in lib/simcore/config.mli"
  rm -rf "$tmp"/bin "$tmp"/examples "$tmp"/perfbench "$tmp"/tools

  # Named only in a comment and a string is not named; a test caller is.
  mkdir -p "$tmp/lib/simcore"
  echo 'val planted : int' > "$tmp/lib/simcore/planted.mli"
  echo 'let planted = 1' > "$tmp/lib/simcore/planted.ml"
  echo '(* planted *) let s = "planted"' > "$tmp/lib/simcore/other.ml"
  check_catches "an export named only in a comment and a string"

  mkdir -p "$tmp/lib/simcore" "$tmp/test"
  echo 'val planted : int' > "$tmp/lib/simcore/planted.mli"
  echo 'let planted = 1' > "$tmp/lib/simcore/planted.ml"
  echo 'let y = Simcore.Planted.planted' > "$tmp/test/t.ml"
  check_passes "an export a test calls"

  # A bare name in a file that neither opens nor aliases the module is
  # some other binding (here a label), not a use.
  mkdir -p "$tmp/lib/simcore"
  echo 'val planted : int' > "$tmp/lib/simcore/planted.mli"
  echo 'let planted = 1' > "$tmp/lib/simcore/planted.ml"
  echo 'let f ~planted = planted + 1' > "$tmp/lib/simcore/other.ml"
  check_catches "an export named only unqualified in an unrelated file"

  mkdir -p "$tmp/lib/simcore" "$tmp/test"
  printf 'val planted : int\nval aliased : int\nmodule Inner : sig\n  val nested : int\nend\n' \
    > "$tmp/lib/simcore/planted.mli"
  echo 'let planted = 1 let aliased = 2 module Inner = struct let nested = 3 end' \
    > "$tmp/lib/simcore/planted.ml"
  echo 'open Simcore.Planted let y = planted' > "$tmp/test/t.ml"
  echo 'module P = Simcore.Planted let z = P.aliased + P.Inner.nested' > "$tmp/test/u.ml"
  check_passes "exports used through an open, an alias and a nested module"

  mkdir -p "$tmp/lib/simcore" "$tmp/test"
  printf 'module Inner : sig\n  val nested : int\nend\n' > "$tmp/lib/simcore/planted.mli"
  echo 'module Inner = struct let nested = 3 end' > "$tmp/lib/simcore/planted.ml"
  echo 'let nested = 4 let w = Simcore.Planted.nested' > "$tmp/test/t.ml"
  check_catches "a nested export used only outside its nested module"

  mkdir -p "$tmp/lib/simcore"
  printf 'module type S = sig\n  val planted : int\nend\n' > "$tmp/lib/simcore/planted.mli"
  echo 'module type S = sig val planted : int end' > "$tmp/lib/simcore/planted.ml"
  echo 'let planted = 1' > "$tmp/lib/simcore/other.ml"
  check_passes "a module type val implemented elsewhere"

  # Rule 11: a compiled request loop outside the measurement driver.
  mkdir -p "$tmp/lib/service"
  echo 'let r body = Sim.run ~procs:1 ~coroutine:(fun _ -> None) body' > "$tmp/lib/service/bench.ml"
  check_catches "~coroutine in lib/service/bench.ml"

  mkdir -p "$tmp/lib/workload" "$tmp/lib/simcore" "$tmp/lib/service"
  if [ -f "$root/lib/workload/measure.ml" ]; then
    cp "$root/lib/workload/measure.ml" "$tmp/lib/workload/measure.ml"
  fi
  if [ -f "$root/lib/simcore/sim.ml" ]; then
    cp "$root/lib/simcore/sim.ml" "$tmp/lib/simcore/sim.ml"
  fi
  echo '(* no ~coroutine here *) let s = "~coroutine" and coroutine = 1' > "$tmp/lib/service/ok.ml"
  check_passes "measure.ml's compiled driver"

  # Rule 12: an ambient lookup seeded into alloc and free of a copy of
  # memory.ml, and into telemetry.ml and recorder.ml.
  mkdir -p "$tmp/lib/simcore"
  if [ -f "$root/lib/simcore/memory.ml" ]; then
    cp "$root/lib/simcore/memory.ml" "$tmp/lib/simcore/memory.ml"
  fi
  echo 'let alloc t ~tag ~size = ignore (t, tag, size); Proc.self ()' >> "$tmp/lib/simcore/memory.ml"
  check_catches "Proc.self in memory.ml's alloc"

  mkdir -p "$tmp/lib/simcore"
  printf 'let free t a =\n  ignore (t, a);\n  Proc.pay 3\n' > "$tmp/lib/simcore/memory.ml"
  check_catches "Proc.pay in memory.ml's free"

  mkdir -p "$tmp/lib/simcore"
  echo 'let[@inline] pay_access t = match Proc.get_env () with _ -> t' > "$tmp/lib/simcore/memory.ml"
  check_catches "Proc.get_env in memory.ml's pay_access"

  mkdir -p "$tmp/lib/simcore"
  echo 'let add c n = c.(Proc.self () + 1) <- n' > "$tmp/lib/simcore/telemetry.ml"
  check_catches "Proc.self in telemetry.ml"

  mkdir -p "$tmp/lib/simcore"
  echo 'let record t = t.(0) <- Proc.global_now ()' > "$tmp/lib/simcore/recorder.ml"
  check_catches "Proc.global_now in recorder.ml"

  # The real memory.ml (whose mem_fault reads Proc.self), the exempt
  # helpers, pay_env and mentions in comments and strings pass.
  mkdir -p "$tmp/lib/simcore"
  if [ -f "$root/lib/simcore/memory.ml" ]; then
    cp "$root/lib/simcore/memory.ml" "$tmp/lib/simcore/memory.ml"
  fi
  cat >> "$tmp/lib/simcore/memory.ml" <<'MEM'
let file t label = ignore (t, label, Proc.self (), Proc.global_now ())
and race_noted t = ignore (t, Proc.self ())
(* free used to call Proc.pay and Proc.self *)
let free_note e n = Proc.pay_env e n; ignore "Proc.get_env ()"
MEM
  echo 'let add c n = ignore "Proc.self ()"; c.(0) <- n (* not Proc.self *)' > "$tmp/lib/simcore/telemetry.ml"
  check_passes "memory.ml's fault and report helpers"

  echo "lint --self-test: ok"
  exit 0
fi

if [ $status -eq 0 ]; then
  echo "lint: ok"
fi
exit $status
