/* Sampling PC profiler, loaded with LD_PRELOAD (see pcprof.sh).

   When PCPROF_OUT names a file, a constructor arms ITIMER_PROF every
   PERIOD_US microseconds of CPU time (the kernel tick may space the
   signals wider: about 4 ms at 250 Hz). The SIGPROF handler stores the
   interrupted PC in a static buffer; the timer is process-wide, so
   handlers on several threads may run at once and each reserves its
   index atomically. At exit the main executable's load address and the
   PCs are written to PCPROF_OUT as hex, one per line, and the process's
   memory map is copied to PCPROF_OUT.maps, for report.py to map PCs
   onto `nm` symbols of the executable and of the shared libraries.

   The handler runs on its own signal stack: OCaml 5 runs code on small
   fiber stacks that have no room for a signal frame, so a handler on
   the interrupted stack would overrun it. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1 << 21)
#define PERIOD_US 1000

static unsigned long pcs[MAX_SAMPLES];
static long n_pcs;
static unsigned long exe_base;
static char alt_stack[1 << 16];

static void on_prof(int sig, siginfo_t *si, void *ctx) {
  (void)sig; (void)si;
  long i = __atomic_fetch_add(&n_pcs, 1, __ATOMIC_RELAXED);
  if (i < MAX_SAMPLES) {
#if defined(__x86_64__)
    pcs[i] = (unsigned long)((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    pcs[i] = (unsigned long)((ucontext_t *)ctx)->uc_mcontext.pc;
#endif
  }
}

/* Start of the executable's first mapping, the base PIE offsets add to. */
static unsigned long find_exe_base(void) {
  char exe[4096], line[4096 + 128];
  ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
  FILE *f = fopen("/proc/self/maps", "r");
  unsigned long base = 0;
  if (n <= 0 || !f) return 0;
  exe[n] = '\0';
  while (fgets(line, sizeof line, f)) {
    line[strcspn(line, "\n")] = '\0';
    size_t ll = strlen(line), le = strlen(exe);
    if (ll >= le && strcmp(line + ll - le, exe) == 0) {
      base = strtoul(line, NULL, 16);
      break;
    }
  }
  fclose(f);
  return base;
}

/* Copy /proc/self/maps to OUT.maps: where each shared library was
   loaded, so report.py can name samples outside the executable. */
static void dump_maps(const char *out) {
  char path[4096], buf[1 << 14];
  size_t n;
  if (snprintf(path, sizeof path, "%s.maps", out) >= (int)sizeof path) return;
  FILE *in = fopen("/proc/self/maps", "r");
  FILE *f = in ? fopen(path, "w") : NULL;
  if (f)
    while ((n = fread(buf, 1, sizeof buf, in)) > 0) fwrite(buf, 1, n, f);
  if (f) fclose(f);
  if (in) fclose(in);
}

static void dump(void) {
  const char *out = getenv("PCPROF_OUT");
  FILE *f = out ? fopen(out, "w") : NULL;
  struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  if (!f) return;
  long n = __atomic_load_n(&n_pcs, __ATOMIC_RELAXED);
  if (n > MAX_SAMPLES) n = MAX_SAMPLES;
  fprintf(f, "base %lx\n", exe_base);
  for (long i = 0; i < n; i++) fprintf(f, "%lx\n", pcs[i]);
  fclose(f);
  dump_maps(out);
}

__attribute__((constructor)) static void pcprof_start(void) {
  if (!getenv("PCPROF_OUT")) return;
  exe_base = find_exe_base();
  stack_t ss = {.ss_sp = alt_stack, .ss_size = sizeof alt_stack, .ss_flags = 0};
  sigaltstack(&ss, NULL);
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_ONSTACK | SA_RESTART;
  sigaction(SIGPROF, &sa, NULL);
  atexit(dump);
  struct itimerval it = {{0, PERIOD_US}, {0, PERIOD_US}};
  setitimer(ITIMER_PROF, &it, NULL);
}
