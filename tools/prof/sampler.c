/* A SIGPROF stack sampler, loaded with LD_PRELOAD into the one process
   it profiles (tools/prof.py builds and drives it).

   At load it arms ITIMER_PROF, which sends SIGPROF after every
   millisecond of CPU time the process consumes (the kernel delivers it
   at its tick, so the effective rate can be lower). The handler records the interrupted program
   counter, read from the signal context, and the return addresses above
   it, found with _Unwind_Backtrace, into a fixed array; it allocates
   nothing. At exit the samples go to PROF_OUT.samples, one stack per
   line as hexadecimal addresses, innermost first ("?" ends a stack the
   unwinder could not finish), and a copy of /proc/self/maps goes to
   PROF_OUT.maps, so the addresses can be turned into symbols offline.

   Without PROF_OUT in the environment the library does nothing. */

#define _GNU_SOURCE
#include <fcntl.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>
#include <unwind.h>

#define MAX_SAMPLES 200000
#define MAX_DEPTH 48

struct sample {
  int depth;       /* frames kept */
  int truncated;   /* the unwinder stopped before the outermost frame */
  uintptr_t pc[MAX_DEPTH];
};

static struct sample *samples;
static volatile int n_samples;
static char out_prefix[512];

struct walk {
  uintptr_t raw[MAX_DEPTH + 8];
  int n;
  int stopped; /* _Unwind_Backtrace ended with an error */
};

static _Unwind_Reason_Code on_frame(struct _Unwind_Context *ctx, void *arg) {
  struct walk *w = arg;
  if (w->n >= (int)(sizeof w->raw / sizeof w->raw[0])) return _URC_END_OF_STACK;
  w->raw[w->n++] = (uintptr_t)_Unwind_GetIP(ctx);
  return _URC_NO_REASON;
}

static uintptr_t interrupted_pc(void *uc) {
#if defined(__x86_64__)
  return (uintptr_t)((ucontext_t *)uc)->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  return (uintptr_t)((ucontext_t *)uc)->uc_mcontext.pc;
#else
  (void)uc;
  return 0;
#endif
}

static void on_sigprof(int sig, siginfo_t *info, void *uc) {
  (void)sig;
  (void)info;
  int i = __atomic_fetch_add(&n_samples, 1, __ATOMIC_RELAXED);
  if (i >= MAX_SAMPLES) return;
  struct sample *s = &samples[i];
  struct walk w = {.n = 0};
  _Unwind_Reason_Code rc = _Unwind_Backtrace(on_frame, &w);
  w.stopped = rc != _URC_END_OF_STACK;
  /* The walk starts in this handler and passes the signal trampoline;
     the interrupted frame is the one whose address is the context's
     program counter. Keep it and everything above it. */
  uintptr_t pc = interrupted_pc(uc);
  int from = -1;
  for (int k = 0; k < w.n; k++)
    if (w.raw[k] == pc) {
      from = k;
      break;
    }
  s->depth = 0;
  if (from < 0) {
    s->pc[s->depth++] = pc;
    s->truncated = 1;
    return;
  }
  for (int k = from; k < w.n && s->depth < MAX_DEPTH; k++) s->pc[s->depth++] = w.raw[k];
  s->truncated = w.stopped || from + s->depth < w.n;
}

static void copy_file(const char *from, const char *to) {
  int in = open(from, O_RDONLY);
  if (in < 0) return;
  FILE *out = fopen(to, "w");
  if (out) {
    char buf[8192];
    ssize_t n;
    while ((n = read(in, buf, sizeof buf)) > 0) fwrite(buf, 1, (size_t)n, out);
    fclose(out);
  }
  close(in);
}

static void dump(void) {
  struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  signal(SIGPROF, SIG_IGN);
  char path[600];
  snprintf(path, sizeof path, "%s.samples", out_prefix);
  FILE *f = fopen(path, "w");
  if (f) {
    int n = n_samples < MAX_SAMPLES ? n_samples : MAX_SAMPLES;
    for (int i = 0; i < n; i++) {
      for (int k = 0; k < samples[i].depth; k++)
        fprintf(f, k ? " %lx" : "%lx", (unsigned long)samples[i].pc[k]);
      fputs(samples[i].truncated ? " ?\n" : "\n", f);
    }
    fclose(f);
  }
  snprintf(path, sizeof path, "%s.maps", out_prefix);
  copy_file("/proc/self/maps", path);
}

__attribute__((constructor)) static void start(void) {
  const char *prefix = getenv("PROF_OUT");
  if (!prefix || !*prefix) return;
  /* Children (a shell, a compiler) must not profile into the same files. */
  unsetenv("LD_PRELOAD");
  snprintf(out_prefix, sizeof out_prefix, "%s", prefix);
  samples = calloc(MAX_SAMPLES, sizeof *samples);
  if (!samples) return;
  /* The first unwind loads and initializes the unwinder; do it here, not
     in the handler. */
  struct walk w = {.n = 0};
  _Unwind_Backtrace(on_frame, &w);
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  atexit(dump);
  struct itimerval on = {{0, 1000}, {0, 1000}};
  setitimer(ITIMER_PROF, &on, NULL);
}
