/*
 * A SIGPROF sampler to preload into one process (LD_PRELOAD).
 *
 * It arms ITIMER_PROF only in a process whose first argument equals
 * $SAMPLER_ARG1 (the benchmark's measured child is `examl-benchmark exec
 * ...`), so the driver process and any other program started with the
 * same environment run untouched. Each tick of the process's own CPU
 * time stores the interrupted program counter; at exit the sampler
 * writes its process's /proc/self/maps and the counters to $SAMPLER_OUT:
 *
 *     maps lines, one line "--", then one hex PC per line.
 *
 * It reads nothing machine-wide. Build: cc -O2 -shared -fPIC -o
 * sampler.so sampler.c (scripts/profile.sh does this).
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 20)

static unsigned long samples[MAX_SAMPLES];
static volatile unsigned long n_samples;
static int armed;

static void on_tick(int sig, siginfo_t *info, void *context) {
    (void)sig;
    (void)info;
    unsigned long i = __atomic_fetch_add(&n_samples, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES)
        samples[i] = (unsigned long)((ucontext_t *)context)->uc_mcontext.gregs[REG_RIP];
}

__attribute__((constructor)) static void start(int argc, char **argv) {
    const char *want = getenv("SAMPLER_ARG1");
    if (!want || !getenv("SAMPLER_OUT") || argc < 2 || strcmp(argv[1], want) != 0)
        return;
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_tick;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGPROF, &sa, NULL) != 0)
        return;
    struct itimerval every = {{0, 1000}, {0, 1000}};
    armed = setitimer(ITIMER_PROF, &every, NULL) == 0;
}

__attribute__((destructor)) static void stop(void) {
    if (!armed)
        return;
    struct itimerval off;
    memset(&off, 0, sizeof off);
    setitimer(ITIMER_PROF, &off, NULL);
    FILE *out = fopen(getenv("SAMPLER_OUT"), "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    char line[4096];
    while (fgets(line, sizeof line, maps))
        fputs(line, out);
    fclose(maps);
    fputs("--\n", out);
    unsigned long n = n_samples < MAX_SAMPLES ? n_samples : MAX_SAMPLES;
    for (unsigned long i = 0; i < n; i++)
        fprintf(out, "%lx\n", samples[i]);
    fclose(out);
}
