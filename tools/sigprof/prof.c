/* A SIGPROF sampling profiler to LD_PRELOAD into an unmodified binary.
 *
 *   gcc -O2 -shared -fPIC -o libsigprof.so prof.c
 *   LD_PRELOAD=./libsigprof.so PROF_OUT=run.prof <binary> <args>
 *
 * Every millisecond of CPU time the handler stores the interrupted program
 * counter; at exit the memory map and the samples go to $PROF_OUT, for
 * symbolise.py to turn into tables. Does nothing unless PROF_OUT is set.
 * x86-64 Linux only (it reads REG_RIP). */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1ul << 20) /* 17 minutes of CPU at 1 kHz */
static unsigned long *samples; /* untouched pages cost no memory */
static volatile unsigned long count;

static void on_prof(int sig, siginfo_t *info, void *context) {
    (void)sig, (void)info;
    if (count < MAX_SAMPLES)
        samples[count++] = ((ucontext_t *)context)->uc_mcontext.gregs[REG_RIP];
}

__attribute__((constructor)) static void start(void) {
    if (!getenv("PROF_OUT") || !(samples = calloc(MAX_SAMPLES, sizeof *samples)))
        return;
    struct sigaction action = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &action, NULL);
    struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every_ms, NULL);
}

__attribute__((destructor)) static void stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    FILE *out = samples ? fopen(getenv("PROF_OUT"), "w") : NULL;
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    char line[1024];
    while (fgets(line, sizeof line, maps))
        fprintf(out, "M %s", line);
    for (unsigned long i = 0; i < count; i++)
        fprintf(out, "S %lx\n", samples[i]);
    fclose(out);
}
