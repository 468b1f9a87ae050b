/* A live-heap census to LD_PRELOAD into an unmodified binary.
 *
 *   gcc -O2 -shared -fPIC -o libheapcensus.so census.c
 *   LD_PRELOAD=./libheapcensus.so HEAP_OUT=run.heap <binary> <args>
 *
 * It wraps malloc, calloc, realloc, free, posix_memalign (and memalign,
 * aligned_alloc, valloc, which would otherwise bypass the count), forwards
 * each to glibc's __libc_* function and keeps the live chunks per usable
 * size, as malloc_usable_size reports it: the request rounded up to glibc's
 * 16-byte chunk granularity, minus the 8-byte header (a 544-byte request
 * lives in a 552-byte chunk). At exit it writes to $HEAP_OUT the histogram
 * as it stood at the peak of live bytes (within SNAP_STEP of it), largest
 * share first. The layout of the heap is left exactly as glibc makes it.
 * Counts are relaxed atomics; the snapshot assumes one allocating thread.
 * Linux with glibc only. */
#define _GNU_SOURCE
#include <errno.h>
#include <fcntl.h>
#include <malloc.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>

void *__libc_malloc(size_t);
void *__libc_calloc(size_t, size_t);
void *__libc_realloc(void *, size_t);
void __libc_free(void *);
void *__libc_memalign(size_t, size_t);

#define SMALL_MAX (128ul << 10)      /* exact buckets up to 128 KiB, 8 B apart */
#define NSMALL (SMALL_MAX / 8 + 1)
#define NBIG 64                      /* above that: one bucket per power of two */
#define SNAP_STEP (64ul << 10)       /* re-snapshot after 64 KiB of new peak */

static unsigned long live_count[NSMALL], big_count[NBIG], big_bytes[NBIG];
static unsigned long peak_count[NSMALL], peak_big_count[NBIG], peak_big_bytes[NBIG];
static unsigned long live, peak, snap, calls;

static void note(size_t usable, long sign) {
    __atomic_add_fetch(&calls, 1, __ATOMIC_RELAXED);
    if (usable <= SMALL_MAX) {
        __atomic_add_fetch(&live_count[usable / 8], sign, __ATOMIC_RELAXED);
    } else {
        int b = 63 - __builtin_clzl(usable);
        __atomic_add_fetch(&big_count[b], sign, __ATOMIC_RELAXED);
        __atomic_add_fetch(&big_bytes[b], sign * (long)usable, __ATOMIC_RELAXED);
    }
    unsigned long now = __atomic_add_fetch(&live, sign * (long)usable, __ATOMIC_RELAXED);
    if (sign > 0 && now > peak) {
        peak = now;
        if (now >= snap + SNAP_STEP) {
            snap = now;
            memcpy(peak_count, live_count, sizeof live_count);
            memcpy(peak_big_count, big_count, sizeof big_count);
            memcpy(peak_big_bytes, big_bytes, sizeof big_bytes);
        }
    }
}

static void *counted(void *p) {
    if (p)
        note(malloc_usable_size(p), 1);
    return p;
}

void *malloc(size_t n) { return counted(__libc_malloc(n)); }
void *calloc(size_t n, size_t size) { return counted(__libc_calloc(n, size)); }
void *memalign(size_t align, size_t n) { return counted(__libc_memalign(align, n)); }
void *aligned_alloc(size_t align, size_t n) { return counted(__libc_memalign(align, n)); }
void *valloc(size_t n) { return counted(__libc_memalign(sysconf(_SC_PAGESIZE), n)); }

void free(void *p) {
    if (p)
        note(malloc_usable_size(p), -1);
    __libc_free(p);
}

void *realloc(void *p, size_t n) {
    size_t old = p ? malloc_usable_size(p) : 0;
    void *q = __libc_realloc(p, n);
    if (q || n == 0) { /* on failure the old chunk stays live */
        if (p)
            note(old, -1);
        counted(q);
    }
    return q;
}

int posix_memalign(void **out, size_t align, size_t n) {
    if (align % sizeof(void *) || (align & (align - 1)))
        return EINVAL;
    void *p = counted(__libc_memalign(align, n));
    if (!p)
        return ENOMEM;
    *out = p;
    return 0;
}

struct row { unsigned long size, count, bytes; int floor; };

static int by_bytes(const void *a, const void *b) {
    const struct row *x = a, *y = b;
    return (x->bytes < y->bytes) - (x->bytes > y->bytes);
}

__attribute__((destructor)) static void report(void) {
    const char *path = getenv("HEAP_OUT");
    if (!path)
        return;
    /* static: a row table on the stack or the heap would disturb either */
    static struct row rows[NSMALL + NBIG];
    size_t n = 0;
    unsigned long total = 0;
    for (size_t i = 0; i < NSMALL; i++)
        if (peak_count[i])
            rows[n++] = (struct row){i * 8, peak_count[i], peak_count[i] * i * 8, 0};
    for (int b = 0; b < NBIG; b++)
        if (peak_big_count[b])
            rows[n++] = (struct row){1ul << b, peak_big_count[b], peak_big_bytes[b], 1};
    for (size_t i = 0; i < n; i++)
        total += rows[i].bytes;
    qsort(rows, n, sizeof *rows, by_bytes);
    int fd = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        return;
    char line[160];
    int len = snprintf(line, sizeof line,
                       "# peak live %lu B (%.2f MiB); histogram at %lu B; %lu calls\n"
                       "# usable_size   chunks        bytes  share\n",
                       peak, peak / 1048576.0, total, calls);
    write(fd, line, len);
    for (size_t i = 0; i < n; i++) {
        /* sizes above 128 KiB are power-of-two floors: ">=" marks them */
        len = snprintf(line, sizeof line, "%s%11lu %9lu %12lu %5.1f%%\n",
                       rows[i].floor ? ">=" : "  ", rows[i].size, rows[i].count,
                       rows[i].bytes, total ? 100.0 * rows[i].bytes / total : 0.0);
        write(fd, line, len);
    }
    close(fd);
}
