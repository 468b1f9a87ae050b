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
 * Linux with glibc only.
 *
 * With HEAP_SITES=1 it also records a backtrace() per allocation and keeps
 * the live bytes per call site (a distinct stack of SITE_DEPTH return
 * addresses), snapshotted with the histogram. The report then ends with one
 * "site" line per call site live at the peak, largest first: its bytes, its
 * chunks and its frames as module+offset, for sites.py to symbolise. A
 * static pointer table maps each live chunk to its site. The unwinding costs
 * about 8x run time, and the tables resident memory for the slots touched. */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <errno.h>
#include <execinfo.h>
#include <fcntl.h>
#include <malloc.h>
#include <stdint.h>
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

/* Call-site mode (HEAP_SITES=1). Chunks map to sites through an
 * open-addressed pointer table with linear probing; sites are interned by
 * their frames in a second one. Both are static: allocating them would
 * disturb the heap being counted. */
#define SITE_DEPTH 12             /* the census's own two or three included */
#define MAX_SITES (1u << 16)
#define SITE_SLOTS (MAX_SITES * 2)     /* intern table, at most half full */
#define PTR_SLOTS (1ul << 22)          /* live chunks tracked, at most 3/4 full */

struct site { void *frames[SITE_DEPTH]; int depth; };
static struct site sites[MAX_SITES];
static unsigned site_of_slot[SITE_SLOTS];  /* site index + 1; 0 = empty */
static unsigned nsites;
static unsigned long site_bytes[MAX_SITES], site_chunks[MAX_SITES];
static unsigned long peak_site_bytes[MAX_SITES], peak_site_chunks[MAX_SITES];
static uintptr_t ptr_key[PTR_SLOTS];       /* 0 = empty */
static unsigned ptr_site[PTR_SLOTS];
static unsigned long tracked, untracked;
static int sites_on;
static char lock;
/* set while the census itself runs: backtrace() may allocate */
static __thread int busy __attribute__((tls_model("initial-exec")));

static size_t ptr_slot(uintptr_t p) {
    return (size_t)(((p >> 4) * 0x9e3779b97f4a7c15ull) >> (64 - 22));
}

static unsigned intern(void **frames, int depth) {
    unsigned long h = 0xcbf29ce484222325ul;
    for (int i = 0; i < depth; i++)
        h = (h ^ (uintptr_t)frames[i]) * 0x100000001b3ul;
    for (size_t i = h % SITE_SLOTS;; i = (i + 1) % SITE_SLOTS) {
        unsigned s = site_of_slot[i];
        if (!s) {
            if (nsites == MAX_SITES)
                return MAX_SITES;
            memcpy(sites[nsites].frames, frames, depth * sizeof *frames);
            sites[nsites].depth = depth;
            site_of_slot[i] = ++nsites;
            return nsites - 1;
        }
        struct site *x = &sites[s - 1];
        if (x->depth == depth && !memcmp(x->frames, frames, depth * sizeof *frames))
            return s - 1;
    }
}

static void site_add(void *p, size_t usable) {
    void *frames[SITE_DEPTH];
    busy = 1;
    int depth = backtrace(frames, SITE_DEPTH);
    busy = 0;
    while (__atomic_test_and_set(&lock, __ATOMIC_ACQUIRE))
        ;
    unsigned s = intern(frames, depth);
    if (s == MAX_SITES || tracked >= PTR_SLOTS / 4 * 3) {
        untracked++;
    } else {
        size_t i = ptr_slot((uintptr_t)p);
        while (ptr_key[i])
            i = (i + 1) % PTR_SLOTS;
        ptr_key[i] = (uintptr_t)p;
        ptr_site[i] = s;
        tracked++;
        site_bytes[s] += usable;
        site_chunks[s]++;
    }
    __atomic_clear(&lock, __ATOMIC_RELEASE);
}

static void site_remove(void *p, size_t usable) {
    while (__atomic_test_and_set(&lock, __ATOMIC_ACQUIRE))
        ;
    size_t i = ptr_slot((uintptr_t)p);
    while (ptr_key[i] && ptr_key[i] != (uintptr_t)p)
        i = (i + 1) % PTR_SLOTS;
    if (ptr_key[i]) {
        site_bytes[ptr_site[i]] -= usable;
        site_chunks[ptr_site[i]]--;
        tracked--;
        /* backward-shift deletion: close the gap for every chunk after it
         * in the probe run whose home slot does not lie in (i, j] */
        for (size_t j = (i + 1) % PTR_SLOTS; ptr_key[j]; j = (j + 1) % PTR_SLOTS) {
            size_t home = ptr_slot(ptr_key[j]);
            if ((j > i && (home <= i || home > j)) || (j < i && home <= i && home > j)) {
                ptr_key[i] = ptr_key[j];
                ptr_site[i] = ptr_site[j];
                i = j;
            }
        }
        ptr_key[i] = 0;
    }
    __atomic_clear(&lock, __ATOMIC_RELEASE);
}

__attribute__((constructor)) static void start(void) {
    const char *on = getenv("HEAP_SITES");
    if (on && *on && strcmp(on, "0")) {
        void *frames[1];
        busy = 1; /* the first backtrace() loads the unwinder, allocating */
        backtrace(frames, 1);
        busy = 0;
        sites_on = 1;
    }
}

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
            if (sites_on) {
                memcpy(peak_site_bytes, site_bytes, nsites * sizeof *site_bytes);
                memcpy(peak_site_chunks, site_chunks, nsites * sizeof *site_chunks);
            }
        }
    }
}

static void *counted(void *p) {
    if (p) {
        size_t usable = malloc_usable_size(p);
        if (sites_on && !busy)
            site_add(p, usable);
        note(usable, 1);
    }
    return p;
}

static void released(void *p, size_t usable) {
    if (sites_on && !busy)
        site_remove(p, usable);
    note(usable, -1);
}

void *malloc(size_t n) { return counted(__libc_malloc(n)); }
void *calloc(size_t n, size_t size) { return counted(__libc_calloc(n, size)); }
void *memalign(size_t align, size_t n) { return counted(__libc_memalign(align, n)); }
void *aligned_alloc(size_t align, size_t n) { return counted(__libc_memalign(align, n)); }
void *valloc(size_t n) { return counted(__libc_memalign(sysconf(_SC_PAGESIZE), n)); }

void free(void *p) {
    if (p)
        released(p, malloc_usable_size(p));
    __libc_free(p);
}

void *realloc(void *p, size_t n) {
    size_t old = p ? malloc_usable_size(p) : 0;
    void *q = __libc_realloc(p, n);
    if (q || n == 0) { /* on failure the old chunk stays live */
        if (p)
            released(p, old);
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

/* write(2) all of it, or give up on the first error */
static void put(int fd, const char *s, int len) {
    while (len > 0) {
        ssize_t k = write(fd, s, len);
        if (k <= 0)
            return;
        s += k;
        len -= k;
    }
}

static unsigned by_site[MAX_SITES];

static int by_site_bytes(const void *a, const void *b) {
    unsigned long x = peak_site_bytes[*(const unsigned *)a], y = peak_site_bytes[*(const unsigned *)b];
    return (x < y) - (x > y);
}

/* One line per site live at the peak: "site BYTES CHUNKS" and its frames,
 * innermost first, as module+offset: the return address minus the module's
 * load address, which is the address addr2line takes for a PIE binary. */
static void report_sites(int fd) {
    busy = 1;
    Dl_info own;
    if (!dladdr((void *)report_sites, &own))
        own.dli_fbase = NULL;
    unsigned n = 0;
    for (unsigned s = 0; s < nsites; s++)
        if (peak_site_bytes[s])
            by_site[n++] = s;
    qsort(by_site, n, sizeof *by_site, by_site_bytes);
    static char line[SITE_DEPTH * 320 + 64];
    int len = snprintf(line, sizeof line,
                       "# sites at the peak: %u of %u (%lu chunks untracked)\n", n, nsites, untracked);
    put(fd, line, len);
    for (unsigned k = 0; k < n; k++) {
        struct site *x = &sites[by_site[k]];
        len = snprintf(line, sizeof line, "site %lu %lu", peak_site_bytes[by_site[k]],
                       peak_site_chunks[by_site[k]]);
        for (int i = 0; i < x->depth && len < (int)sizeof line - 320; i++) {
            Dl_info info;
            int found = dladdr(x->frames[i], &info);
            if (found && info.dli_fbase == own.dli_fbase)
                continue; /* the census's own frames */
            if (found && info.dli_fname)
                len += snprintf(line + len, sizeof line - len, " %s+%#lx", info.dli_fname,
                                (unsigned long)((char *)x->frames[i] - (char *)info.dli_fbase));
            else
                len += snprintf(line + len, sizeof line - len, " ?+%#lx", (unsigned long)x->frames[i]);
        }
        line[len++] = '\n';
        put(fd, line, len);
    }
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
    put(fd, line, len);
    for (size_t i = 0; i < n; i++) {
        /* sizes above 128 KiB are power-of-two floors: ">=" marks them */
        len = snprintf(line, sizeof line, "%s%11lu %9lu %12lu %5.1f%%\n",
                       rows[i].floor ? ">=" : "  ", rows[i].size, rows[i].count,
                       rows[i].bytes, total ? 100.0 * rows[i].bytes / total : 0.0);
        put(fd, line, len);
    }
    if (sites_on)
        report_sites(fd);
    close(fd);
}
