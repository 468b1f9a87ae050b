#!/usr/bin/env python3
"""Name the call sites of a HEAP_SITES=1 census: sites.py BINARY run.heap [ROWS]

census.c writes one "site BYTES CHUNKS FRAME..." line per call site live at
the heap's peak, each FRAME a module+offset return address, innermost first.
This prints the ROWS largest sites (default 20) with their share of the site
bytes, resolving the frames inside BINARY with addr2line, inline frames
included. Frames of the allocator and the standard library (alloc::, core::,
std::, __rust_*, __rdl_*) are dropped from the front of each chain, so the
first line of a site is the code that asked for the memory.
"""
import collections
import os
import re
import subprocess
import sys

# `alloc::raw_vec::…`, `<alloc::vec::Vec<T> as …>::…`, `<T as alloc::…>::…`
RUNTIME = re.compile(r"^(<+([^<>]* as )?)?(alloc|core|std|hashbrown)::|^__r(ust|dl)")
SHOWN = 5  # source frames printed per site


def main():
    binary, census = os.path.realpath(sys.argv[1]), sys.argv[2]
    rows = int(sys.argv[3]) if len(sys.argv) > 3 else 20
    sites = []
    for line in open(census):
        if line.startswith("site "):
            _, nbytes, chunks, *frames = line.split()
            sites.append((int(nbytes), int(chunks), [f.rpartition("+") for f in frames]))
    if not sites:
        sys.exit(f"{census}: no site lines (was it written with HEAP_SITES=1?)")
    total = sum(s[0] for s in sites)
    # A return address points after its call: step back one byte so the
    # line tables name the call itself.
    offsets = sorted({int(off, 16) - 1 for _, _, frames in sites[:rows]
                      for path, _, off in frames if os.path.realpath(path) == binary})
    out = subprocess.run(["addr2line", "-f", "-C", "-i", "-a", "-e", binary],
                         input="".join(f"{o:#x}\n" for o in offsets),
                         capture_output=True, text=True, check=True).stdout.splitlines()
    # addr2line -a -i prints "0xADDR", then one (function, file:line) pair per
    # inline level, innermost first.
    chains, i = {}, 0
    while i < len(out):
        offset, i, chain = int(out[i], 16), i + 1, []
        while i < len(out) and not out[i].startswith("0x"):
            place = out[i + 1].split(" (discriminator")[0]
            chain.append((out[i], os.path.basename(place)))
            i += 2
        chains[offset] = chain

    by_function = collections.Counter()
    print(f"== {len(sites)} sites, {total} B ({total / 1048576:.2f} MiB) live at the peak")
    for nbytes, chunks, frames in sites[:rows]:
        chain = []
        for path, _, off in frames:
            if os.path.realpath(path) == binary:
                chain.extend(chains[int(off, 16) - 1])
            else:
                chain.append((os.path.basename(path), f"+{off}"))
        source = [c for c in chain if not RUNTIME.match(c[0])] or chain
        print(f"\n{100 * nbytes / total:6.2f}%  {nbytes:>10} B  {chunks:>7} chunks")
        for function, place in source[:SHOWN]:
            print(f"         {function}  ({place})")
        by_function[source[0][0]] += nbytes
    print(f"\n== the top {min(rows, len(sites))} sites by their first source frame")
    for function, nbytes in by_function.most_common():
        print(f"{100 * nbytes / total:6.2f}%  {nbytes:>10} B  {function}")

if __name__ == "__main__":
    main()
