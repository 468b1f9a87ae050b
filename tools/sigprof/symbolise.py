#!/usr/bin/env python3
"""Turn a prof.c sample file into tables: symbolise.py BINARY run.prof [ROWS]

Three tables, each as a share of all samples:
  flat       the innermost (possibly inlined) function at the sampled address
  inclusive  every function on the sample's inline chain, so a function is
             charged for what was inlined into it (not for what it calls)
  by line    the innermost source line
Samples outside BINARY (libc, the vdso) are charged to their mapping's name.
"""
import collections
import os
import subprocess
import sys


def main():
    binary, prof = os.path.realpath(sys.argv[1]), sys.argv[2]
    rows = int(sys.argv[3]) if len(sys.argv) > 3 else 25
    maps, samples = [], []
    for line in open(prof):
        kind, _, rest = line.partition(" ")
        if kind == "S":
            samples.append(int(rest, 16))
        else:  # lo-hi perms offset dev inode [path]
            f = rest.split()
            lo, hi = (int(x, 16) for x in f[0].split("-"))
            maps.append((lo, hi, int(f[2], 16), f[5] if len(f) > 5 else "[anon]"))
    # addr2line wants the address the ELF file names: for a PIE binary, the
    # run-time address minus where the file's first byte was mapped.
    base = min(lo for lo, _, off, path in maps if off == 0 and os.path.realpath(path) == binary)
    inside, chains = {}, {}
    for addr in set(samples):
        path = next((m[3] for m in maps if m[0] <= addr < m[1]), "[unmapped]")
        if os.path.realpath(path) == binary:
            inside[addr] = addr - base
        else:
            chains[addr] = [(os.path.basename(path), "")]
    # addr2line -a -i prints "0xADDR", then one (function, file:line) pair per
    # inline level, innermost first.
    offsets = sorted(set(inside.values()))
    out = subprocess.run(["addr2line", "-f", "-C", "-i", "-a", "-e", binary],
                         input="".join(f"{o:#x}\n" for o in offsets),
                         capture_output=True, text=True, check=True).stdout.splitlines()
    by_offset, i = {}, 0
    while i < len(out):
        offset, i, chain = int(out[i], 16), i + 1, []
        while i < len(out) and not out[i].startswith("0x"):
            chain.append((out[i], out[i + 1].split(" (discriminator")[0]))
            i += 2
        by_offset[offset] = chain
    for addr, offset in inside.items():
        chains[addr] = by_offset[offset]

    flat, inclusive, lines = (collections.Counter() for _ in range(3))
    for addr in samples:
        chain = chains[addr]
        flat[chain[0][0]] += 1
        lines[f"{chain[0][1]}  ({chain[0][0]})"] += 1
        for name in {name for name, _ in chain}:
            inclusive[name] += 1
    for title, table in (("flat", flat), ("inclusive over inline chains", inclusive), ("by source line", lines)):
        print(f"\n== {title} ({len(samples)} samples)")
        for name, n in table.most_common(rows):
            print(f"{100 * n / len(samples):6.2f}%  {name}")


if __name__ == "__main__":
    main()
