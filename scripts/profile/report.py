#!/usr/bin/env python3
"""Leaf-function shares of one sampler output (see sampler.c).

Usage: report.py SAMPLES [TOP]

Each sampled program counter is mapped through the process's own maps to
its ELF file and virtual address. In files with line tables `addr2line -f
-i -C` gives the chain of inlined frames at that address; a sample is
counted for the last of them, the compiled function the counter lies in
(the leaf of the call stack, its inlined helpers and intrinsics folded
in). Other files (stripped libc, libm) are named by their nearest
preceding symbol from `nm`. Samples whose inline chain passes
through the benchmark harness's machine-speed loops (`reference_ms`,
`calibrate_ms`) are dropped before shares are taken.
"""
import bisect
import collections
import struct
import subprocess
import sys

HARNESS = ("reference_ms", "calibrate_ms")


def read(path):
    maps, pcs, in_maps = [], [], True
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if in_maps:
                if line == "--":
                    in_maps = False
                    continue
                parts = line.split(None, 5)
                lo, hi = (int(x, 16) for x in parts[0].split("-"))
                file = parts[5] if len(parts) == 6 and parts[5].startswith("/") else None
                maps.append((lo, hi, int(parts[2], 16), file))
            elif line:
                pcs.append(int(line, 16))
    return maps, pcs


def loads(path):
    """(p_offset, p_vaddr, p_filesz) of every PT_LOAD of an ELF64 file."""
    with open(path, "rb") as f:
        head = f.read(64)
        phoff, = struct.unpack_from("<Q", head, 32)
        phentsize, phnum = struct.unpack_from("<HH", head, 54)
        f.seek(phoff)
        table = f.read(phentsize * phnum)
    out = []
    for i in range(phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from("<IIQQQQ", table, i * phentsize)
        if p_type == 1:
            out.append((p_offset, p_vaddr, p_filesz))
    return out


def vaddr(segments, file_off):
    for off, va, size in segments:
        if off <= file_off < off + size:
            return file_off - off + va
    return None


def symbols(path):
    """Sorted (address, name) of the defined symbols `nm` finds, dynamic ones included."""
    syms = set()
    for flags in (["-C", "--defined-only"], ["-C", "-D", "--defined-only"]):
        out = subprocess.run(["nm", *flags, path], capture_output=True, text=True).stdout
        for line in out.splitlines():
            parts = line.split(None, 2)
            if len(parts) == 3 and parts[1] in "TtWw":
                syms.add((int(parts[0], 16), parts[2]))
    return sorted(syms)


def addr2line(path, addrs):
    """address -> list of function names, innermost first."""
    out = subprocess.run(
        ["addr2line", "-f", "-i", "-C", "-a", "-e", path],
        input="".join(f"{a:x}\n" for a in addrs), capture_output=True, text=True,
    ).stdout.splitlines()
    chains, current, i = {}, None, 0
    while i < len(out):
        if out[i].startswith("0x"):
            current = int(out[i], 16)
            chains[current] = []
            i += 1
        else:
            chains[current].append(out[i])
            i += 2
    return chains


def short(name):
    if "<" not in name and "::" in name:
        return "::".join(name.split("::")[-2:])
    return name


def main():
    maps, pcs = read(sys.argv[1])
    top = int(sys.argv[2]) if len(sys.argv) > 2 else 25
    starts = [m[0] for m in maps]
    by_file = collections.defaultdict(list)
    unmapped = 0
    for pc in pcs:
        j = bisect.bisect_right(starts, pc) - 1
        if j < 0 or not (maps[j][0] <= pc < maps[j][1]) or maps[j][3] is None:
            unmapped += 1
            continue
        lo, _, off, file = maps[j]
        by_file[file].append(pc - lo + off)
    leaves = collections.Counter()
    harness = 0
    for file, offs in by_file.items():
        segments = loads(file)
        addrs = [vaddr(segments, o) for o in offs]
        chains = addr2line(file, sorted({a for a in addrs if a is not None}))
        syms = None
        for a in addrs:
            chain = [f for f in chains.get(a, []) if f != "??"]
            if not chain:
                syms = syms if syms is not None else symbols(file)
                k = bisect.bisect_right(syms, (a if a is not None else -1, "￿")) - 1
                name = syms[k][1] if k >= 0 else "??"
                chain = [f"{name} ({file.rsplit('/', 1)[-1]}, nearest symbol)"]
            if any(h in f for f in chain for h in HARNESS):
                harness += 1
            else:
                leaves[short(chain[-1])] += 1
    counted = sum(leaves.values())
    print(f"samples {len(pcs)}: harness loops {harness}, unmapped {unmapped}, counted {counted}")
    for name, n in leaves.most_common(top):
        print(f"{100.0 * n / max(counted, 1):6.1f} %  {n:7d}  {name}")


if __name__ == "__main__":
    main()
