#!/usr/bin/env python3
"""Tabulates a stack-sampler dump (tools/profile/sampler.cc).

    python3 tools/profile/report.py DUMP [--through FUNC] [--top N]
                                         [--root DIR]

Resolves every sampled address with `addr2line -f -C -i` against the object
that /proc/self/maps named at exit (inlined frames included), then prints:

  * self time by directory: each sample goes to its innermost frame whose
    source file lies under the repository root, so time in libc, libstdc++
    and the templates inlined from them is charged to the first repository
    caller. Files under src/ group by src/<directory>; other files by their
    top directory. Samples with no repository frame group by object name.
  * inclusive time by function: the share of samples with the function
    anywhere on the stack, counted once per sample.

--through FUNC keeps only the samples whose stack holds a function whose
name contains FUNC, e.g. `perfbench::RunRep` drops the world builds that
only set up the timed calls.
"""

import argparse
import bisect
import collections
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def parse_dump(path):
    samples, maps = [], []
    header = ""
    with open(path) as f:
        in_maps = False
        for line in f:
            line = line.rstrip("\n")
            if not header:
                header = line
                if not header.startswith("SKYPROF1"):
                    sys.exit(f"{path}: not a sampler dump")
                continue
            if line == "MAPS":
                in_maps = True
            elif in_maps:
                fields = line.split()
                if len(fields) >= 6 and "x" in fields[1] and \
                        fields[5].startswith("/"):
                    start, end = (int(x, 16) for x in fields[0].split("-"))
                    maps.append((start, end, int(fields[2], 16), fields[5]))
            elif line.startswith("S"):
                frames = [int(x, 16) for x in line.split()[1:]]
                if frames:
                    samples.append(frames)
    maps.sort()
    return header, samples, maps


def is_pie(path, cache={}):
    """True for ET_DYN objects, whose addresses are relative to a load base."""
    if path not in cache:
        try:
            with open(path, "rb") as f:
                elf = f.read(18)
            cache[path] = len(elf) == 18 and elf[:4] == b"\x7fELF" and \
                int.from_bytes(elf[16:18], "little") == 3
        except OSError:
            cache[path] = False
    return cache[path]


def locate(addr, maps, starts):
    """(object, address within it) for a runtime address, or None."""
    i = bisect.bisect_right(starts, addr) - 1
    if i < 0 or addr >= maps[i][1]:
        return None
    start, _, offset, path = maps[i]
    return path, (addr - start + offset) if is_pie(path) else addr


def resolve(samples, maps):
    """Maps each (frame index > 0, address) to its inline chain, innermost
    first, as (function, file) pairs."""
    starts = [m[0] for m in maps]
    # A return address points past its call; look up the call itself.
    wanted = collections.defaultdict(set)
    where = {}
    for frames in samples:
        for i, addr in enumerate(frames):
            key = addr if i == 0 else addr - 1
            if key not in where:
                where[key] = locate(key, maps, starts)
                if where[key] is not None:
                    wanted[where[key][0]].add(where[key][1])
    chains = {}
    for obj, addrs in wanted.items():
        addrs = sorted(addrs)
        out = subprocess.run(
            ["addr2line", "-a", "-f", "-C", "-i", "-e", obj] +
            [hex(a) for a in addrs],
            capture_output=True, text=True).stdout.splitlines()
        current, pending = None, None
        for line in out:
            if line.startswith("0x") and pending is None:
                current = (obj, int(line, 16))
                chains[current] = []
            elif pending is None:
                pending = line
            else:
                chains[current].append((pending, line.rsplit(":", 1)[0]))
                pending = None
    result = {}
    for key, loc in where.items():
        obj = os.path.basename(loc[0]) if loc else "?"
        chain = chains.get(loc, []) if loc is not None else []
        if not chain or chain[0][0] == "??":
            chain = [(f"?? [{obj}]", "")]
        # Without line info (system libraries) the name is only the nearest
        # exported symbol: keep the object beside it.
        result[key] = [(name if path != "??" else f"{name} [{obj}]", path)
                       for name, path in chain]
    return result


def bucket(stack, root, obj_of_leaf):
    for _, path in stack:
        if path.startswith(root + "/"):
            rel = os.path.relpath(path, root).split(os.sep)
            if rel[0] == "src" and len(rel) > 2:
                return "src/" + rel[1]
            return rel[0]
    return f"(no repository frame: {obj_of_leaf})"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("dump")
    parser.add_argument("--through", default="",
                        help="keep samples with this function on the stack")
    parser.add_argument("--top", type=int, default=30)
    parser.add_argument("--root", default=ROOT,
                        help="repository the program was built from")
    args = parser.parse_args()
    root = os.path.realpath(args.root)

    header, samples, maps = parse_dump(args.dump)
    chains = resolve(samples, maps)
    starts = [m[0] for m in maps]
    self_time = collections.Counter()
    inclusive = collections.Counter()
    kept = 0
    for frames in samples:
        stack = []
        for i, addr in enumerate(frames):
            stack.extend(chains[addr if i == 0 else addr - 1])
        names = {name for name, _ in stack if not name.startswith("??")}
        if args.through and not any(args.through in n for n in names):
            continue
        kept += 1
        loc = locate(frames[0], maps, starts)
        leaf_obj = os.path.basename(loc[0]) if loc else "?"
        self_time[bucket(stack, root, leaf_obj)] += 1
        inclusive.update(names)

    print(f"{header}; {kept} samples"
          + (f" through '{args.through}'" if args.through else ""))
    if kept == 0:
        return 1
    print("\nself time by directory (library frames charged to their first "
          "repository caller)")
    for name, n in self_time.most_common():
        print(f"  {100.0 * n / kept:6.1f}%  {n:7d}  {name}")
    print(f"\ninclusive time by function (top {args.top})")
    for name, n in inclusive.most_common(args.top):
        short = name if len(name) <= 110 else name[:107] + "..."
        print(f"  {100.0 * n / kept:6.1f}%  {n:7d}  {short}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
