#!/usr/bin/env python3
"""Lists the src/ functions a --coverage build never executed.

    python3 .github/scripts/unreached_functions.py BUILD_DIR SOURCE_DIR

Runs gcov (JSON format) on every object of BUILD_DIR that has coverage
notes and merges the function records by source position: a header
function compiled into several objects, and every instantiation of a
template, counts as executed if any copy ran. It prints `path:line
function` for every function under SOURCE_DIR/src whose count is 0 in all
of them, sorted, then a summary line. A function no object emits (an
inline or template function nothing instantiates) has no record, so it is
not listed. Report only: it exits 0 whatever it finds.
"""

import glob
import json
import os
import subprocess
import sys


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    build, source = (os.path.abspath(arg) for arg in sys.argv[1:])
    src = os.path.join(source, "src") + os.sep
    counts = {}
    names = {}
    notes = glob.glob(os.path.join(build, "**", "*.gcno"), recursive=True)
    for note in sorted(notes):
        obj = note[: -len(".gcno")] + ".o"
        out = subprocess.run(
            ["gcov", "--json-format", "--stdout", "--demangled-names", obj],
            cwd=os.path.dirname(note), capture_output=True, text=True,
            check=False).stdout
        for line in out.splitlines():
            if not line.startswith("{"):
                continue
            doc = json.loads(line)
            for record in doc["files"]:
                path = os.path.normpath(os.path.join(
                    doc["current_working_directory"], record["file"]))
                if not path.startswith(src):
                    continue
                rel = os.path.relpath(path, source)
                for fn in record["functions"]:
                    key = (rel, fn["start_line"])
                    counts[key] = max(counts.get(key, 0),
                                      fn["execution_count"])
                    name = fn["demangled_name"]
                    if key not in names or len(name) < len(names[key]):
                        names[key] = name
    unreached = sorted(key for key, count in counts.items() if count == 0)
    for rel, line in unreached:
        print(f"{rel}:{line} {names[(rel, line)]}")
    print(f"{len(unreached)} of {len(counts)} src/ functions never executed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
