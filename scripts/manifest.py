"""SHA-256 manifest of every file that `scripts/reproduce_all.sh` writes.

    python3 scripts/manifest.py OUT_DIR            print OUT_DIR's manifest
    python3 scripts/manifest.py OUT_DIR MANIFEST   compare OUT_DIR with MANIFEST

A manifest is a header of `# ` lines that name the numpy version and the CPU
features numpy dispatches to, then one `<sha256>  <path>` line per file, its
path relative to OUT_DIR, sorted by path (the format `sha256sum -c` reads).
The comparison prints each file that was added, is missing or changed, and
exits 1 if any was. A header that differs is printed as a machine difference:
numpy's LAPACK and SIMD loops may round differently on another build or CPU,
so a changed file there need not be a changed program.
"""
import hashlib
import itertools
import os
import sys

import numpy as np

try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as umath


def header() -> list[str]:
    dispatched = [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]
    return [f"# numpy {np.__version__}",
            f"# cpu baseline {' '.join(umath.__cpu_baseline__)}",
            f"# cpu dispatch {' '.join(dispatched)}"]


def digests(out_dir: str) -> dict[str, str]:
    """SHA-256 of every file under ``out_dir``, keyed by its relative path."""
    found = {}
    for folder, _, names in os.walk(out_dir):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, out_dir)] = hashlib.sha256(fh.read()).hexdigest()
    return found


def parse(text: str) -> tuple[list[str], dict[str, str]]:
    """The header lines and the path -> digest entries of a manifest."""
    lines = text.splitlines()
    head = list(itertools.takewhile(lambda line: line.startswith("# "), lines))
    return head, {path: digest for digest, path in
                  (line.split("  ", 1) for line in lines[len(head):])}


def render(out_dir: str) -> str:
    found = digests(out_dir)
    return "\n".join(header() + [f"{found[path]}  {path}" for path in sorted(found)]) + "\n"


def compare(out_dir: str, manifest: str) -> int:
    with open(manifest) as fh:
        head, expected = parse(fh.read())
    for line in sorted(set(head) ^ set(header())):
        where = "manifest" if line in head else "this machine"
        print(f"manifest: machine differs: {where} has {line[2:]}")
    found = digests(out_dir)
    differ = [(f"manifest: added {path}" if path not in expected
               else f"manifest: missing {path}" if path not in found
               else f"manifest: changed {path}")
              for path in sorted(expected.keys() | found.keys())
              if expected.get(path) != found.get(path)]
    for line in differ:
        print(line)
    if not differ:
        print(f"manifest: all {len(found)} files match")
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) == 2:
        sys.stdout.write(render(sys.argv[1]))
    elif len(sys.argv) == 3:
        sys.exit(compare(sys.argv[1], sys.argv[2]))
    else:
        sys.exit(__doc__)
