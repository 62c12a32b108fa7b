#!/usr/bin/env python3
"""Documentation consistency gate (CI docs job).

    scripts/check_docs.py [--bin-dir=DIR]   (default DIR: build)

Four checks; the second runs the built binaries in DIR:

1. Intra-repo markdown links: every relative link target in a tracked
   ``*.md`` file must exist.  External links (http/https/mailto), pure
   anchors, and targets resolving outside the repo (GitHub web paths like
   the CI badge's ``../../actions/...``) are skipped.

2. CLI usage drift: README.md's usage block of every binary that takes
   flags must equal the binary's ``--help`` output.  The binaries are every
   ``examples/*.cpp`` that declares a ``Flags`` table and every
   ``bench/bench_*.cpp`` that reads ``BenchArgs``.  A harness that reads
   only the common bench flags (``BenchArgs::parse``) must print README's
   ``bench_table4_bert`` block under its own name.

3. Record-schema drift: every field ``record_to_json`` writes (its
   ``",\\"key\\":"`` literals in ``src/io/record.cpp``) must be documented in
   ``docs/RECORD_SCHEMA.md`` as a backticked ``key``.

4. Protocol-schema drift: every wire field the protocol writers append
   (``put(&out, "key"`` and ``append_member(&out, "key"`` in
   ``src/server/protocol.cpp``) must be documented in ``docs/PROTOCOL.md``.

A listed source that yields no keys fails too: a writer rewritten past the
pattern would otherwise pass without checking anything.

Exit 0 when clean, 1 with a per-violation report otherwise.
"""

import argparse
import glob
import os
import re
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

# The README block every common-flags-only bench harness must match.
COMMON_BENCH = "bench_table4_bert"

SKIP_DIRS = {".git", "build", "build-asan", ".claude"}


def read(rel):
    with open(os.path.join(REPO, rel), encoding="utf-8") as f:
        return f.read()


def markdown_files():
    out = []
    for root, dirs, files in os.walk(REPO):
        dirs[:] = [d for d in dirs if d not in SKIP_DIRS]
        for name in files:
            if name.endswith(".md"):
                out.append(os.path.join(root, name))
    return sorted(out)


def check_links(errors):
    for path in markdown_files():
        with open(path, encoding="utf-8") as f:
            text = f.read()
        for match in MD_LINK.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            target = target.split("#", 1)[0]
            if not target:
                continue
            resolved = os.path.normpath(os.path.join(os.path.dirname(path), target))
            if not resolved.startswith(REPO):
                continue  # GitHub web path (e.g. the CI badge); not a file
            if not os.path.exists(resolved):
                rel = os.path.relpath(path, REPO)
                errors.append(f"{rel}: broken link -> {target}")


def flag_binaries():
    """(binary, README block name) of every binary that takes flags."""
    out = []
    for path in sorted(glob.glob(os.path.join(REPO, "examples", "*.cpp"))):
        with open(path, encoding="utf-8") as f:
            if "Flags flags(" in f.read():
                name = os.path.basename(path)[:-4]
                out.append((name, name))
    for path in sorted(glob.glob(os.path.join(REPO, "bench", "bench_*.cpp"))):
        with open(path, encoding="utf-8") as f:
            text = f.read()
        name = os.path.basename(path)[:-4]
        if "BenchArgs::parse(" in text:
            out.append((name, COMMON_BENCH))
        elif "args.declare(" in text:
            out.append((name, name))
    return out


def code_blocks(text):
    """The bodies of the fenced code blocks in markdown `text`."""
    blocks, body = [], None
    for line in text.splitlines(keepends=True):
        if line.startswith("```"):
            if body is not None:
                blocks.append("".join(body))
            body = [] if body is None else None
        elif body is not None:
            body.append(line)
    return blocks


def check_usage(errors, bin_dir):
    blocks = {}
    for block in code_blocks(read("README.md")):
        match = re.match(r"usage: (\S+)", block)
        if match:
            blocks[match.group(1)] = block
    for binary, block_name in flag_binaries():
        if block_name not in blocks:
            errors.append(f"README.md: no usage block for {block_name}")
            continue
        path = os.path.join(bin_dir, binary)
        if not os.path.exists(path):
            errors.append(f"{path}: not built; the usage check runs --help")
            continue
        run = subprocess.run([path, "--help"], capture_output=True, text=True)
        want = blocks[block_name].replace(f"usage: {block_name} ", f"usage: {binary} ", 1)
        if run.returncode != 0 or run.stdout != want:
            errors.append(
                f"README.md: the {block_name} usage block differs from "
                f"`{binary} --help` (exit {run.returncode}):\n{run.stdout}")


def check_schema(errors, sources, doc, what):
    """Every key the `sources` writers append is backticked in `doc`."""
    text = read(doc)
    for rel, pattern, body in sources:
        source = read(rel)
        if body:
            start = source.index(body)
            source = source[start:source.index("\n}\n", start)]
        keys = set(re.findall(pattern, source))
        if not keys:
            errors.append(f"{rel}: no {what} keys found; the schema check is vacuous")
        for key in sorted(keys):
            if f"`{key}`" not in text:
                errors.append(f"{doc}: {what} field `{key}` ({rel}) is undocumented")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bin-dir", default=os.path.join(REPO, "build"),
                    help="directory of the built binaries (default: build)")
    args = ap.parse_args()
    errors = []
    check_links(errors)
    check_usage(errors, args.bin_dir)
    check_schema(errors, [("src/io/record.cpp", r'\\"(\w+)\\":',
                           "std::string record_to_json(")],
                 "docs/RECORD_SCHEMA.md", "record")
    check_schema(errors, [("src/server/protocol.cpp", r'put\(&out, "(\w+)"', None),
                          ("src/server/protocol.cpp",
                           r'append_member\(&out, "(\w+)"', None)],
                 "docs/PROTOCOL.md", "wire")
    if errors:
        print(f"check_docs: {len(errors)} problem(s)")
        for e in errors:
            print(f"  {e}")
        return 1
    print("check_docs: markdown links, CLI usage blocks, and the record and "
          "protocol schemas are consistent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
