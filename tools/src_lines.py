#!/usr/bin/env python3
"""Per-module line counts of src/, recorded like a bench so simplicity is
tracked alongside speed.

Counts every line of the .h and .cc files under each src/<module>/ directory
of the working tree, prints one row per module, and merges a `src_lines`
record into the bench file ($TERTIO_BENCH_JSON, else BENCH_joins.json at the
repository root):

    { "name": "src_lines", "git_sha": "...", "git_dirty": true|false,
      "metrics": { "cost": ..., ..., "total": ... } }

The merge replaces an existing `src_lines` record and leaves every other
record byte-for-byte as it was (the same merge-by-name rule the C++ benches
follow, util/bench_json.h).

Usage:
    tools/src_lines.py                 # print and merge into the bench file
    tools/src_lines.py --dry-run       # print only
    tools/src_lines.py --base REV      # also print the delta against git REV
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SUFFIXES = (".h", ".cc")
RECORD = "src_lines"


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout


def module_of(path):
    """src/<module>/... -> <module>; None for files directly under src/."""
    parts = Path(path).parts
    if len(parts) < 3 or parts[0] != "src" or not path.endswith(SUFFIXES):
        return None
    return parts[1]


def count_tree():
    counts = {}
    for path in sorted((ROOT / "src").rglob("*")):
        rel = path.relative_to(ROOT).as_posix()
        module = module_of(rel)
        if module is None or not path.is_file():
            continue
        with open(path, "rb") as f:
            counts[module] = counts.get(module, 0) + f.read().count(b"\n")
    return counts


def count_revision(rev):
    counts = {}
    for rel in git("ls-tree", "-r", "--name-only", rev, "--", "src").splitlines():
        module = module_of(rel)
        if module is None:
            continue
        blob = subprocess.run(["git", "show", f"{rev}:{rel}"], cwd=ROOT, check=True,
                              capture_output=True).stdout
        counts[module] = counts.get(module, 0) + blob.count(b"\n")
    return counts


def split_top_level_objects(body):
    """Top-level {...} objects of a JSON array body, as source text."""
    objects, depth, start, in_string, escaped = [], 0, None, False, False
    for i, c in enumerate(body):
        if in_string:
            if escaped:
                escaped = False
            elif c == "\\":
                escaped = True
            elif c == '"':
                in_string = False
        elif c == '"':
            in_string = True
        elif c in "{[":
            if depth == 0 and c == "{":
                start = i
            depth += 1
        elif c in "}]":
            depth -= 1
            if depth == 0 and start is not None:
                objects.append(body[start:i + 1])
                start = None
    return objects


def record_json(counts):
    sha = git("rev-parse", "HEAD").strip()
    dirty = bool(git("status", "--porcelain", "--", "src").strip())
    rows = [(m, counts[m]) for m in sorted(counts)] + [("total", sum(counts.values()))]
    metrics = ",".join(f'\n        "{m}": {n}' for m, n in rows)
    return (f'{{ "name": "{RECORD}",\n'
            f'      "git_sha": "{sha}",\n'
            f'      "git_dirty": {"true" if dirty else "false"},\n'
            f'      "metrics": {{{metrics}\n      }} }}')


def merge(path, record):
    records = []
    if path.exists():
        content = path.read_text()
        open_at, close_at = content.find("["), content.rfind("]")
        if '"benches"' not in content or open_at < 0 or close_at < open_at:
            sys.exit(f"{path} exists but is not a bench-record file")
        records = split_top_level_objects(content[open_at + 1:close_at])
    tag = f'"name": "{RECORD}"'
    replaced = False
    for i, existing in enumerate(records):
        if tag in existing.split("\n", 1)[0]:
            records[i] = record
            replaced = True
    if not replaced:
        records.append(record)
    body = ",\n".join("    " + r for r in records)
    path.write_text("{\n  \"benches\": [\n" + body + "\n  ]\n}\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dry-run", action="store_true", help="print only; write nothing")
    parser.add_argument("--base", metavar="REV", help="also print the delta against REV")
    args = parser.parse_args()

    counts = count_tree()
    base = count_revision(args.base) if args.base else None
    modules = sorted(set(counts) | set(base or {}))
    header = f"{'module':<10}{'lines':>8}"
    if base is not None:
        header += f"{args.base[:12]:>14}{'delta':>8}"
    print(header)
    for m in modules + ["total"]:
        now = sum(counts.values()) if m == "total" else counts.get(m, 0)
        row = f"{m:<10}{now:>8}"
        if base is not None:
            then = sum(base.values()) if m == "total" else base.get(m, 0)
            row += f"{then:>14}{now - then:>+8}"
        print(row)

    if not args.dry_run:
        env = os.environ.get("TERTIO_BENCH_JSON")
        path = Path(env) if env else ROOT / "BENCH_joins.json"
        merge(path, record_json(counts))
        print(f"[{RECORD}] -> {path}")


if __name__ == "__main__":
    main()
