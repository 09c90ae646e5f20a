#!/usr/bin/env python3
"""Assemble EXPERIMENTS.md: inject the measured tables captured in
bench_output.txt into EXPERIMENTS.tmpl.md's {{TABLE:<eval id>}}
placeholders. A placeholder names an eval id and takes the one table
whose title is that id or starts with it and a space; zero or several such
tables is an error. Rerun after `sbt -batch "bench/test" | tee bench_output.txt`.
"""
import re
import sys

BENCH = "bench_output.txt"
TMPL = "EXPERIMENTS.tmpl.md"
OUT = "EXPERIMENTS.md"


def load_tables(path):
    tables = {}
    title = None
    buf = []
    for line in open(path, encoding="utf-8", errors="replace"):
        line = line.rstrip("\n")
        if line.startswith("### "):
            if title:
                tables[title] = buf
            title = line[4:]
            buf = [line]
        elif title is not None:
            if line.startswith("|"):
                buf.append(line)
            else:
                tables[title] = buf
                title = None
                buf = []
    if title:
        tables[title] = buf
    return tables


def matches(title, eval_id):
    """A table belongs to a placeholder when its title is the eval id itself
    or the id followed by a space, so `Eval-II` never takes `Eval-III`."""
    return title == eval_id or title.startswith(eval_id + " ")


def main():
    tables = load_tables(BENCH)
    out = []
    problems = []
    for line in open(TMPL, encoding="utf-8"):
        m = re.match(r"\{\{TABLE:(.+)\}\}", line.strip())
        if not m:
            out.append(line.rstrip("\n"))
            continue
        eval_id = m.group(1)
        hits = [t for t in tables if matches(t, eval_id)]
        if len(hits) != 1:
            problems.append(f"{eval_id}: {len(hits)} tables {hits}")
            continue
        out.append("\n".join(tables[hits[0]]))
    if problems:
        sys.exit("each placeholder needs exactly one table:\n  " + "\n  ".join(problems))
    open(OUT, "w", encoding="utf-8").write("\n".join(out) + "\n")
    print(f"wrote {OUT} with {len(tables)} captured tables")


if __name__ == "__main__":
    main()
