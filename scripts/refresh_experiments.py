#!/usr/bin/env python3
"""Refresh EXPERIMENTS.md's figure blocks from massbft-bench output on stdin.

    go run ./cmd/massbft-bench -quick -fig all | python3 scripts/refresh_experiments.py

Run from the repository root. Each "=== Figure <id>: ... ===" section read
replaces the fenced block of EXPERIMENTS.md that starts with the same figure's
header line; figures absent from the input keep their block, so one figure
can be refreshed alone (-fig 13a). Idempotent.
"""
import re
import sys


def sections(raw):
    out = {}
    cur, buf = None, []
    for line in raw.splitlines():
        m = re.match(r"=== Figure ([^:]+):", line)
        if m:
            if cur:
                out[cur] = "\n".join(buf).strip()
            cur, buf = m.group(1).strip(), [line]
        elif cur:
            buf.append(line)
    if cur:
        out[cur] = "\n".join(buf).strip()
    return out


def main():
    secs = sections(sys.stdin.read())
    if not secs:
        sys.exit("no '=== Figure' section on stdin")
    doc = open("EXPERIMENTS.md").read()
    for fig, text in secs.items():
        pat = re.compile(r"```\n=== Figure " + re.escape(fig) + r":.*?```", re.S)
        doc, n = pat.subn(lambda _: "```\n" + text + "\n```", doc, count=1)
        if n == 0:
            print(f"warning: EXPERIMENTS.md has no block for figure {fig}", file=sys.stderr)
    open("EXPERIMENTS.md", "w").write(doc)


if __name__ == "__main__":
    main()
