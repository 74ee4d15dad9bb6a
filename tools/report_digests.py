"""Recompute the report digests of ``tests/report_digests.json`` and list the changes.

The file records, for each case of the corpus in ``tests/report_corpus.py``,
its exit code and the sha256 of its report or refusal text, and acceptance
criterion 7's bad count.  The script recomputes them all, in a temporary
working directory, and prints each entry that differs from the file, with
its recorded and its new value.  Without ``--write`` it exits 1 when any
entry differs; with ``--write`` it rewrites the file.  A change that moves
report bytes on purpose runs it with ``--write`` and lists its output.
It is not part of the tier-1 suite (the test of the digests is).  Run from
the repository root:

    python tools/report_digests.py [--write]
"""
from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import report_corpus  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite the digest file")
    args = parser.parse_args()
    path = report_corpus.DIGESTS
    old = json.loads(path.read_text()) if path.exists() else {"reports": {}}
    with tempfile.TemporaryDirectory() as tmp:
        reports = report_corpus.report_digests(Path(tmp))
    new = {"criterion_7_bad_count": report_corpus.criterion_7_bad_count(), "reports": reports}
    changed = 0
    if new["criterion_7_bad_count"] != old.get("criterion_7_bad_count"):
        changed += 1
        print(f"criterion_7_bad_count: {old.get('criterion_7_bad_count')} -> "
              f"{new['criterion_7_bad_count']}")
    for name in sorted(set(reports) | set(old["reports"])):
        before, after = old["reports"].get(name), reports.get(name)
        if before != after:
            changed += 1
            print(f"{name}: {before} -> {after}")
    print(f"{changed} of {len(reports) + 1} entries changed")
    if args.write:
        path.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")
        return 0
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
