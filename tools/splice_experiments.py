#!/usr/bin/env python3
"""Splice bench outputs from results/ into EXPERIMENTS.md.

EXPERIMENTS.md carries HTML-comment placeholders (<!-- TABLE2 -->,
<!-- FIGURE8 -->, ...). This script replaces each placeholder — or a
previously spliced fenced block directly following one — with the
current contents of the matching results file, so the document can be
regenerated after tools/run_experiments.sh.
"""

import json
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"
DOC = ROOT / "EXPERIMENTS.md"

# placeholder -> results file
SOURCES = {
    "TABLE1": "table1_bounds.txt",
    "TABLE2": "table2_bound_complexity.txt",
    "TABLE4": "table4_optimal.txt",
    "TABLE5": "table5_noprofile.txt",
    "TABLE6": "table6_sched_complexity.txt",
    "TABLE7": "table7_ablation.txt",
    "FIGURE8": "figure8_gcc_cdf.txt",
    "OPTGAP": "optimality_gap.txt",
    "TWBUDGET": "ablation_tw_budget.txt",
    "SBVSBB": "superblock_vs_bb.txt",
}


def body_of(path: pathlib.Path) -> str:
    """Strip the banner lines and the trailing expected-shape note."""
    text = path.read_text()
    # Drop everything from the "expected shape" footer onwards.
    text = re.split(r"\nexpected shape", text)[0]
    lines = text.strip("\n").split("\n")
    # Drop the two banner lines (title + suite size) when present.
    while lines and not re.match(r"^\S+.*\s\s", lines[0]) and \
            not lines[0].startswith(("GP", "FS", "update", "config",
                                     "metric", "algorithm", "setting",
                                     "heuristic")):
        lines.pop(0)
    return "\n".join(lines).strip("\n")


def metrics_note(fname: str) -> str:
    """A trailing pointer to the bench's metrics snapshot, if dumped.

    tools/run_experiments.sh passes --metrics-out results/<bench>.metrics.json
    to every bench; when that snapshot exists (and parses as JSON) the
    spliced block gains a `*metrics: ...*` line so readers can find the
    counter/gauge/histogram totals behind the table.
    """
    mf = RESULTS / (fname[: -len(".txt")] + ".metrics.json")
    if not mf.exists():
        return ""
    try:
        json.loads(mf.read_text())
    except ValueError:
        print(f"warning: {mf.name} is not valid JSON; not linking it")
        return ""
    return f"\n*metrics: results/{mf.name}*"


def main() -> int:
    doc = DOC.read_text()
    missing = []
    for key, fname in SOURCES.items():
        src = RESULTS / fname
        placeholder = f"<!-- {key} -->"
        if placeholder not in doc:
            continue
        if not src.exists():
            missing.append(fname)
            continue
        block = (placeholder + "\n```\n" + body_of(src) + "\n```" +
                 metrics_note(fname))
        # Replace the placeholder plus any previously spliced block
        # and its optional metrics pointer line.
        pattern = (re.escape(placeholder) +
                   r"(\n```.*?```)?(\n\*metrics: [^\n]*\*)?")
        doc = re.sub(pattern, block.replace("\\", r"\\"), doc, count=1,
                     flags=re.S)
    DOC.write_text(doc)
    if missing:
        print("missing results (placeholders left):", ", ".join(missing))
    print("EXPERIMENTS.md updated")
    return 0


if __name__ == "__main__":
    sys.exit(main())
