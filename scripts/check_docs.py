#!/usr/bin/env python3
"""Documentation consistency checks (run by the CI docs job and by ctest as
the check_docs test).

1. Every relative markdown link in README.md and docs/*.md resolves to an
   existing file (external http(s) links and #anchors are skipped).
2. Every MPIWASM_* identifier appearing in src/ is documented in
   docs/TUNING.md (substring match, so MPIWASM_COLL_ prefixes are covered
   by any fully spelled variable).
3. Every MPIWASM_* identifier appearing in docs/TUNING.md appears in src/,
   bench/ or CMakeLists.txt (substring match), so the docs of a deleted
   variable or option cannot outlive it.
4. Every *.md file a `//` comment in src/, bench/ or tests/ names exists,
   resolved from the repository root (bare names also from docs/).

Exit code 0 when all hold; prints every violation otherwise.
"""
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
failures = []


def check_links():
    md_files = ["README.md"] + [
        os.path.join("docs", f)
        for f in sorted(os.listdir(os.path.join(ROOT, "docs")))
        if f.endswith(".md")
    ]
    link_re = re.compile(r"\[[^\]]*\]\(([^)]+)\)")
    for md in md_files:
        text = open(os.path.join(ROOT, md), encoding="utf-8").read()
        for target in link_re.findall(text):
            if target.startswith(("http://", "https://", "#", "mailto:")):
                continue
            target = target.split("#", 1)[0]
            if not target:
                continue
            base = os.path.dirname(os.path.join(ROOT, md))
            if not os.path.exists(os.path.join(base, target)):
                failures.append(f"{md}: broken link -> {target}")


TOKEN_RE = re.compile(r"MPIWASM_[A-Z0-9_]+")


def source_text(top):
    """Concatenated text of every C++ source file under `top`."""
    parts = []
    for dirpath, _dirnames, filenames in os.walk(os.path.join(ROOT, top)):
        for fn in sorted(filenames):
            if fn.endswith((".h", ".cc", ".inc")):
                with open(os.path.join(dirpath, fn), encoding="utf-8") as f:
                    parts.append(f.read())
    return "\n".join(parts)


def check_tuning_coverage(tuning, src):
    tokens = set(TOKEN_RE.findall(src))
    for tok in sorted(tokens):
        # A prefix token like MPIWASM_COLL_ is covered by any documented
        # variable that starts with it.
        if tok.rstrip("_") in tuning or any(
            t.startswith(tok) for t in TOKEN_RE.findall(tuning)
        ):
            continue
        failures.append(f"docs/TUNING.md: undocumented variable {tok}")


def check_tuning_tokens_exist(tuning, src):
    with open(os.path.join(ROOT, "CMakeLists.txt"), encoding="utf-8") as f:
        code = "\n".join([src, source_text("bench"), f.read()])
    for tok in sorted(set(TOKEN_RE.findall(tuning))):
        if tok not in code:
            failures.append(
                f"docs/TUNING.md: {tok} appears in no file under src/, bench/ "
                f"or in CMakeLists.txt")


def check_comment_doc_refs():
    md_re = re.compile(r"[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b")
    for top in ("src", "bench", "tests"):
        for dirpath, _dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            for fn in sorted(filenames):
                if not fn.endswith((".h", ".cc", ".inc")):
                    continue
                path = os.path.join(dirpath, fn)
                rel = os.path.relpath(path, ROOT)
                with open(path, encoding="utf-8") as f:
                    for lineno, line in enumerate(f, 1):
                        start = line.find("//")
                        if start < 0:
                            continue
                        for name in md_re.findall(line[start:]):
                            candidates = [name]
                            if "/" not in name:
                                candidates.append(os.path.join("docs", name))
                            if not any(os.path.exists(os.path.join(ROOT, c))
                                       for c in candidates):
                                failures.append(
                                    f"{rel}:{lineno}: comment names missing "
                                    f"file {name}")


def main():
    check_links()
    with open(os.path.join(ROOT, "docs", "TUNING.md"), encoding="utf-8") as f:
        tuning = f.read()
    src = source_text("src")
    check_tuning_coverage(tuning, src)
    check_tuning_tokens_exist(tuning, src)
    check_comment_doc_refs()
    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print("docs checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
