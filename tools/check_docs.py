#!/usr/bin/env python3
"""Documentation hygiene checker.

Verifies, across every git-tracked file:

1. `DESIGN.md §N` references (the form source comments use) point at a
   real `§N` section heading in DESIGN.md;
2. relative markdown links in *.md files point at files that exist;
3. `#anchor` fragments in those links match a heading of the target
   markdown file (GitHub heading-slug rules).

With `--awbsim PATH` it checks instead that every README
"### `<command>` flags" table lists exactly the flags (aliases included)
that `PATH --help`, generated from the parser's own flag tables, lists
for that command.

Run from the repository root (CI docs job and the `docs_check` ctest do).
Exits non-zero listing every problem found.
"""

import re
import subprocess
import sys
from pathlib import Path

TEXT_SUFFIXES = {".md", ".hpp", ".cpp", ".py", ".yml", ".yaml", ".txt",
                 ".cmake", ".sh"}
SECTION_REF = re.compile(r"DESIGN\.md\s*§(\d+)")
MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
HEADING = re.compile(r"^(#{1,6})\s+(.*?)\s*$", re.MULTILINE)
FLAG = re.compile(r"--[a-z0-9][a-z0-9-]*")


def tracked_files():
    out = subprocess.run(["git", "ls-files"], check=True,
                         capture_output=True, text=True).stdout
    return [Path(p) for p in out.splitlines()
            if Path(p).suffix in TEXT_SUFFIXES or Path(p).name == "CMakeLists.txt"]


def github_slug(heading, seen):
    """GitHub's heading→anchor rule: lowercase, drop everything but
    alphanumerics/spaces/hyphens/underscores, spaces to hyphens,
    -N suffixes for duplicates."""
    slug = heading.strip().lower()
    slug = re.sub(r"[^\w\- ]", "", slug, flags=re.UNICODE)
    slug = slug.replace(" ", "-")
    # GitHub treats non-ASCII word characters as keepable, but our docs
    # are ASCII once § and punctuation are stripped.
    slug = re.sub(r"[^a-z0-9\-_]", "", slug)
    if slug in seen:
        seen[slug] += 1
        return f"{slug}-{seen[slug]}"
    seen[slug] = 0
    return slug


def anchors_of(md_path, cache={}):
    if md_path not in cache:
        seen = {}
        text = md_path.read_text(encoding="utf-8")
        # Strip fenced code blocks so commented-out headings don't count.
        text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
        cache[md_path] = {github_slug(m.group(2), seen)
                          for m in HEADING.finditer(text)}
    return cache[md_path]


def design_sections():
    design = Path("DESIGN.md")
    if not design.is_file():
        return design, set()
    secs = set()
    for m in HEADING.finditer(design.read_text(encoding="utf-8")):
        sm = re.match(r"§(\d+)\b", m.group(2))
        if sm:
            secs.add(sm.group(1))
    return design, secs


def usage_flags(awbsim):
    """Flags per command, read from the generated `awbsim --help`."""
    usage = subprocess.run([awbsim, "--help"], check=True,
                           capture_output=True, text=True).stdout
    flags, cmd = {}, None
    for line in usage.splitlines():
        m = re.match(r"  awbsim (\S+)", line)
        if m:
            cmd = m.group(1)
            flags[cmd] = set()
        elif re.match(r"  \S", line):
            cmd = None
        elif cmd and line.startswith("      -"):
            names = re.split(r"\s{2,}", line.strip())[0]
            flags[cmd].update(FLAG.findall(names))
    return flags


def check_flag_tables(awbsim):
    usage, tables, cmd = usage_flags(awbsim), {}, None
    for line in Path("README.md").read_text(encoding="utf-8").splitlines():
        m = re.match(r"#+ `([^`]+)` flags\s*$", line)
        if m or line.startswith("#"):
            cmd = m.group(1) if m else None
        elif cmd and line.startswith("|"):
            tables.setdefault(cmd, set()).update(
                FLAG.findall(line.split("|")[1]))
    return [f"README.md `{cmd}` flags table "
            f"{'lists' if f in documented else 'lacks'} {f}, but "
            f"`awbsim --help` {'does not' if f in documented else 'does'}"
            for cmd, documented in tables.items()
            for f in sorted(documented ^ usage.get(cmd, set()))]


def check_links():
    errors = []
    design, sections = design_sections()

    for path in tracked_files():
        try:
            text = path.read_text(encoding="utf-8")
        except (UnicodeDecodeError, FileNotFoundError):
            continue

        # 1. DESIGN.md §N references, in any tracked file.
        for m in SECTION_REF.finditer(text):
            if not design.is_file():
                errors.append(f"{path}: cites DESIGN.md §{m.group(1)} "
                              "but DESIGN.md does not exist")
            elif m.group(1) not in sections:
                errors.append(f"{path}: cites DESIGN.md §{m.group(1)} "
                              f"but DESIGN.md has no §{m.group(1)} heading")

        # 2./3. Markdown links in markdown files.
        if path.suffix != ".md":
            continue
        body = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
        for m in MD_LINK.finditer(body):
            target = m.group(1)
            if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # URL scheme
                continue
            if target.startswith("#"):
                if target[1:] not in anchors_of(path):
                    errors.append(f"{path}: dangling anchor '{target}'")
                continue
            file_part, _, anchor = target.partition("#")
            dest = (path.parent / file_part).resolve()
            if not dest.exists():
                errors.append(f"{path}: broken link '{target}' "
                              f"(no such file {file_part})")
                continue
            try:
                dest.relative_to(Path.cwd().resolve())
            except ValueError:
                errors.append(f"{path}: link '{target}' escapes the "
                              "repository (invalid on GitHub)")
                continue
            if anchor and dest.suffix == ".md":
                if anchor not in anchors_of(dest):
                    errors.append(f"{path}: dangling anchor '{target}'")

    return errors


def main():
    if len(sys.argv) == 3 and sys.argv[1] == "--awbsim":
        errors = check_flag_tables(sys.argv[2])
        ok = "every README flags table matches `awbsim --help`"
    else:
        errors = check_links()
        ok = ("all markdown links, anchors and DESIGN.md section "
              "references resolve")
    if errors:
        print(f"docs check: {len(errors)} problem(s)")
        for e in errors:
            print("  " + e)
        return 1
    print("docs check: " + ok)
    return 0


if __name__ == "__main__":
    sys.exit(main())
