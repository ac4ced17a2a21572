#!/usr/bin/env python3
"""Checks that relative links in the repo's markdown files resolve.

Scans every tracked *.md file for inline links/images and validates the
ones that point inside the repository: the target file must exist, and a
`#fragment` on a markdown target must match a heading's GitHub anchor.
External (scheme://), mailto: and bare-anchor (#...) links are ignored.

Additionally validates options-knob references: every `SomethingOptions::
field` token in a markdown file must name a struct that exists under
src/**/*.h and a member that appears in its body, so docs can never drift
from the API headers silently. In docs/*.md and README.md the same holds
for any `Type::member` token whose type is a class, struct or enum class
under src/**/*.h (ROADMAP.md and CHANGES.md name proposed and removed API
on purpose, so they are left out of this wider rule).

Usage: scripts/check_markdown_links.py [root]
Exits non-zero listing every dangling link or unknown knob.
"""
import os
import re
import sys
import unicodedata

LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
CODE_FENCE_RE = re.compile(r"^(```|~~~)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)")
# Knob references in prose/code spans: `ContextOptions::auto_cache`,
# `AutoCacheOptions::free_grace_seconds`, ...
OPTIONS_REF_RE = re.compile(r"\b([A-Z]\w*Options)::(\w+)\b")
# Any member reference: `TaskScheduler::pending_task_sets`, ...
MEMBER_REF_RE = re.compile(r"\b([A-Z]\w*)::(\w+)\b")
TYPE_RE = re.compile(r"\b(?:struct|class|enum\s+class)\s+([A-Z]\w*)\b[^;{]*\{")


def github_anchor(heading):
    """The anchor GitHub generates for a heading."""
    text = unicodedata.normalize("NFKC", heading.strip().lower())
    text = re.sub(r"[`*_]", "", text)              # inline formatting
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # links -> text
    out = []
    for ch in text:
        if ch.isalnum() or ch in "-_":
            out.append(ch)
        elif ch in " ":
            out.append("-")
        # everything else (punctuation) is dropped
    return "".join(out)


def md_files(root):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames
                       if d not in {".git", "build", ".github"}
                       and not d.startswith("build")]
        for name in filenames:
            if name.endswith(".md"):
                yield os.path.join(dirpath, name)


def anchors_of(path, cache={}):
    if path not in cache:
        anchors = set()
        in_fence = False
        with open(path, encoding="utf-8") as f:
            for line in f:
                if CODE_FENCE_RE.match(line):
                    in_fence = not in_fence
                    continue
                if in_fence:
                    continue
                m = HEADING_RE.match(line)
                if m:
                    anchors.add(github_anchor(m.group(1)))
        cache[path] = anchors
    return cache[path]


def header_types(root, cache={}):
    """Maps every class, struct and enum class under src/**/*.h to its
    brace-matched body text (all definitions concatenated if a name
    repeats)."""
    if "done" not in cache:
        cache["done"] = {}
        structs = cache["done"]
        for dirpath, _, filenames in os.walk(os.path.join(root, "src")):
            for name in filenames:
                if not name.endswith(".h"):
                    continue
                with open(os.path.join(dirpath, name),
                          encoding="utf-8") as f:
                    text = f.read()
                for m in TYPE_RE.finditer(text):
                    depth, i = 1, m.end()
                    while i < len(text) and depth > 0:
                        if text[i] == "{":
                            depth += 1
                        elif text[i] == "}":
                            depth -= 1
                        i += 1
                    structs[m.group(1)] = (
                        structs.get(m.group(1), "") + text[m.end():i])
    return cache["done"]


def in_member_scope(path, root):
    """docs/*.md and the top-level README.md."""
    rel = os.path.relpath(path, root).replace(os.sep, "/")
    return rel == "README.md" or re.fullmatch(r"docs/[^/]+\.md", rel)


def check_member_refs(path, root):
    """Every SomethingOptions::field token must name a real header struct
    and a member that appears in its body (code fences included: that is
    where most knob references live). In member scope, a Type::member
    token whose type is a header class, struct or enum class must name a
    member that appears in its body; other *::* tokens (std::, Spark
    classes) are not checked."""
    types = header_types(root)
    wide = in_member_scope(path, root)
    errors = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            refs = [(m, True) for m in OPTIONS_REF_RE.finditer(line)]
            if wide:
                refs += [(m, False) for m in MEMBER_REF_RE.finditer(line)
                         if not OPTIONS_REF_RE.fullmatch(m.group(0))]
            for m, is_knob in refs:
                name, member = m.group(1), m.group(2)
                if name not in types:
                    if is_knob:
                        errors.append(
                            f"{path}:{lineno}: unknown options struct "
                            f"'{name}' (no such struct under src/**/*.h)")
                elif not re.search(rf"\b{re.escape(member)}\b",
                                   types[name]):
                    errors.append(
                        f"{path}:{lineno}: '{name}::{member}' names no "
                        f"member of {name}")
    return errors


def check_file(path, root):
    errors = []
    in_fence = False
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if CODE_FENCE_RE.match(line):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            for m in LINK_RE.finditer(line):
                target = m.group(1)
                if (re.match(r"^[a-z][a-z0-9+.-]*:", target)  # scheme://
                        or target.startswith("#")):
                    continue
                target_path, _, fragment = target.partition("#")
                resolved = os.path.normpath(
                    os.path.join(os.path.dirname(path), target_path))
                if not os.path.exists(resolved):
                    errors.append(f"{path}:{lineno}: dangling link "
                                  f"'{target}' -> {resolved}")
                    continue
                if fragment and resolved.endswith(".md"):
                    if fragment not in anchors_of(resolved):
                        errors.append(f"{path}:{lineno}: missing anchor "
                                      f"'#{fragment}' in {resolved}")
    return errors


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    errors = []
    checked = 0
    for path in sorted(md_files(root)):
        checked += 1
        errors.extend(check_file(path, root))
        errors.extend(check_member_refs(path, root))
    for e in errors:
        print(e, file=sys.stderr)
    print(f"check_markdown_links: {checked} files, {len(errors)} bad "
          "links/knobs")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
