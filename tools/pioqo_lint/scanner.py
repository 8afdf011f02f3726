"""Shared scanning core for pioqo's project-specific static analysis.

Every checker in this package works on the same lightweight view of a C++
translation unit: the raw text, a comment/string-stripped copy (so rules
never fire inside comments or literals), per-line access to both, and a few
structural helpers (statement iteration, balanced-paren matching, function
extents). Nothing here parses C++ for real — the rules are deliberately
narrow, pattern-shaped invariants whose false positives are suppressed
through the allowlist (tools/static_analysis_allowlist.txt):

    <path-suffix>:<rule-id>:<substring-of-flagged-line>
"""

import re
import sys
from collections import namedtuple
from pathlib import Path

Violation = namedtuple("Violation", ["rel", "lineno", "rule", "message", "line"])

# File extensions the suite scans.
SOURCE_SUFFIXES = (".h", ".cc")


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, preserving line breaks."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c == "'" and i > 0 and (text[i - 1].isalnum() or text[i - 1] == "_"):
            # Digit separator (100'000) or suffix position — not a literal.
            out.append(c)
            i += 1
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            blank = "".join(ch if ch == "\n" else " " for ch in text[i + 1:max(i + 1, j - 1)])
            out.append(quote + blank + (quote if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


class SourceFile:
    """One scanned file: raw text plus its comment/string-stripped twin."""

    def __init__(self, path, rel, text):
        self.path = path
        self.rel = rel
        self.text = text
        self.code = strip_comments_and_strings(text)
        self.lines = self.code.splitlines()
        self.raw_lines = text.splitlines()
        # line_of[i] == 1-based line number of character offset i in `code`.
        self._line_offsets = []
        off = 0
        for line in self.code.splitlines(keepends=True):
            self._line_offsets.append(off)
            off += len(line)

    @classmethod
    def load(cls, path, rel):
        return cls(path, rel, path.read_text(encoding="utf-8", errors="replace"))

    def line_at(self, offset):
        """1-based line number of character `offset` within the stripped code."""
        lo, hi = 0, len(self._line_offsets) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self._line_offsets[mid] <= offset:
                lo = mid
            else:
                hi = mid - 1
        return lo + 1

    def raw_line(self, lineno):
        if 1 <= lineno <= len(self.raw_lines):
            return self.raw_lines[lineno - 1].strip()
        return ""


def iter_statements(code):
    """Yields (start_offset, text, terminator) for spans between ';'/'{'/'}'.

    This is a statement-shaped split, not a parse: `for(;;)` headers split
    into fragments (they start with `for` and are skipped by the rules) and
    lambdas split around their braces (callers treat unbalanced fragments as
    unprovable and skip them).
    """
    start = 0
    for i, c in enumerate(code):
        if c in ";{}":
            yield start, code[start:i], c
            start = i + 1
    if start < len(code):
        yield start, code[start:], ""


def match_balanced(code, open_pos):
    """Offset just past the parenthesis/brace matching code[open_pos], or -1."""
    pairs = {"(": ")", "{": "}", "[": "]"}
    opener = code[open_pos]
    closer = pairs[opener]
    depth = 0
    for i in range(open_pos, len(code)):
        if code[i] == opener:
            depth += 1
        elif code[i] == closer:
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


# A `{` that opens a function body follows a parameter list (possibly with
# const/noexcept/override/trailing-return decoration), not a class head,
# enum, initializer, or control-flow keyword.
_FUNCTION_HEAD = re.compile(
    r"\)\s*(?:const\b)?\s*(?:noexcept\b(?:\s*\([^()]*\))?)?\s*"
    r"(?:override\b)?\s*(?:final\b)?\s*(?:->\s*[\w:<>,&*\s]+?)?\s*$")
_CONTROL_KEYWORD = re.compile(
    r"\b(if|for|while|switch|catch|return|co_return|co_await|co_yield|new|"
    r"sizeof|alignof|decltype)\s*\([^{]*$")


def function_extents(code):
    """Yields (body_start, body_end) offsets of likely function bodies.

    `body_start` is the offset of the opening '{', `body_end` the offset just
    past its matching '}'. Nested lambdas are contained within their
    enclosing extent (extents for them are not emitted separately).
    """
    i = 0
    n = len(code)
    while i < n:
        if code[i] != "{":
            i += 1
            continue
        head = code[max(0, i - 200):i]
        if _FUNCTION_HEAD.search(head) and not _CONTROL_KEYWORD.search(head):
            end = match_balanced(code, i)
            if end > 0:
                yield i, end
                i = end
                continue
        i += 1


def load_allowlist(path):
    """Parses `<path-suffix>:<rule-id>:<substring>` entries; exits 2 on junk."""
    entries = []
    if path is None or not path.is_file():
        return entries
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(":", 2)
        if len(parts) != 3:
            print(f"allowlist: malformed entry (need path:rule:fragment): "
                  f"{raw}", file=sys.stderr)
            sys.exit(2)
        entries.append((parts[0], parts[1], parts[2]))
    return entries


def is_allowed(allowlist, violation):
    for suffix, rule, fragment in allowlist:
        if (violation.rel.endswith(suffix) and rule == violation.rule
                and fragment in violation.line):
            return True
    return False


def stale_entries(allowlist, violations, rules):
    """Entries for a rule in `rules` that suppress none of `violations`."""
    return [entry for entry in allowlist
            if entry[1] in rules
            and not any(is_allowed([entry], v) for v in violations)]


def collect_files(targets):
    """Expands files/directories into a sorted list of .h/.cc paths."""
    files = []
    for target in targets:
        p = Path(target)
        if p.is_dir():
            for suffix in SOURCE_SUFFIXES:
                files.extend(sorted(p.rglob(f"*{suffix}")))
        elif p.is_file():
            files.append(p)
        else:
            print(f"pioqo-lint: no such path: {target}", file=sys.stderr)
            sys.exit(2)
    return files


def relativize(path, root):
    try:
        return str(path.resolve().relative_to(root))
    except ValueError:
        return str(path)
