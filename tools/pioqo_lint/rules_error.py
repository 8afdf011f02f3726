"""ERR001 — an awaited Status discarded by a bare `co_await`.

The fault-injection layer threads `Status` through every completion path so
queries fail cleanly instead of silently assuming success; a call site that
drops a returned Status undoes all of that. `[[nodiscard]]` on `Status`,
`StatusOr`, `IoResult` and `sim::Task`, with `-Werror=unused-result` in every
build, makes the compiler reject a plain call that drops one. It cannot see
this shape:

    co_await device.Read(...);

The awaiter's `await_resume` returns the Status, and GCC 12 does not warn
when a `co_await` expression's result is discarded, even when
`await_resume` is `[[nodiscard]]`. So the rule flags a statement that is
nothing but `co_await <chain>.Name(...)` where `Name` is declared in the
scanned set as returning an `IoAwaiter` (whose `await_resume` returns
Status). The index is name-based, so the rule needs no compiler.
"""

import re

from pioqo_lint.scanner import Violation, iter_statements, match_balanced

# Methods whose awaiter resumes to a Status (e.g. `IoAwaiter Read(...)`).
AWAITABLE_STATUS_DECL = re.compile(
    r"(?:^|[;{}\s])(?:io::)?IoAwaiter\s+"
    r"(?:[A-Za-z_]\w*::)*([A-Za-z_]\w*)\s*\(", re.MULTILINE)

# `co_await <chain>.Name(...)` as an entire statement.
AWAIT_CALL = re.compile(
    r"^\s*co_await\s+((?:[A-Za-z_]\w*\s*(?:::|\.|->)\s*)*)"
    r"([A-Za-z_]\w*)\s*\(")

ERR001_MESSAGE = (
    "discarded awaited Status from '{0}'; handle it, propagate it "
    "(PIOQO_RETURN_IF_ERROR), or allowlist with a justification")


def build_awaitable_index(sources):
    """Names of methods returning an IoAwaiter anywhere in the scanned set."""
    names = set()
    for src in sources:
        names.update(AWAITABLE_STATUS_DECL.findall(src.code))
    return names


def check_err001(src, awaitable_index):
    violations = []
    for start, stmt, term in iter_statements(src.code):
        if term != ";":
            continue
        m = AWAIT_CALL.match(stmt)
        if not m or m.group(2) not in awaitable_index:
            continue
        open_paren = stmt.index("(", m.end(2))
        close = match_balanced(stmt, open_paren)
        if close < 0 or stmt[close:].strip():
            continue
        lead = len(stmt) - len(stmt.lstrip())
        lineno = src.line_at(start + lead)
        violations.append(Violation(
            src.rel, lineno, "ERR001", ERR001_MESSAGE.format(m.group(2)),
            src.raw_line(lineno)))
    return violations
