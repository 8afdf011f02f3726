"""Suspend-safety checkers for the coroutine I/O engine.

SUS001  A lock/latch/semaphore guard (std::lock_guard / unique_lock /
        scoped_lock / shared_lock, or a pinned storage::PageGuard) is live
        across a `co_await` in the same scope. Host-thread locks held across
        a simulated suspension either deadlock the calibrator's real threads
        or serialize the whole timeline; a PageGuard pinned across an
        unrelated await extends the pin for arbitrary simulated time and
        shrinks the effective pool capacity. Semaphore critical sections
        (`co_await x.WaitAcquire()` ... `x.Release()` in the same function)
        are flagged when another co_await sits strictly between acquire and
        release — allowlist the site if the hold time is modeled on purpose.

SUS002  A capturing lambda-coroutine is spawned as a temporary (immediately
        invoked, or passed as a call argument). A lambda coroutine's frame
        references the closure object itself; when the closure is a
        temporary it dies at the end of the full expression, so every
        capture — by reference or by value — dangles at the first resume.
        The safe idiom is a named lambda whose scope outlives the frame
        (`auto worker = [&]() -> sim::Task {...}; worker();`).
"""

import re

from pioqo_lint.scanner import Violation, function_extents, match_balanced

GUARD_TYPES = r"(?:lock_guard|unique_lock|scoped_lock|shared_lock|PageGuard)"

# `std::lock_guard<std::mutex> g(mu);`, `storage::PageGuard guard(pool, pid);`
GUARD_DECL = re.compile(
    r"\b(?:std::|storage::)?(" + GUARD_TYPES + r")\b\s*(?:<[^;{}()]*>)?\s+"
    r"([A-Za-z_]\w*)\s*[({=]")

CO_AWAIT = re.compile(r"\bco_await\b")

# `co_await <obj-expr>.WaitAcquire(` — obj-expr is a dotted/arrow chain.
SEM_ACQUIRE = re.compile(
    r"\bco_await\s+((?:[A-Za-z_]\w*(?:\.|->|::))*[A-Za-z_]\w*)"
    r"\s*\.\s*WaitAcquire\s*\(")
SEM_RELEASE = re.compile(
    r"((?:[A-Za-z_]\w*(?:\.|->|::))*[A-Za-z_]\w*)\s*\.\s*Release\s*\(")

SUS001_MESSAGE = (
    "guard '{0}' is held across a co_await; a suspension under a lock/pin "
    "stalls every other simulated activity for the whole wait (scope the "
    "guard to end before the await, or allowlist if the hold is modeled "
    "deliberately)")

# Lambda header with a trailing return type naming Task. The capture list is
# group 1; an empty list means nothing can dangle.
LAMBDA_CORO = re.compile(
    r"\[([^\[\]]*)\]\s*(?:\([^()]*\)\s*)?(?:mutable\s*)?"
    r"->\s*(?:[\w:]+::)?Task\b")

SUS002_MESSAGE = (
    "capturing lambda-coroutine spawned as a temporary; the closure object "
    "dies at the end of this full expression while the frame lives on, so "
    "every capture dangles at the first resume — name the lambda in a scope "
    "that outlives the frame")


def check_sus002(src):
    violations = []
    code = src.code
    for m in LAMBDA_CORO.finditer(code):
        captures = m.group(1).strip()
        if not captures:
            continue
        # Operator overload false-positive guard: `operator[]` etc. never
        # match because the capture group would contain no '&'/'='/ident —
        # but an array subscript `a[i]` can; require a real lambda by
        # checking the body brace exists.
        body = code.find("{", m.end())
        if body < 0:
            continue
        end = match_balanced(code, body)
        if end < 0:
            continue
        # What precedes the lambda? `=`/`return` bind it to a named object or
        # hand it to the caller; `(` or `,` pass the temporary into a call.
        before = code[:m.start()].rstrip()
        prev = before[-1] if before else ""
        # What follows the body? `(` invokes the temporary immediately.
        after = code[end:].lstrip()
        invoked_immediately = after.startswith("(")
        passed_as_argument = prev in "(,"
        if invoked_immediately or passed_as_argument:
            lineno = src.line_at(m.start())
            violations.append(Violation(src.rel, lineno, "SUS002",
                                        SUS002_MESSAGE, src.raw_line(lineno)))
    return violations


def _function_events(code, start, end):
    """Collects (offset, kind, payload) events inside one function body."""
    events = []
    for i in range(start, end):
        if code[i] == "{":
            events.append((i, "open", None))
        elif code[i] == "}":
            events.append((i, "close", None))
    body = code[start:end]
    for m in GUARD_DECL.finditer(body):
        events.append((start + m.start(), "guard", (m.group(1), m.group(2))))
    for m in SEM_ACQUIRE.finditer(body):
        events.append((start + m.start(), "acquire", m.group(1)))
    for m in SEM_RELEASE.finditer(body):
        events.append((start + m.start(), "release", m.group(1)))
    for m in CO_AWAIT.finditer(body):
        events.append((start + m.start(), "await", None))
    events.sort(key=lambda e: (e[0], e[1] == "open"))
    return events


def check_sus001(src):
    violations = []
    code = src.code
    for fstart, fend in function_extents(code):
        events = _function_events(code, fstart, fend)
        # Semaphore tracking only applies to objects both acquired and
        # released in this function — acquire-only objects are handoff
        # protocols (e.g. prefetch slots released by a different coroutine).
        acquired = {p for _, k, p in events if k == "acquire"}
        released = {p for _, k, p in events if k == "release"}
        tracked = acquired & released
        depth = 0
        guards = []       # (depth, type, name, offset)
        held = {}         # obj -> acquire offset
        for off, kind, payload in events:
            if kind == "open":
                depth += 1
            elif kind == "close":
                depth -= 1
                guards = [g for g in guards if g[0] <= depth]
                if depth <= 0:
                    held.clear()
            elif kind == "guard":
                guards.append((depth, payload[0], payload[1], off))
            elif kind == "acquire":
                if payload in tracked:
                    held[payload] = off
            elif kind == "release":
                held.pop(payload, None)
            elif kind == "await":
                # The acquiring co_await itself is not "held across".
                live_sems = [obj for obj, aoff in held.items()
                             if off > aoff + 8]
                lineno = src.line_at(off)
                line = src.raw_line(lineno)
                for _, gtype, gname, goff in guards:
                    if off > goff:
                        violations.append(Violation(
                            src.rel, lineno, "SUS001",
                            SUS001_MESSAGE.format(f"{gtype} {gname}"), line))
                for obj in live_sems:
                    violations.append(Violation(
                        src.rel, lineno, "SUS001",
                        SUS001_MESSAGE.format(f"semaphore {obj}"), line))
    return violations
