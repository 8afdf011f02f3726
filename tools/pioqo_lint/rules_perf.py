"""PERF001/PERF002 — allocation discipline in the hot layers.

PERF001 — no std::function in the simulator / I/O hot paths.

The engine's performance PR (DESIGN.md §11) replaced every per-event
`std::function<void()>` with `sim::InlineFunction` precisely because
libstdc++'s `std::function` heap-allocates any capture over two words —
which made *every scheduled event and every submitted I/O* a malloc/free
pair. PERF001 keeps that fixed: inside `src/sim/` and `src/io/` (the layers
every simulated event flows through), declaring a `std::function` member,
parameter, alias target, or local is flagged. Use `sim::InlineFunction`
(48-byte inline capture, move-only, heap fallback for oversized captures)
instead.

An API that legitimately wants copyable type erasure off the hot path is
suppressed through the shared allowlist
(tools/static_analysis_allowlist.txt), so each exception carries a written
justification.

Other layers (`src/storage` upward, bench/, tests/) are not judged:
`std::function` is fine where calls are per-query or per-experiment rather
than per-event.

PERF002 — no node-based containers in the per-page / per-row layers.

The query-path throughput PR (DESIGN.md §13) rebuilt the buffer pool's page
table and LRU from `std::unordered_map` + `std::list` into an open-addressed
flat table plus an intrusive list embedded in the frame slab: node-based
containers pay a malloc/free and a pointer chase per page touched, which is
the dominant cost once the simulator itself stops allocating. PERF002 keeps
that fixed: inside `src/storage/` and `src/exec/` (every page fetch, LRU
bump, and row visit flows through these layers), declaring a `std::list`,
`std::map`/`std::set` (and multi/unordered variants) member, parameter,
alias target, or local is flagged. Use `pioqo::FlatIntMap`
(common/flat_map.h), a sorted `std::vector`, or an intrusive structure, or
justify the exception in the shared allowlist.

Catalog-scale containers elsewhere (`src/db`'s table map, bench/, tests/)
are not judged: a per-database `std::map` touched once per query is fine.
"""

import re

from pioqo_lint.scanner import Violation

# Layers whose files are on the per-event hot path.
HOT_LAYERS = {"sim", "io"}

STD_FUNCTION = re.compile(r"\bstd\s*::\s*function\s*<")

PERF001_MESSAGE = (
    "std::function in hot-path layer {0}: every capture over two words heap-"
    "allocates; use sim::InlineFunction (sim/inline_function.h) or justify "
    "via the allowlist")


def hot_layer_of(rel):
    """Returns the hot layer name for a repo-relative path, else None."""
    parts = rel.replace("\\", "/").split("/")
    if len(parts) > 1 and parts[0] == "src" and parts[1] in HOT_LAYERS:
        return parts[1]
    # Fixture trees / out-of-tree scans: accept `<layer>/file.h` directly
    # (same convention as ARCH001's layer_of).
    if len(parts) > 1 and parts[0] in HOT_LAYERS:
        return parts[0]
    return None


def check_perf001(src):
    layer = hot_layer_of(src.rel)
    if layer is None:
        return []
    violations = []
    for lineno, line in enumerate(src.lines, start=1):
        if STD_FUNCTION.search(line):
            violations.append(Violation(
                src.rel, lineno, "PERF001",
                PERF001_MESSAGE.format(f"src/{layer}"),
                src.raw_line(lineno)))
    return violations


# Layers where work is per-page / per-row (buffer pool, scan operators).
PAGE_PATH_LAYERS = {"storage", "exec"}

NODE_CONTAINER = re.compile(
    r"\bstd\s*::\s*(?:list|(?:unordered_)?(?:multi)?(?:map|set))\s*<")

PERF002_MESSAGE = (
    "node-based container in per-page layer {0}: std::list/map/set pay a "
    "malloc and a pointer chase per element; use pioqo::FlatIntMap "
    "(common/flat_map.h), a sorted vector, or an intrusive structure, or "
    "justify via the allowlist")


def page_path_layer_of(rel):
    """Returns the per-page layer name for a repo-relative path, else None."""
    parts = rel.replace("\\", "/").split("/")
    if len(parts) > 1 and parts[0] == "src" and parts[1] in PAGE_PATH_LAYERS:
        return parts[1]
    if len(parts) > 1 and parts[0] in PAGE_PATH_LAYERS:
        return parts[0]
    return None


def check_perf002(src):
    layer = page_path_layer_of(src.rel)
    if layer is None:
        return []
    violations = []
    for lineno, line in enumerate(src.lines, start=1):
        if NODE_CONTAINER.search(line):
            violations.append(Violation(
                src.rel, lineno, "PERF002",
                PERF002_MESSAGE.format(f"src/{layer}"),
                src.raw_line(lineno)))
    return violations
