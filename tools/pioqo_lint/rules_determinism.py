"""RND001-003, PORT001, WALL001, SEED001, ORD001 — determinism of the
simulated paths.

The discrete-event simulator's results (QDTT calibration grids, break-even
points, every figure in EXPERIMENTS.md) are only trustworthy if a run is a
pure function of its seeds. These rules flag constructs that smuggle in
host-dependent or address-dependent behavior:

  RND001  std::random_device              — host entropy; use pioqo::Pcg32
  RND002  std:: <random> engines          — non-reproducible seeding idioms
                                            and platform-varying streams
  RND003  rand()/srand()/random()         — global hidden state
  PORT001 std::*_distribution             — distribution algorithms differ
                                            across standard libraries
  WALL001 wall-clock reads                — simulated time comes from
                                            Simulator::Now()
  SEED001 seeding from wall clock/entropy — e.g. seed(time(nullptr))
  ORD001  iteration over std::unordered_* — bucket order is
                                            implementation-defined; if it
                                            feeds event scheduling the trace
                                            diverges across platforms

Only the layers whose code runs inside (or feeds) the simulated timeline are
judged: src/{sim,io,core,exec,storage} and examples/ (example programs are
copied as starting points, so a wall-clock read there propagates into user
code). bench/ and tests/ time the host on purpose and are not judged.
"""

import re

from pioqo_lint.scanner import Violation, strip_comments_and_strings

SIMULATED_LAYERS = {"sim", "io", "core", "exec", "storage"}

LINE_RULES = {
    "RND001": (
        re.compile(r"\bstd::random_device\b"),
        "std::random_device draws host entropy; route randomness through a "
        "seeded pioqo::Pcg32",
    ),
    "RND002": (
        re.compile(r"\bstd::(mt19937(_64)?|minstd_rand0?|ranlux\w+|"
                   r"knuth_b|default_random_engine)\b"),
        "<random> engines invite unseeded/platform-varying use; use "
        "pioqo::Pcg32 with an explicit seed",
    ),
    "RND003": (
        # rand()/random() take no arguments; srand()/srandom() take the seed,
        # so they must match with arguments too.
        re.compile(r"(?<![\w:])(srand(om)?\s*\(|(rand|random)\s*\(\s*\))"),
        "C library RNG has hidden global state; use pioqo::Pcg32",
    ),
    "PORT001": (
        re.compile(r"\bstd::\w*(uniform_int|uniform_real|normal|bernoulli|"
                   r"poisson|exponential|geometric)_distribution\b"),
        "std distributions produce different streams on different standard "
        "libraries; use Pcg32::UniformInt/UniformBelow/NextDouble",
    ),
    "WALL001": (
        re.compile(r"\bstd::chrono::(system_clock|steady_clock|"
                   r"high_resolution_clock)\b|"
                   r"\bgettimeofday\s*\(|\bclock_gettime\s*\(|"
                   r"(?<![\w:])time\s*\(\s*(NULL|nullptr|0)\s*\)|"
                   r"(?<![\w:.])clock\s*\(\s*\)"),
        "wall-clock reads inside simulated paths; simulated time is "
        "Simulator::Now()",
    ),
    "SEED001": (
        re.compile(r"\b(seed|Seed)\s*\(\s*(time\s*\(|std::random_device|"
                   r"__rdtsc|rdtsc)"),
        "seeding from wall clock or entropy makes runs non-reproducible; "
        "seeds must be explicit constants or config",
    ),
}

ORD001_MESSAGE = (
    "iteration over std::unordered_map/set has implementation-defined order; "
    "if it feeds event scheduling, traces diverge — iterate a sorted view or "
    "use std::map, or allowlist if provably order-insensitive")

UNORDERED_DECL = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;{}]*?>\s+(\w+)\s*[;{=]")
RANGE_FOR = re.compile(r"\bfor\s*\([^;)]*?:\s*\*?(\w+)\s*\)")


def in_scope(rel):
    """True when a repo-relative path is on a simulated path."""
    parts = rel.replace("\\", "/").split("/")
    if len(parts) < 2:
        return False
    if parts[0] == "src":
        return parts[1] in SIMULATED_LAYERS
    # Fixture trees / out-of-tree scans: accept `<layer>/file.h` directly
    # (same convention as ARCH001's layer_of).
    return parts[0] in SIMULATED_LAYERS or parts[0] == "examples"


def unordered_names(src):
    """Names declared as std::unordered_* in `src` or, for a .cc, in its
    paired header (class members iterated from the .cc)."""
    names = set(UNORDERED_DECL.findall(src.code))
    header = src.path.with_suffix(".h")
    if src.path.suffix == ".cc" and header.is_file():
        names |= set(UNORDERED_DECL.findall(strip_comments_and_strings(
            header.read_text(encoding="utf-8", errors="replace"))))
    return names


def check_determinism(src, enabled_rules):
    if not in_scope(src.rel):
        return []
    violations = []
    for lineno, line in enumerate(src.lines, start=1):
        for rule, (pattern, message) in LINE_RULES.items():
            if rule in enabled_rules and pattern.search(line):
                violations.append(Violation(src.rel, lineno, rule, message,
                                            src.raw_line(lineno)))
    if "ORD001" in enabled_rules:
        names = unordered_names(src)
        for lineno, line in enumerate(src.lines, start=1):
            for match in RANGE_FOR.finditer(line):
                if match.group(1) in names:
                    violations.append(Violation(
                        src.rel, lineno, "ORD001",
                        f"{ORD001_MESSAGE} [container '{match.group(1)}']",
                        src.raw_line(lineno)))
    return violations
