"""Command-line driver for the pioqo static-analysis suite.

Usage:
    python3 tools/pioqo_lint [--root DIR] [--allowlist FILE] [--rules R1,R2]
                             [--list-rules] [--self-test] [paths...]

Default scan set: src/ bench/ tests/ examples/ under --root (each rule
judges only the layers it is about). Exits 0 when clean, 1 when violations
were found (on a default-scan-set run, an allowlist entry of an enabled rule
that suppresses nothing counts as one), 2 on usage errors. See the rule
modules for what each checker enforces and tools/static_analysis_allowlist.txt
for the suppression format.
"""

import argparse
import sys
from pathlib import Path

from pioqo_lint import (rules_arch, rules_determinism, rules_error, rules_perf,
                        rules_suspend)
from pioqo_lint.scanner import (SourceFile, collect_files, is_allowed,
                                load_allowlist, relativize, stale_entries)

DEFAULT_SCAN_DIRS = ("src", "bench", "tests", "examples")
DEFAULT_ALLOWLIST = Path("tools") / "static_analysis_allowlist.txt"

RULES = {
    "SUS001": "guard/latch/semaphore or PageGuard held across co_await",
    "SUS002": "capturing lambda-coroutine spawned as a dying temporary",
    "ERR001": "awaited Status discarded by a bare `co_await x.Read(...);`",
    "ARCH001": "include-graph layering (common ← sim ← io ← storage ← core "
               "← exec ← opt ← db; bench/tests/examples are sinks)",
    "PERF001": "std::function declared in a hot-path layer (src/sim, src/io);"
               " use sim::InlineFunction",
    "PERF002": "node-based container (std::list/map/set) in a per-page layer "
               "(src/storage, src/exec); use a vector indexed by id, a "
               "sorted vector, or an intrusive structure",
    "RND001": "std::random_device (host entropy) in a simulated path",
    "RND002": "std <random> engine in a simulated path; use pioqo::Pcg32",
    "RND003": "C library rand()/srand()/random() in a simulated path",
    "PORT001": "std::*_distribution (library-specific streams) in a "
               "simulated path",
    "WALL001": "wall-clock read in a simulated path; use Simulator::Now()",
    "SEED001": "seeding from the wall clock or host entropy",
    "ORD001": "range-for over a std::unordered_* container in a simulated "
              "path",
}

DETERMINISM_RULES = {"RND001", "RND002", "RND003", "PORT001", "WALL001",
                     "SEED001", "ORD001"}

# Rules whose fixtures are directory trees (the rule is path-gated), not
# single files.
TREE_FIXTURE_RULES = {"ARCH001", "PERF001", "PERF002"} | DETERMINISM_RULES

FIXTURES_DIR = Path(__file__).resolve().parent / "fixtures"


def scan(sources, enabled_rules):
    """Runs every enabled checker over `sources`; returns raw violations."""
    violations = []
    awaitable_index = rules_error.build_awaitable_index(sources)
    for src in sources:
        if "SUS001" in enabled_rules:
            violations.extend(rules_suspend.check_sus001(src))
        if "SUS002" in enabled_rules:
            violations.extend(rules_suspend.check_sus002(src))
        if "ERR001" in enabled_rules:
            violations.extend(rules_error.check_err001(src, awaitable_index))
        if "ARCH001" in enabled_rules:
            violations.extend(rules_arch.check_arch001(src))
        if "PERF001" in enabled_rules:
            violations.extend(rules_perf.check_perf001(src))
        if "PERF002" in enabled_rules:
            violations.extend(rules_perf.check_perf002(src))
        if enabled_rules & DETERMINISM_RULES:
            violations.extend(rules_determinism.check_determinism(
                src, enabled_rules))
    return violations


def load_sources(files, root):
    return [SourceFile.load(f, relativize(f, root)) for f in files]


def run_self_test(rules):
    """Every rule in `rules` must fire on its bad fixture and stay silent on
    its good one; good fixtures must be clean under the *whole* suite; the
    allowlist must round-trip."""
    failures = []
    for rule in (r for r in RULES if r in rules):
        slug = rule.lower()
        if rule in TREE_FIXTURE_RULES:
            for flavor, expect_hit in (("bad", True), ("good", False)):
                fixture_root = FIXTURES_DIR / slug / flavor
                files = collect_files([fixture_root])
                sources = load_sources(files, fixture_root.resolve())
                hits = [v for v in scan(sources, {rule}) if v.rule == rule]
                if expect_hit and not hits:
                    failures.append(f"{rule} did not fire on {flavor} fixture tree")
                if not expect_hit and hits:
                    failures.append(f"{rule} false positives on {flavor} "
                                    f"fixture tree: {hits}")
            continue
        bad = FIXTURES_DIR / f"{slug}_bad.cc"
        good = FIXTURES_DIR / f"{slug}_good.cc"
        for fixture, expect_hit in ((bad, True), (good, False)):
            src = SourceFile.load(fixture, fixture.name)
            hits = [v for v in scan([src], {rule}) if v.rule == rule]
            if expect_hit and not hits:
                failures.append(f"{rule} did not fire on {fixture.name}")
            if not expect_hit and hits:
                failures.append(f"{rule} false positives on {fixture.name}: "
                                f"{[(v.lineno, v.line) for v in hits]}")
        # Good fixtures must also be clean under every other rule, so the
        # corpus stays a usable "known-good idioms" reference.
        src = SourceFile.load(good, good.name)
        extra = scan([src], set(RULES))
        if extra:
            failures.append(f"other rules fired on {good.name}: "
                            f"{[(v.rule, v.lineno) for v in extra]}")
    # Allowlist suppression round-trips on a known-bad fixture, and only an
    # entry of an enabled rule that suppresses nothing reads as stale.
    if "ERR001" in rules:
        bad = FIXTURES_DIR / "err001_bad.cc"
        src = SourceFile.load(bad, bad.name)
        hits = scan([src], {"ERR001"})
        entries = [(bad.name, v.rule, v.line.strip()[:20]) for v in hits]
        if any(not is_allowed(entries, v) for v in hits):
            failures.append("allowlist entry failed to suppress ERR001")
        stale = (bad.name, "ERR001", "no line holds this fragment")
        other_rule = (bad.name, "SUS001", "no line holds this fragment")
        found = stale_entries(entries + [stale, other_rule], hits, {"ERR001"})
        if found != [stale]:
            failures.append(f"stale allowlist entries misreported: {found}")
    if failures:
        print("pioqo-lint self-test FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"pioqo-lint self-test: {len(rules)} rule(s) fire on bad "
          f"fixtures and stay silent on good ones "
          f"({', '.join(sorted(rules))})")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="pioqo_lint", description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--allowlist",
                        help=f"allowlist file (default: <root>/"
                             f"{DEFAULT_ALLOWLIST})")
    parser.add_argument("--rules",
                        help="comma-separated subset of rules to run")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--self-test", action="store_true",
                        help="run the enabled rules against their fixture "
                             "corpus")
    parser.add_argument("paths", nargs="*",
                        help=f"files/dirs to scan (default: "
                             f"{', '.join(DEFAULT_SCAN_DIRS)})")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, summary in RULES.items():
            print(f"{rule}: {summary}")
        return 0

    enabled = set(RULES)
    if args.rules:
        enabled = {r.strip().upper() for r in args.rules.split(",")}
        unknown = enabled - set(RULES)
        if unknown:
            print(f"pioqo-lint: unknown rule(s): {', '.join(sorted(unknown))}",
                  file=sys.stderr)
            return 2
    if args.self_test:
        return run_self_test(enabled)

    root = Path(args.root).resolve()
    allowlist_path = (Path(args.allowlist) if args.allowlist
                      else root / DEFAULT_ALLOWLIST)
    allowlist = load_allowlist(allowlist_path)

    targets = args.paths or [root / d for d in DEFAULT_SCAN_DIRS
                             if (root / d).is_dir()]
    files = collect_files(targets)
    sources = load_sources(files, root)
    found = scan(sources, enabled)
    violations = [v for v in found if not is_allowed(allowlist, v)]
    violations.sort(key=lambda v: (v.rel, v.lineno, v.rule))
    # Only a scan of the whole tree can tell that an entry matches nothing.
    stale = [] if args.paths else stale_entries(allowlist, found, enabled)

    if violations or stale:
        print(f"pioqo-lint: {len(violations)} violation(s), {len(stale)} "
              f"stale allowlist entr{'y' if len(stale) == 1 else 'ies'}:")
        for v in violations:
            print(f"{v.rel}:{v.lineno}: [{v.rule}] {v.message}")
            print(f"    {v.line}")
        for suffix, rule, fragment in stale:
            print(f"{suffix}:{rule}:{fragment}: allowlist entry suppresses "
                  f"nothing; delete it")
        print(f"\n(allowlist: {allowlist_path})")
        return 1
    print(f"pioqo-lint: {len(files)} file(s) clean "
          f"({', '.join(sorted(enabled))})")
    return 0
