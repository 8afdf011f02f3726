"""pioqo-lint: project-specific static analysis for the coroutine I/O engine.

Rules (see cli.RULES and the rule modules for details):
  SUS001  guard/latch/semaphore or PageGuard held across co_await
  SUS002  capturing lambda-coroutine spawned as a dying temporary
  ERR001  awaited Status discarded by a bare `co_await x.Read(...);`
  ARCH001 include-graph layering enforcement
  PERF001 std::function in the simulator / I/O hot paths
  PERF002 node-based containers in the per-page layers
  RND001-003, PORT001, WALL001, SEED001, ORD001
          determinism of the simulated paths

Run it as:
    python3 tools/pioqo_lint --root .
"""
