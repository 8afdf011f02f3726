// RND001 good fixture: an explicitly seeded Pcg32. Mentions of
// std::random_device in comments and strings are not code.
#include "common/rng.h"

const char* kNote = "std::random_device";

unsigned Draw() {
  pioqo::Pcg32 rng(/*seed=*/42);
  return rng.Next();
}
