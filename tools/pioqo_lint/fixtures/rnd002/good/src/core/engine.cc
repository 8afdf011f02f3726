// RND002 good fixture: the project's seeded generator.
#include "common/rng.h"

unsigned Draw() {
  pioqo::Pcg32 gen(42);
  return gen.Next();
}
