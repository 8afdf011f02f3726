// RND003 good fixture: jitter from a seeded Pcg32; Operand() only ends in
// "rand".
#include "common/rng.h"

int Operand() { return 3; }

int Jitter(pioqo::Pcg32& rng) {
  return static_cast<int>(rng.UniformBelow(10)) + Operand();
}
