// PORT001 good fixture: Pcg32's own portable range reduction.
#include "common/rng.h"

int Pick(pioqo::Pcg32& rng) {
  return static_cast<int>(rng.UniformBelow(10));
}
