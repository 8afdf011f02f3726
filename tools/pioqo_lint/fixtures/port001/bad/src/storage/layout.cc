// PORT001 bad fixture: a std distribution, whose stream differs across
// standard libraries.
#include <random>

#include "common/rng.h"

int Pick(pioqo::Pcg32& rng) {
  std::uniform_int_distribution<int> d(0, 9);
  return d(rng);
}
