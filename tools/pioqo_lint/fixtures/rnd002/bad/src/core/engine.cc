// RND002 bad fixture: a <random> engine in a simulated layer.
#include <random>

unsigned Draw() {
  std::mt19937 gen(42);
  return gen();
}
