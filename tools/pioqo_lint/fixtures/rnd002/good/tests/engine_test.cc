// RND002 good fixture: tests/ is not a simulated path.
#include <random>

unsigned Draw() {
  std::mt19937 gen(42);
  return gen();
}
