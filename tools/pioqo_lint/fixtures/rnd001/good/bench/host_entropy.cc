// RND001 good fixture: bench/ is not a simulated path, so host entropy
// there is not judged.
#include <random>

unsigned Draw() {
  std::random_device rd;
  return rd();
}
