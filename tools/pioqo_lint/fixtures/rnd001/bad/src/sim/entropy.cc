// RND001 bad fixture: host entropy inside a simulated layer.
#include <random>

unsigned Draw() {
  std::random_device rd;
  return rd();
}
