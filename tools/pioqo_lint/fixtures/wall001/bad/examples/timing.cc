// WALL001 bad fixture: examples/ are copied as starting points, so a
// wall-clock read there is judged like one in src/.
#include <chrono>

double Elapsed() {
  const auto start = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}
