// WALL001 good fixture: bench/ times the host on purpose and is not
// judged.
#include <chrono>

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
