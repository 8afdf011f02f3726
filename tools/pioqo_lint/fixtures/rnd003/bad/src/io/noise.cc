// RND003 bad fixture: the C library RNG's hidden global state.
#include <cstdlib>

int Jitter() { return rand() % 10; }
