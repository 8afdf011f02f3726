// SEED001 bad fixture: a seed drawn from the wall clock.
#include <ctime>

#include "common/rng.h"

void Reseed(pioqo::Pcg32& rng) { rng.seed(time(nullptr)); }
