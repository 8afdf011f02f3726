// SEED001 good fixture: seeds are explicit constants or configuration.
#include <cstdint>

#include "common/rng.h"

void Reseed(pioqo::Pcg32& rng, uint64_t config_seed) { rng.seed(config_seed); }
