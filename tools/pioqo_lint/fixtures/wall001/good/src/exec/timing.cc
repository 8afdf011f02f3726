// WALL001 good fixture: simulated time comes from Simulator::Now().
#include "sim/simulator.h"

double Elapsed(pioqo::sim::Simulator& sim, double start) {
  return sim.Now() - start;
}
