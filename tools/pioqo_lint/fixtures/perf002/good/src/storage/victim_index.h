#ifndef FIXTURE_STORAGE_VICTIM_INDEX_GOOD_H_
#define FIXTURE_STORAGE_VICTIM_INDEX_GOOD_H_

// PERF002 good fixture: the per-page structures use a vector indexed by
// page id and an intrusive LRU threaded through the frame slab; a std::list
// mentioned only in a comment must not fire.
#include <vector>

namespace pioqo::storage {

class VictimIndex {
 public:
  void Pin(const std::vector<unsigned long>& pages);

 private:
  struct Frame {
    unsigned lru_prev = 0;
    unsigned lru_next = 0;
  };
  std::vector<Frame> slab_;
  std::vector<unsigned> frames_;
};

}  // namespace pioqo::storage

#endif
