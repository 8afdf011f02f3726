#ifndef PIOQO_COMMON_HASH_H_
#define PIOQO_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>

namespace pioqo {

/// splitmix64 finalizer — a full-avalanche mix for integer hash-map keys.
///
/// libstdc++'s `std::hash` for integers is the identity function, so keys
/// with shared low bits (sequential FTL segment ids, monotonically
/// increasing request ids) concentrate in few buckets and hot lookups
/// degrade to list walks. This mixer spreads every input bit across the word
/// in ~5 ALU ops.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Hash functor for integral keys in the device models' hash maps (the SSD's
/// FTL map cache, the fault injector's request-id tables). Accepts any
/// integral type that widens to uint64_t.
struct IntHash {
  size_t operator()(uint64_t x) const noexcept {
    return static_cast<size_t>(Mix64(x));
  }
};

}  // namespace pioqo

#endif  // PIOQO_COMMON_HASH_H_
