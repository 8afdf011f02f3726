#include "storage/disk_image.h"

#include "common/logging.h"

namespace pioqo::storage {

DiskImage::DiskImage(io::Device& device) : device_(device) {}

PageId DiskImage::AllocatePages(uint32_t count) {
  const uint64_t new_total = static_cast<uint64_t>(num_pages_) + count;
  PIOQO_CHECK(new_total * kPageSize <= device_.capacity_bytes())
      << "disk image exceeds device capacity (" << new_total << " pages)";
  const PageId first = num_pages_;
  const uint64_t extents_needed =
      (new_total + kPagesPerExtent - 1) / kPagesPerExtent;
  while (extents_.size() < extents_needed) {
    // make_unique value-initializes: the extent comes back zeroed.
    extents_.push_back(std::make_unique<char[]>(
        static_cast<size_t>(kPagesPerExtent) * kPageSize));
  }
  num_pages_ = static_cast<uint32_t>(new_total);
  return first;
}

char* DiskImage::PageData(PageId id) {
  PIOQO_CHECK(id < num_pages_) << "page " << id << " not allocated";
  return extents_[id / kPagesPerExtent].get() +
         static_cast<size_t>(id % kPagesPerExtent) * kPageSize;
}

const char* DiskImage::PageData(PageId id) const {
  PIOQO_CHECK(id < num_pages_) << "page " << id << " not allocated";
  return extents_[id / kPagesPerExtent].get() +
         static_cast<size_t>(id % kPagesPerExtent) * kPageSize;
}

}  // namespace pioqo::storage
