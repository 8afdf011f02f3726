#include "storage/data_generator.h"

#include <array>
#include <cmath>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"

namespace pioqo::storage {
namespace {

/// Sorts index entries by key, stably: an LSD radix sort, one byte of the
/// key per pass. BuildDataset appends entries in row-id order, so the
/// key-stable order is BulkBuild's (key, rid) order.
void SortByKey(std::vector<BPlusTree::Entry>& entries) {
  // Flipping the sign bit orders int32 keys as unsigned ones.
  auto digit = [](int32_t key, int shift) {
    return ((static_cast<uint32_t>(key) ^ 0x80000000u) >> shift) & 0xffu;
  };
  std::vector<BPlusTree::Entry> buffer(entries.size());
  for (int shift = 0; shift < 32; shift += 8) {
    std::array<size_t, 257> next{};
    for (const BPlusTree::Entry& e : entries) ++next[digit(e.key, shift) + 1];
    for (size_t d = 1; d < next.size(); ++d) next[d] += next[d - 1];
    for (const BPlusTree::Entry& e : entries) {
      buffer[next[digit(e.key, shift)]++] = e;
    }
    entries.swap(buffer);
  }
}

}  // namespace

StatusOr<Dataset> BuildDataset(DiskImage& disk, const DatasetConfig& config) {
  if (config.c2_domain <= 0) {
    return Status::InvalidArgument("c2_domain must be positive");
  }
  PIOQO_ASSIGN_OR_RETURN(
      Table table, Table::Create(disk, config.name, config.num_rows,
                                 config.rows_per_page));

  Pcg32 rng(config.seed);
  std::vector<BPlusTree::Entry> entries;
  entries.reserve(config.num_rows);

  for (uint64_t n = 0; n < config.num_rows; ++n) {
    const RowId rid = table.NthRowId(n);
    char* page = disk.PageData(rid.page);
    const int32_t c1 =
        static_cast<int32_t>(rng.UniformInt(0, config.c2_domain - 1));
    const int32_t c2 =
        static_cast<int32_t>(rng.UniformInt(0, config.c2_domain - 1));
    table.SetColumn(page, rid.slot, kColumnC1, c1);
    table.SetColumn(page, rid.slot, kColumnC2, c2);
    // The rest of the row is padding; zero-initialized pages already model
    // the paper's padding columns.
    entries.push_back(BPlusTree::Entry{c2, rid});
  }

  SortByKey(entries);
  const uint16_t fill = config.index_leaf_fill == 0 ? BPlusTree::kLeafCapacity
                                                    : config.index_leaf_fill;
  PIOQO_ASSIGN_OR_RETURN(
      BPlusTree index, BPlusTree::BulkBuild(disk, std::move(entries), fill));

  return Dataset{std::move(table), std::move(index), config.c2_domain};
}

int32_t C2UpperBoundForSelectivity(int32_t c2_domain, double selectivity) {
  PIOQO_CHECK(selectivity >= 0.0 && selectivity <= 1.0);
  const double hi = selectivity * static_cast<double>(c2_domain) - 1.0;
  if (hi < 0.0) return -1;  // empty range: BETWEEN 0 AND -1
  return static_cast<int32_t>(std::llround(hi));
}

}  // namespace pioqo::storage
