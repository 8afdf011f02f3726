#ifndef PIOQO_STORAGE_DATA_GENERATOR_H_
#define PIOQO_STORAGE_DATA_GENERATOR_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "storage/btree.h"
#include "storage/disk_image.h"
#include "storage/table.h"

namespace pioqo::storage {

/// Configuration of one experiment table in the paper's style: integer
/// columns C1 (aggregated) and C2 (indexed, scan predicate), padded to hit a
/// target rows-per-page (T1 = 1, T33 = 33, T500 = 500).
struct DatasetConfig {
  std::string name = "T";
  uint64_t num_rows = 0;
  uint32_t rows_per_page = 33;
  /// C2 values are uniform in [0, c2_domain); selectivity of
  /// `C2 BETWEEN 0 AND s*c2_domain` is then ~s.
  int32_t c2_domain = 1'000'000'000;
  uint64_t seed = 42;
  /// Entries per index leaf (see BPlusTree::BulkBuild); 0 == pack full.
  uint16_t index_leaf_fill = 0;
};

inline constexpr int kColumnC1 = 0;
inline constexpr int kColumnC2 = 1;

/// A generated table plus its non-clustered index on C2.
struct Dataset {
  Table table;
  BPlusTree index_c2;
  int32_t c2_domain;
};

/// Populates `disk` with a table per `config` (uniform random column values,
/// deterministic for a given seed) and bulk-builds the C2 index.
StatusOr<Dataset> BuildDataset(DiskImage& disk, const DatasetConfig& config);

/// The C2 range [0, hi] whose expected selectivity is `selectivity`
/// (fraction in [0, 1]) for a dataset with this domain.
int32_t C2UpperBoundForSelectivity(int32_t c2_domain, double selectivity);

}  // namespace pioqo::storage

#endif  // PIOQO_STORAGE_DATA_GENERATOR_H_
