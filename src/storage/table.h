#ifndef PIOQO_STORAGE_TABLE_H_
#define PIOQO_STORAGE_TABLE_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "storage/disk_image.h"
#include "storage/page.h"

namespace pioqo::storage {

/// Row layout: two little-endian int32 columns, C1 and C2, followed by
/// padding to `row_size` bytes. The paper's experiment tables (T1/T33/T500)
/// are all integer columns "plus some additional columns ... used as padding
/// to adjust the target row size".
struct Schema {
  uint32_t row_size = 8;

  uint32_t ColumnOffset(int col) const { return static_cast<uint32_t>(col) * 4; }
};

/// A heap table of fixed-size rows stored in contiguous pages.
///
/// Pages hold `rows_per_page` rows packed immediately after the page header.
/// `Table` itself is a cheap value-semantics descriptor; the bytes live in
/// the `DiskImage`.
class Table {
 public:
  /// Creates (allocates and formats) a table of exactly `num_rows` rows with
  /// `rows_per_page` rows in each page. Fails if the row size implied by
  /// `rows_per_page` cannot hold the two int32 columns.
  static StatusOr<Table> Create(DiskImage& disk, std::string name,
                                uint64_t num_rows, uint32_t rows_per_page);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  PageId first_page() const { return first_page_; }
  uint32_t num_pages() const { return num_pages_; }
  uint64_t num_rows() const { return num_rows_; }
  uint32_t rows_per_page() const { return rows_per_page_; }

  /// Pages the table occupies, i.e. the optimizer's band size for this
  /// table's random I/O.
  uint32_t band_pages() const { return num_pages_; }

  /// RowId of the n-th row (0-based).
  RowId NthRowId(uint64_t n) const {
    return RowId{first_page_ + static_cast<PageId>(n / rows_per_page_),
                 static_cast<uint16_t>(n % rows_per_page_)};
  }

  /// Number of rows actually stored in `page` (the last page may be short).
  uint16_t RowsInPage(PageId page) const;

  /// Reads column `col` of row `slot` from raw page bytes.
  int32_t GetColumn(const char* page_data, uint16_t slot, int col) const;

  /// Writes column `col` of row `slot` (build time only).
  void SetColumn(char* page_data, uint16_t slot, int col, int32_t value) const;

 private:
  Table() = default;

  std::string name_;
  Schema schema_;
  PageId first_page_ = kInvalidPageId;
  uint32_t num_pages_ = 0;
  uint64_t num_rows_ = 0;
  uint32_t rows_per_page_ = 0;
};

}  // namespace pioqo::storage

#endif  // PIOQO_STORAGE_TABLE_H_
