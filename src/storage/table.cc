#include "storage/table.h"

#include <cstring>

#include "common/logging.h"
#include "common/math_utils.h"

namespace pioqo::storage {

StatusOr<Table> Table::Create(DiskImage& disk, std::string name,
                              uint64_t num_rows, uint32_t rows_per_page) {
  if (num_rows == 0) return Status::InvalidArgument("table needs rows");
  if (rows_per_page == 0) {
    return Status::InvalidArgument("rows_per_page must be >= 1");
  }
  const uint32_t row_size = kPagePayloadSize / rows_per_page;
  if (row_size < 2 * sizeof(int32_t)) {
    return Status::InvalidArgument(
        "rows_per_page " + std::to_string(rows_per_page) +
        " leaves only " + std::to_string(row_size) +
        " bytes per row; cannot hold the two int32 columns");
  }

  Table t;
  t.name_ = std::move(name);
  t.schema_ = Schema{row_size};
  t.num_rows_ = num_rows;
  t.rows_per_page_ = rows_per_page;
  t.num_pages_ = static_cast<uint32_t>(CeilDiv(num_rows, rows_per_page));
  t.first_page_ = disk.AllocatePages(t.num_pages_);

  for (uint32_t p = 0; p < t.num_pages_; ++p) {
    PageHeader h;
    h.page_id = t.first_page_ + p;
    h.kind = PageKind::kTableData;
    h.count = t.RowsInPage(t.first_page_ + p);
    WritePageHeader(disk.PageData(t.first_page_ + p), h);
  }
  return t;
}

uint16_t Table::RowsInPage(PageId page) const {
  PIOQO_CHECK(page >= first_page_ && page < first_page_ + num_pages_);
  const uint32_t index = page - first_page_;
  if (index + 1 < num_pages_) return static_cast<uint16_t>(rows_per_page_);
  const uint64_t remainder = num_rows_ - static_cast<uint64_t>(index) * rows_per_page_;
  return static_cast<uint16_t>(remainder);
}

int32_t Table::GetColumn(const char* page_data, uint16_t slot, int col) const {
  int32_t v;
  std::memcpy(&v,
              page_data + kPageHeaderSize +
                  static_cast<size_t>(slot) * schema_.row_size +
                  schema_.ColumnOffset(col),
              sizeof(v));
  return v;
}

void Table::SetColumn(char* page_data, uint16_t slot, int col,
                      int32_t value) const {
  std::memcpy(page_data + kPageHeaderSize +
                  static_cast<size_t>(slot) * schema_.row_size +
                  schema_.ColumnOffset(col),
              &value, sizeof(value));
}

}  // namespace pioqo::storage
