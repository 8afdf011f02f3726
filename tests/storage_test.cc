#include <gtest/gtest.h>

#include "io/ssd_device.h"
#include "sim/simulator.h"
#include "storage/data_generator.h"
#include "storage/disk_image.h"
#include "storage/page.h"
#include "storage/table.h"

namespace pioqo::storage {
namespace {

class StorageTest : public ::testing::Test {
 protected:
  sim::Simulator sim_;
  io::SsdDevice ssd_{sim_, io::SsdGeometry::ConsumerPcie()};
  DiskImage disk_{ssd_};
};

TEST_F(StorageTest, PageHeaderRoundTrip) {
  char buf[kPageSize] = {};
  PageHeader h;
  h.page_id = 77;
  h.kind = PageKind::kIndexLeaf;
  h.count = 123;
  h.next_page = 78;
  WritePageHeader(buf, h);
  PageHeader r = ReadPageHeader(buf);
  EXPECT_EQ(r.page_id, 77u);
  EXPECT_EQ(r.kind, PageKind::kIndexLeaf);
  EXPECT_EQ(r.count, 123);
  EXPECT_EQ(r.next_page, 78u);
}

TEST_F(StorageTest, AllocatePagesAreZeroedAndStable) {
  PageId first = disk_.AllocatePages(10);
  EXPECT_EQ(first, 0u);
  char* p0 = disk_.PageData(0);
  for (uint32_t i = 0; i < kPageSize; ++i) EXPECT_EQ(p0[i], 0);
  p0[100] = 42;
  // Growing the image must not move existing pages.
  disk_.AllocatePages(5000);
  EXPECT_EQ(disk_.PageData(0), p0);
  EXPECT_EQ(disk_.PageData(0)[100], 42);
  EXPECT_EQ(disk_.num_pages(), 5010u);
}

TEST_F(StorageTest, OffsetMatchesPageId) {
  disk_.AllocatePages(4);
  EXPECT_EQ(disk_.OffsetOf(3), 3ull * kPageSize);
}

TEST_F(StorageTest, TableCreateComputesLayout) {
  auto t = Table::Create(disk_, "T33", 1000, 33);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->rows_per_page(), 33u);
  EXPECT_EQ(t->num_pages(), 31u);  // ceil(1000/33)
  EXPECT_EQ(t->schema().row_size, kPagePayloadSize / 33);
  // Last page holds the remainder.
  EXPECT_EQ(t->RowsInPage(t->first_page() + 30), 1000 - 30 * 33);
  EXPECT_EQ(t->RowsInPage(t->first_page()), 33);
}

TEST_F(StorageTest, TableRejectsImpossibleLayout) {
  // 1000 rows/page -> ~4 bytes/row, cannot hold 2 int32 columns.
  auto t = Table::Create(disk_, "bad", 10, 1000);
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(StorageTest, T500LayoutWorksWithTwoColumns) {
  // The paper's extreme small-row case: 500 rows/page -> 8-byte rows.
  auto t = Table::Create(disk_, "T500", 5000, 500);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->schema().row_size, 8u);
  EXPECT_EQ(t->num_pages(), 10u);
}

TEST_F(StorageTest, ColumnRoundTrip) {
  auto t = Table::Create(disk_, "T", 100, 10);
  ASSERT_TRUE(t.ok());
  RowId rid = t->NthRowId(57);
  char* page = disk_.PageData(rid.page);
  t->SetColumn(page, rid.slot, 0, -123456);
  t->SetColumn(page, rid.slot, 1, 789);
  EXPECT_EQ(t->GetColumn(page, rid.slot, 0), -123456);
  EXPECT_EQ(t->GetColumn(page, rid.slot, 1), 789);
}

TEST_F(StorageTest, NthRowIdMapsPagesAndSlots) {
  auto t = Table::Create(disk_, "T", 100, 10);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->NthRowId(0), (RowId{t->first_page(), 0}));
  EXPECT_EQ(t->NthRowId(9), (RowId{t->first_page(), 9}));
  EXPECT_EQ(t->NthRowId(10), (RowId{t->first_page() + 1, 0}));
  EXPECT_EQ(t->NthRowId(99), (RowId{t->first_page() + 9, 9}));
}

TEST_F(StorageTest, BuildDatasetPopulatesAndIndexes) {
  DatasetConfig cfg;
  cfg.name = "T";
  cfg.num_rows = 10000;
  cfg.rows_per_page = 33;
  cfg.c2_domain = 100000;
  auto ds = BuildDataset(disk_, cfg);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->table.num_rows(), 10000u);
  EXPECT_EQ(ds->index_c2.num_entries(), 10000u);

  // Every index entry points at a row whose C2 equals the entry key.
  auto pos = ds->index_c2.SeekCeil(disk_, 0);
  uint64_t checked = 0;
  PageId pid = pos.page;
  uint16_t slot = pos.slot;
  while (pid != kInvalidPageId && checked < 500) {
    const char* leaf = disk_.PageData(pid);
    uint16_t n = BPlusTree::EntryCount(leaf);
    for (; slot < n && checked < 500; ++slot, ++checked) {
      auto e = BPlusTree::LeafEntryAt(leaf, slot);
      const char* row_page = disk_.PageData(e.rid.page);
      EXPECT_EQ(ds->table.GetColumn(row_page, e.rid.slot, kColumnC2), e.key);
    }
    if (slot >= n) {
      pid = BPlusTree::LeafNext(leaf);
      slot = 0;
    }
  }
  EXPECT_EQ(checked, 500u);
}

TEST_F(StorageTest, DatasetIsDeterministic) {
  DatasetConfig cfg;
  cfg.num_rows = 1000;
  cfg.rows_per_page = 10;
  cfg.seed = 7;
  auto ds1 = BuildDataset(disk_, cfg);
  ASSERT_TRUE(ds1.ok());

  sim::Simulator sim2;
  io::SsdDevice ssd2(sim2, io::SsdGeometry::ConsumerPcie());
  DiskImage disk2(ssd2);
  auto ds2 = BuildDataset(disk2, cfg);
  ASSERT_TRUE(ds2.ok());

  for (uint64_t n = 0; n < 1000; n += 37) {
    RowId rid = ds1->table.NthRowId(n);
    EXPECT_EQ(ds1->table.GetColumn(disk_.PageData(rid.page), rid.slot, 1),
              ds2->table.GetColumn(disk2.PageData(rid.page), rid.slot, 1));
  }
}

TEST_F(StorageTest, C2UpperBoundForSelectivity) {
  EXPECT_EQ(C2UpperBoundForSelectivity(1000000, 0.0), -1);
  EXPECT_EQ(C2UpperBoundForSelectivity(1000000, 1.0), 999999);
  EXPECT_EQ(C2UpperBoundForSelectivity(1000000, 0.1), 99999);
}

TEST_F(StorageTest, SelectivityMatchesCountRange) {
  DatasetConfig cfg;
  cfg.num_rows = 20000;
  cfg.rows_per_page = 33;
  cfg.c2_domain = 1 << 20;
  auto ds = BuildDataset(disk_, cfg);
  ASSERT_TRUE(ds.ok());
  for (double sel : {0.01, 0.1, 0.5}) {
    int32_t hi = C2UpperBoundForSelectivity(cfg.c2_domain, sel);
    uint64_t count = ds->index_c2.CountRange(disk_, 0, hi);
    EXPECT_NEAR(static_cast<double>(count) / cfg.num_rows, sel, 0.02)
        << "sel=" << sel;
  }
}

}  // namespace
}  // namespace pioqo::storage
