// Unit tests for RowBatch: ownership vs. borrowing, selection-vector
// views, the dense flag, and move-out semantics.
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"
#include "types/row_batch.h"

namespace bypass {
namespace {

using testing_util::IntRow;

std::vector<Row> ThreeRows() {
  std::vector<Row> rows;
  rows.push_back(IntRow({1, 10}));
  rows.push_back(IntRow({2, 20}));
  rows.push_back(IntRow({3, 30}));
  return rows;
}

TEST(RowBatchTest, FromRowsSelectsEverything) {
  RowBatch batch = RowBatch::FromRows(ThreeRows());
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_FALSE(batch.empty());
  EXPECT_EQ(batch.row(0)[0].int64_value(), 1);
  EXPECT_EQ(batch.row(2)[1].int64_value(), 30);
  EXPECT_TRUE(batch.ExclusivelyOwned());
}

TEST(RowBatchTest, BorrowedIsZeroCopyWindow) {
  const std::vector<Row> storage = ThreeRows();
  RowBatch batch = RowBatch::Borrowed(&storage, 1, 3);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch.row(0)[0].int64_value(), 2);
  EXPECT_EQ(batch.row(1)[0].int64_value(), 3);
  EXPECT_FALSE(batch.ExclusivelyOwned());
  // Selected indices address the backing storage, not the window.
  EXPECT_EQ(batch.selection()[0], 1u);
}

TEST(RowBatchTest, DenseOnConstructionDroppedOnMutation) {
  const std::vector<Row> storage = ThreeRows();
  RowBatch borrowed = RowBatch::Borrowed(&storage, 1, 3);
  EXPECT_TRUE(borrowed.dense());
  // Dense means sel[i] == sel[0] + i, so storage_row(sel[0] + i) is
  // the i-th selected row.
  EXPECT_EQ(borrowed.storage_row(borrowed.selection()[0])[0].int64_value(), 2);

  RowBatch owned = RowBatch::FromRows(ThreeRows());
  EXPECT_TRUE(owned.dense());

  // Mutable selection access conservatively drops the flag even if the
  // caller never breaks contiguity.
  owned.selection();
  EXPECT_FALSE(owned.dense());
}

TEST(RowBatchTest, ShareWithSelectionIsNotDenseAndSharesStorage) {
  RowBatch batch = RowBatch::FromRows(ThreeRows());
  RowBatch view = batch.ShareWithSelection({2, 0});
  ASSERT_EQ(view.size(), 2u);
  EXPECT_EQ(view.row(0)[0].int64_value(), 3);
  EXPECT_EQ(view.row(1)[0].int64_value(), 1);
  EXPECT_FALSE(view.dense());
  // Two live views over the same storage: neither is exclusive.
  EXPECT_FALSE(batch.ExclusivelyOwned());
  EXPECT_FALSE(view.ExclusivelyOwned());
}

// A narrowed dense run is dense again exactly when it kept a contiguous
// run; a view of a non-dense batch never is.
TEST(RowBatchTest, NarrowedSelectionKeepsDensityWhenContiguous) {
  const std::vector<Row> storage = ThreeRows();
  const RowBatch dense = RowBatch::Borrowed(&storage, 0, 3);
  EXPECT_TRUE(dense.ShareWithSelection({1, 2}).dense());
  EXPECT_FALSE(dense.ShareWithSelection({0, 2}).dense());
  EXPECT_FALSE(dense.ShareWithSelection({}).dense());

  RowBatch narrowed = RowBatch::Borrowed(&storage, 0, 3);
  std::vector<uint32_t> sel = {0, 1};
  narrowed.SwapSelection(&sel);
  EXPECT_TRUE(narrowed.dense());
  EXPECT_EQ(sel.size(), 3u);  // the old selection comes back for reuse
  sel = {1};
  narrowed.selection();  // mutable access drops the flag
  EXPECT_FALSE(narrowed.ShareWithSelection({1}).dense());
  narrowed.SwapSelection(&sel);
  EXPECT_FALSE(narrowed.dense());
}

TEST(RowBatchTest, ExclusiveOwnershipReturnsWhenViewsDie) {
  RowBatch batch = RowBatch::FromRows(ThreeRows());
  {
    RowBatch view = batch.ShareWithSelection({1});
    EXPECT_FALSE(batch.ExclusivelyOwned());
  }
  EXPECT_TRUE(batch.ExclusivelyOwned());
}

TEST(RowBatchTest, ConsumeRowsIntoCopiesWhenShared) {
  const std::vector<Row> storage = ThreeRows();
  RowBatch batch = RowBatch::Borrowed(&storage, 0, 3);
  std::vector<Row> out;
  batch.ConsumeRowsInto(&out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_TRUE(batch.empty());
  // Borrowed storage is untouched.
  EXPECT_EQ(storage[0][0].int64_value(), 1);
}

TEST(RowBatchTest, ConsumeRowsIntoMovesWhenExclusive) {
  RowBatch batch = RowBatch::FromRows(ThreeRows());
  std::vector<Row> out;
  batch.ConsumeRowsInto(&out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[2][1].int64_value(), 30);
  EXPECT_TRUE(batch.empty());
}

TEST(RowBatchTest, ConsumeRowsIntoAppends) {
  std::vector<Row> out;
  RowBatch::FromRows(ThreeRows()).ConsumeRowsInto(&out);
  RowBatch::FromRows(ThreeRows()).ConsumeRowsInto(&out);
  ASSERT_EQ(out.size(), 6u);
  EXPECT_EQ(out[3][0].int64_value(), 1);
}

TEST(RowBatchTest, TakeRowMovesOrCopies) {
  // Shared: TakeRow copies, storage intact.
  RowBatch batch = RowBatch::FromRows(ThreeRows());
  RowBatch view = batch.ShareWithSelection({0});
  Row copied = view.TakeRow(0);
  EXPECT_EQ(copied[0].int64_value(), 1);
  EXPECT_EQ(batch.row(0)[0].int64_value(), 1);
}

}  // namespace
}  // namespace bypass
