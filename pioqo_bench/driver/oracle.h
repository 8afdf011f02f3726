#ifndef PIOQO_BENCH_DRIVER_ORACLE_H_
#define PIOQO_BENCH_DRIVER_ORACLE_H_

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "db/database.h"

namespace pioqo::bench {

/// Collects failed correctness checks. A run with any failure reports
/// `correct: false` and exits non-zero.
class Oracle {
 public:
  void Check(bool ok, const std::string& what) {
    if (ok) return;
    ++failures_;
    if (messages_.size() < kMaxMessages) messages_.push_back(what);
  }
  bool passed() const { return failures_ == 0; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  static constexpr size_t kMaxMessages = 20;
  uint64_t failures_ = 0;
  std::vector<std::string> messages_;
};

/// Ground truth for the result oracle: the number of rows the index holds
/// for a predicate (`Database::SelectivityOf` x rows), memoized.
class ExactCounts {
 public:
  ExactCounts(const db::Database& db, std::string table)
      : db_(db), table_(std::move(table)),
        rows_((*db.GetTable(table_))->table.num_rows()) {}

  uint64_t For(exec::RangePredicate pred) {
    const auto key = std::make_pair(pred.low, pred.high);
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
    const double selectivity = *db_.SelectivityOf(table_, pred);
    const auto count = static_cast<uint64_t>(
        std::llround(selectivity * static_cast<double>(rows_)));
    memo_.emplace(key, count);
    return count;
  }

 private:
  const db::Database& db_;
  std::string table_;
  uint64_t rows_;
  std::map<std::pair<int32_t, int32_t>, uint64_t> memo_;
};

}  // namespace pioqo::bench

#endif  // PIOQO_BENCH_DRIVER_ORACLE_H_
