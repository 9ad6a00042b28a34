// Output checks of the wall-clock benchmark. None of them calls the code
// being measured: the exec check keeps its own model of SmallBank's
// get_balance / send_payment, and the cluster checks scan the committed
// state and add the balances up themselves.
#ifndef WALLBENCH_CHECKS_H_
#define WALLBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "ce/executor_pool.h"
#include "storage/kv_store.h"
#include "txn/transaction.h"

namespace wallbench {

/// Balances per storage key ("<account>/checking", "<account>/savings"),
/// moved by the benchmark's own reading of the two SmallBank contracts the
/// workloads issue.
class BankModel {
 public:
  /// Seeds the model from every balance key in `store`.
  static BankModel FromStore(const thunderbolt::storage::KVStore& store);

  /// Replays `batch` in `result.order` and requires, transaction by
  /// transaction, the same emitted values, and after the batch the same
  /// value for every key in `result.final_writes`. On success the model
  /// holds the state after the batch; returns a description of the first
  /// mismatch otherwise ("" when the batch checks out).
  std::string ApplyBatch(
      const std::vector<thunderbolt::txn::Transaction>& batch,
      const thunderbolt::ce::BatchExecutionResult& result);

  /// Requires `store` to hold exactly the model's balances.
  std::string CompareStore(const thunderbolt::storage::KVStore& store) const;

 private:
  std::unordered_map<std::string, int64_t> balance_;
};

/// Sum and count of the balance keys in `store`, by a full scan.
struct BalanceScan {
  int64_t total = 0;
  uint64_t keys = 0;
  uint64_t negative = 0;
};
BalanceScan ScanBalances(const thunderbolt::storage::KVStore& store);

/// Cluster state check: the scanned total equals the seeded total, the key
/// count is unchanged and no balance is negative.
std::string CheckConservation(const BalanceScan& seeded,
                              const BalanceScan& final_scan);

/// Cluster count check: commits summed over every Cluster::Run window equal
/// the registry's cluster.commits_single / commits_cross counters, are
/// above 0, and (when `require_cross`) include cross-shard commits.
std::string CheckCommitCounts(uint64_t summed_single, uint64_t summed_cross,
                              uint64_t registry_single,
                              uint64_t registry_cross, bool require_cross);

}  // namespace wallbench

#endif  // WALLBENCH_CHECKS_H_
