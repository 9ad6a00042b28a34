#include "checks.h"

#include <unordered_set>

namespace wallbench {

namespace {

constexpr char kGetBalance[] = "smallbank.get_balance";
constexpr char kSendPayment[] = "smallbank.send_payment";

bool EndsWith(const std::string& s, const char* suffix) {
  const size_t n = std::char_traits<char>::length(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

bool IsBalanceKey(const std::string& key) {
  return EndsWith(key, "/checking") || EndsWith(key, "/savings");
}

std::string Emitted(const std::vector<int64_t>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i == 0 ? "" : ",") + std::to_string(values[i]);
  }
  return out + "]";
}

}  // namespace

BankModel BankModel::FromStore(const thunderbolt::storage::KVStore& store) {
  BankModel model;
  for (const auto& entry : store.Scan("", "")) {
    if (IsBalanceKey(entry.key)) {
      model.balance_[entry.key] = entry.value.value;
    }
  }
  return model;
}

std::string BankModel::ApplyBatch(
    const std::vector<thunderbolt::txn::Transaction>& batch,
    const thunderbolt::ce::BatchExecutionResult& result) {
  const size_t n = batch.size();
  if (result.order.size() != n || result.records.size() != n) {
    return "order/records cover " + std::to_string(result.order.size()) +
           "/" + std::to_string(result.records.size()) + " of " +
           std::to_string(n) + " transactions";
  }
  std::vector<bool> seen(n, false);
  std::unordered_map<std::string, int64_t> before;  // Keys this batch moved.
  auto slot_of = [&](const std::string& key) -> int64_t& {
    auto it = balance_.find(key);
    if (it == balance_.end()) it = balance_.emplace(key, 0).first;
    before.emplace(key, it->second);
    return it->second;
  };
  for (uint32_t slot : result.order) {
    if (slot >= n || seen[slot]) {
      return "serialization order repeats or overruns slot " +
             std::to_string(slot);
    }
    seen[slot] = true;
    const thunderbolt::txn::Transaction& tx = batch[slot];
    std::vector<int64_t> expect;
    if (tx.contract == kGetBalance && tx.accounts.size() == 1) {
      expect.push_back(slot_of(tx.accounts[0] + "/checking") +
                       slot_of(tx.accounts[0] + "/savings"));
    } else if (tx.contract == kSendPayment && tx.accounts.size() == 2 &&
               tx.params.size() == 1) {
      int64_t& src = slot_of(tx.accounts[0] + "/checking");
      int64_t& dst = slot_of(tx.accounts[1] + "/checking");
      const int64_t amount = tx.params[0];
      if (src < amount) {
        expect.push_back(0);
      } else {
        src -= amount;
        dst += amount;
        expect.push_back(1);
      }
    } else {
      return "unexpected transaction " + tx.contract;
    }
    const std::vector<int64_t>& got = result.records[slot].emitted;
    if (got != expect) {
      return tx.contract + " in slot " + std::to_string(slot) + " emitted " +
             Emitted(got) + ", model says " + Emitted(expect);
    }
  }
  std::unordered_set<std::string> written;
  for (const auto& e : result.final_writes.entries()) {
    if (e.op != thunderbolt::storage::WriteBatch::Op::kPut) {
      return "final writes delete " + e.key;
    }
    auto it = balance_.find(e.key);
    if (it == balance_.end() || it->second != e.value) {
      return "final write " + e.key + "=" + std::to_string(e.value) +
             ", model says " +
             (it == balance_.end() ? "absent" : std::to_string(it->second));
    }
    written.insert(e.key);
  }
  for (const auto& [key, old_value] : before) {
    if (balance_[key] != old_value && written.count(key) == 0) {
      return "final writes miss " + key;
    }
  }
  return "";
}

std::string BankModel::CompareStore(
    const thunderbolt::storage::KVStore& store) const {
  size_t keys = 0;
  for (const auto& entry : store.Scan("", "")) {
    if (!IsBalanceKey(entry.key)) continue;
    ++keys;
    auto it = balance_.find(entry.key);
    if (it == balance_.end() || it->second != entry.value.value) {
      return "store holds " + entry.key + "=" +
             std::to_string(entry.value.value) + ", model says " +
             (it == balance_.end() ? "absent" : std::to_string(it->second));
    }
  }
  if (keys != balance_.size()) {
    return "store holds " + std::to_string(keys) + " balance keys, model " +
           std::to_string(balance_.size());
  }
  return "";
}

BalanceScan ScanBalances(const thunderbolt::storage::KVStore& store) {
  BalanceScan scan;
  for (const auto& entry : store.Scan("", "")) {
    if (!IsBalanceKey(entry.key)) continue;
    ++scan.keys;
    scan.total += entry.value.value;
    if (entry.value.value < 0) ++scan.negative;
  }
  return scan;
}

std::string CheckConservation(const BalanceScan& seeded,
                              const BalanceScan& final_scan) {
  if (final_scan.total != seeded.total) {
    return "total balance " + std::to_string(final_scan.total) +
           " != seeded " + std::to_string(seeded.total);
  }
  if (final_scan.keys != seeded.keys) {
    return "balance keys " + std::to_string(final_scan.keys) +
           " != seeded " + std::to_string(seeded.keys);
  }
  if (final_scan.negative != 0) {
    return std::to_string(final_scan.negative) + " negative balances";
  }
  return "";
}

std::string CheckCommitCounts(uint64_t summed_single, uint64_t summed_cross,
                              uint64_t registry_single,
                              uint64_t registry_cross, bool require_cross) {
  if (summed_single != registry_single || summed_cross != registry_cross) {
    return "Run windows sum to " + std::to_string(summed_single) + "+" +
           std::to_string(summed_cross) + " commits, registry counts " +
           std::to_string(registry_single) + "+" +
           std::to_string(registry_cross);
  }
  if (summed_single + summed_cross == 0) return "no commits";
  if (require_cross && summed_cross == 0) return "no cross-shard commits";
  return "";
}

}  // namespace wallbench
