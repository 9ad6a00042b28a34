// --self-test: each output check must accept a genuine result and reject
// the same result with one deliberate corruption.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ce/engine_registry.h"
#include "ce/executor_pool.h"
#include "checks.h"
#include "core/cluster.h"
#include "workload/workload.h"
#include "workloads.h"

namespace wallbench {

namespace tb = thunderbolt;

namespace {

class Tally {
 public:
  /// `verdict` is the check's output: "" accepts, anything else rejects.
  void Expect(const std::string& name, const std::string& verdict,
              bool want_reject) {
    const bool ok = verdict.empty() != want_reject;
    std::printf("self-test %-44s %s (%s)\n", name.c_str(),
                ok ? "ok" : "FAILED",
                verdict.empty() ? "accepted" : verdict.c_str());
    if (!ok) ++failures_;
  }
  int failures() const { return failures_; }

 private:
  int failures_ = 0;
};

void ExecChecks(Tally& t) {
  tb::workload::WorkloadOptions options;
  options.num_records = 1000;
  options.theta = 0.9;
  options.read_ratio = 0.5;
  options.seed = 1;
  auto w = tb::workload::WorkloadRegistry::Global().Create("smallbank",
                                                           options);
  auto store = tb::storage::StoreRegistry::Global().Create("mem");
  w->InitStore(store.get());
  auto registry = tb::contract::Registry::CreateDefault();
  auto pool = tb::ce::CreateExecutorPool("thread", ThreadWorkers(),
                                         tb::ce::ExecutionCostModel{});
  const std::vector<tb::txn::Transaction> batch = w->MakeBatch(500);
  auto engine = tb::ce::EngineRegistry::Global().Create("ce", store.get(),
                                                        500);
  auto r = pool->Run(*engine, *registry, batch);
  if (!r.ok()) {
    t.Expect("exec: pool run", r.status().ToString(), false);
    return;
  }
  const tb::ce::BatchExecutionResult& genuine = r.value();
  const BankModel model = BankModel::FromStore(*store);

  auto verdict = [&](const std::function<void(tb::ce::BatchExecutionResult&)>&
                         corrupt) {
    tb::ce::BatchExecutionResult copy = genuine;
    corrupt(copy);
    BankModel m = model;
    return m.ApplyBatch(batch, copy);
  };
  t.Expect("exec: genuine batch", verdict([](auto&) {}), false);
  t.Expect("exec: get_balance result off by one", verdict([&](auto& c) {
             for (uint32_t slot : c.order) {
               if (batch[slot].contract == "smallbank.get_balance") {
                 c.records[slot].emitted[0] += 1;
                 return;
               }
             }
           }),
           true);
  t.Expect("exec: serialization order reversed",
           verdict([](auto& c) {
             std::reverse(c.order.begin(), c.order.end());
           }),
           true);
  t.Expect("exec: slot repeated in order",
           verdict([](auto& c) { c.order[1] = c.order[0]; }), true);
  t.Expect("exec: final write value off by one", verdict([](auto& c) {
             tb::storage::WriteBatch wb;
             bool first = true;
             for (const auto& e : c.final_writes.entries()) {
               wb.Put(e.key, first ? e.value + 1 : e.value);
               first = false;
             }
             c.final_writes = wb;
           }),
           true);
  t.Expect("exec: final write dropped", verdict([](auto& c) {
             tb::storage::WriteBatch wb;
             const auto& entries = c.final_writes.entries();
             for (size_t i = 1; i < entries.size(); ++i) {
               wb.Put(entries[i].key, entries[i].value);
             }
             c.final_writes = wb;
           }),
           true);

  BankModel m = model;
  (void)m.ApplyBatch(batch, genuine);
  (void)store->Write(genuine.final_writes);
  t.Expect("exec: genuine final state", m.CompareStore(*store), false);
  const auto entry = store->Scan("", "", 1).front();
  (void)store->Put(entry.key, entry.value.value + 1);
  t.Expect("exec: final state with one balance moved",
           m.CompareStore(*store), true);
}

void ClusterChecks(Tally& t) {
  tb::core::ThunderboltConfig cfg;
  cfg.n = 4;
  cfg.seed = 1;
  tb::workload::WorkloadOptions options;
  options.num_records = 1000;
  options.cross_shard_ratio = 0.3;
  options.seed = 1;
  tb::core::Cluster cluster(cfg, "smallbank", options);
  const BalanceScan seeded = ScanBalances(cluster.canonical_state());
  uint64_t single = 0, cross = 0;
  for (int i = 0; i < 2; ++i) {
    tb::core::ClusterResult r = cluster.Run(tb::Millis(300));
    single += r.committed_single;
    cross += r.committed_cross;
  }
  const tb::storage::KVStore& state = cluster.canonical_state();
  t.Expect("cluster: genuine state",
           CheckConservation(seeded, ScanBalances(state)), false);

  auto balance_keys = [&]() {
    std::vector<tb::storage::ScanEntry> keys;
    for (const auto& e : state.Scan("", "")) {
      if (e.key.find("/checking") != std::string::npos) keys.push_back(e);
    }
    return keys;
  }();
  auto forked = state.Fork();
  (void)forked->Put(balance_keys[0].key, balance_keys[0].value.value + 1);
  t.Expect("cluster: one unit of money created",
           CheckConservation(seeded, ScanBalances(*forked)), true);
  forked = state.Fork();
  const int64_t moved = balance_keys[0].value.value + 1;
  (void)forked->Put(balance_keys[0].key, balance_keys[0].value.value - moved);
  (void)forked->Put(balance_keys[1].key, balance_keys[1].value.value + moved);
  t.Expect("cluster: total kept but one balance negative",
           CheckConservation(seeded, ScanBalances(*forked)), true);

  const tb::obs::MetricsRegistry& m = cluster.obs().metrics();
  const uint64_t reg_single = m.FindCounter("cluster.commits_single")->value();
  const uint64_t reg_cross = m.FindCounter("cluster.commits_cross")->value();
  t.Expect("cluster: genuine commit counts",
           CheckCommitCounts(single, cross, reg_single, reg_cross, true),
           false);
  t.Expect("cluster: window sum off by one",
           CheckCommitCounts(single + 1, cross, reg_single, reg_cross, true),
           true);
  t.Expect("cluster: no commits", CheckCommitCounts(0, 0, 0, 0, false), true);
  t.Expect("cluster: no cross-shard commits on -cross",
           CheckCommitCounts(single, 0, reg_single, 0, true), true);
}

}  // namespace

int SelfTest() {
  Tally t;
  ExecChecks(t);
  ClusterChecks(t);
  std::printf("self-test: %s\n",
              t.failures() == 0 ? "every check accepts genuine and rejects "
                                  "corrupted results"
                                : "FAILED");
  return t.failures() == 0 ? 0 : 1;
}

}  // namespace wallbench
