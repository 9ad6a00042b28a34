// Per-layer probes of the traced run. Each times one layer's public entry
// point on inputs drawn from the run's workload shape and seed, repeated
// enough to report a median (or a per-item mean over a timed chunk for the
// nanosecond-scale calls).
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "ce/engine_registry.h"
#include "ce/executor_pool.h"
#include "common/hash.h"
#include "common/histogram.h"
#include "common/simulator.h"
#include "core/cross_shard_executor.h"
#include "core/payload.h"
#include "core/validator.h"
#include "crypto/signature.h"
#include "dag/dag_core.h"
#include "net/network.h"
#include "workloads.h"

namespace wallbench {

namespace tb = thunderbolt;

namespace {

constexpr uint32_t kProbeBatches = 16;
constexpr uint32_t kReplicas = 16;
constexpr int kChunks = 5;

/// Keeps timed results observable so the calls are not optimized away.
volatile uint64_t g_sink = 0;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Median over kChunks of (chunk time / items), in nanoseconds.
template <typename Fn>
double NsPerItem(size_t items, Fn&& chunk) {
  std::vector<double> per_item;
  for (int c = 0; c < kChunks; ++c) {
    const Clock::time_point t0 = Clock::now();
    chunk();
    per_item.push_back(MsSince(t0) * 1e6 / static_cast<double>(items));
  }
  return PercentileOf(per_item, 50);
}

/// Block content with nothing in it: the DAG-only probe times consensus
/// alone.
class EmptyContent final : public tb::dag::BlockContent {
 public:
  tb::Hash256 ContentDigest() const override { return tb::Hash256{}; }
  uint64_t SizeBytes() const override { return 0; }
};

/// Wall milliseconds per committed leader round of 16 DagCores on a LAN
/// SimNetwork, measured over `leaders` commits at replica 0.
double DagRoundMs(uint64_t seed, uint64_t leaders) {
  tb::sim::Simulator sim;
  tb::net::SimNetwork net(&sim, kReplicas, tb::net::LatencyModel::Lan(),
                          seed);
  const tb::crypto::KeyDirectory keys =
      tb::crypto::KeyDirectory::Create(kReplicas, seed);
  auto content = std::make_shared<EmptyContent>();
  std::vector<std::unique_ptr<tb::dag::DagCore>> cores;
  uint64_t committed = 0;
  for (tb::ReplicaId id = 0; id < kReplicas; ++id) {
    tb::dag::DagConfig cfg;
    cfg.n = kReplicas;
    cfg.id = id;
    cores.push_back(std::make_unique<tb::dag::DagCore>(cfg, &keys, &net));
    tb::dag::DagCore* core = cores.back().get();
    core->SetRoundReadyCallback(
        [core, content](tb::Round r) { (void)core->Propose(r, content); });
    if (id == 0) {
      core->SetCommitCallback(
          [&committed](const tb::dag::CommittedSubDag&) { ++committed; });
    }
    net.RegisterHandler(id, [core](tb::ReplicaId from,
                                   const tb::net::PayloadPtr& p) {
      core->OnMessage(from, p);
    });
  }
  const Clock::time_point t0 = Clock::now();
  for (auto& core : cores) core->Start();
  while (committed < leaders && sim.Now() < tb::Seconds(120)) {
    sim.RunUntil(sim.Now() + tb::Millis(5));
  }
  const double ms = MsSince(t0);
  return committed == 0 ? 0 : ms / static_cast<double>(committed);
}

}  // namespace

ProbeOutcome RunProbes(const ProbeInputs& in, Spans& spans, Report* report) {
  ProbeOutcome out;
  const tb::ce::EngineRegistry& engines = tb::ce::EngineRegistry::Global();
  std::vector<std::vector<tb::txn::Transaction>> batches;
  for (uint32_t i = 0; i < kProbeBatches; ++i) {
    batches.push_back(in.make_batch(i));
  }

  if (in.probe_thread_pool) {
    Spans::Scope span(spans, "probe.ce_thread");
    auto pool = tb::ce::CreateExecutorPool("thread", ThreadWorkers(),
                                           tb::ce::ExecutionCostModel{});
    auto store = in.seeded->Fork();
    std::vector<double> create_us, run_ms;
    tb::Histogram queue_wait, execute, backoff;
    uint64_t committed = 0, restarts = 0;
    for (int pass = 0; pass < 3; ++pass) {
      for (const auto& batch : batches) {
        const Clock::time_point t0 = Clock::now();
        auto engine = engines.Create("ce", store.get(),
                                     static_cast<uint32_t>(batch.size()));
        create_us.push_back(MsSince(t0) * 1e3);
        const Clock::time_point t1 = Clock::now();
        auto r = pool->Run(*engine, *in.registry, batch);
        run_ms.push_back(MsSince(t1));
        if (!r.ok()) {
          out.error = "thread pool: " + r.status().ToString();
          return out;
        }
        const tb::Status written = store->Write(r.value().final_writes);
        if (!written.ok()) {
          out.error = "mem store: " + written.ToString();
          return out;
        }
        committed += batch.size();
        restarts += r.value().total_aborts;
        queue_wait.Merge(r.value().phases[tb::obs::Phase::kQueueWait]);
        execute.Merge(r.value().phases[tb::obs::Phase::kExecute]);
        backoff.Merge(r.value().phases[tb::obs::Phase::kRestartBackoff]);
      }
    }
    report->Add("ce.thread.queue_wait_us_p50", queue_wait.Median(), "us");
    report->Add("ce.thread.execute_us_p50", execute.Median(), "us");
    report->Add("ce.thread.restart_backoff_us_mean", backoff.Mean(), "us");
    report->Add("ce.thread.restarts_per_txn",
                static_cast<double>(restarts) / committed, "restarts/txn");
    report->Add("ce.thread.useful_ratio",
                static_cast<double>(committed) / (committed + restarts),
                "ratio");
    report->Add("ce.engine_create_us", PercentileOf(create_us, 50), "us");
    report->Add("ce.thread.batch_ms_p99", PercentileOf(run_ms, 99), "ms");
  }

  // Sim pool (16 virtual executors, as in the cluster) on each batch,
  // against the seeded state; the first outcome feeds the probes below.
  std::vector<tb::core::PreplayedTxn> preplayed;
  std::vector<tb::storage::WriteBatch> final_writes;
  {
    Spans::Scope span(spans, "probe.ce_sim");
    auto pool = tb::ce::CreateExecutorPool("sim", 16,
                                           tb::ce::ExecutionCostModel{});
    std::vector<double> run_ms;
    uint64_t txns = 0, restarts = 0;
    for (const auto& batch : batches) {
      auto engine = engines.Create("ce", in.seeded,
                                   static_cast<uint32_t>(batch.size()));
      const Clock::time_point t0 = Clock::now();
      auto r = pool->Run(*engine, *in.registry, batch);
      run_ms.push_back(MsSince(t0));
      if (!r.ok()) {
        out.error = "sim pool: " + r.status().ToString();
        return out;
      }
      txns += batch.size();
      restarts += r.value().total_aborts;
      final_writes.push_back(r.value().final_writes);
      if (preplayed.empty()) {
        for (tb::ce::TxnSlot slot : r.value().order) {
          preplayed.push_back(tb::core::PreplayedTxn{
              batch[slot], r.value().records[slot].rw_set,
              r.value().records[slot].emitted});
        }
      }
    }
    report->Add("ce.sim.batch_ms", PercentileOf(run_ms, 50), "ms");
    out.sim_restarts_per_txn = static_cast<double>(restarts) / txns;
  }

  {
    Spans::Scope span(spans, "probe.validate");
    std::vector<double> ms;
    for (int rep = 0; rep < 16; ++rep) {
      const Clock::time_point t0 = Clock::now();
      tb::core::ValidationResult v =
          tb::core::ValidatePreplay(*in.registry, preplayed, *in.seeded);
      ms.push_back(MsSince(t0));
      if (!v.valid) {
        out.error = "a preplayed batch failed validation: " + v.failure;
        return out;
      }
    }
    report->Add("core.validate_ms", PercentileOf(ms, 50), "ms");
  }

  // 500 transactions for the OE path: the cross-shard ones under 16-shard
  // hash placement first, topped up with the rest when the mix has fewer.
  std::vector<tb::txn::Transaction> all;
  for (const auto& batch : batches) {
    all.insert(all.end(), batch.begin(), batch.end());
  }
  {
    Spans::Scope span(spans, "probe.cross_exec");
    const tb::txn::ShardMapper mapper(kReplicas);
    std::vector<tb::txn::Transaction> cross, rest;
    for (const auto& tx : all) {
      (mapper.IsSingleShard(tx) ? rest : cross).push_back(tx);
    }
    cross.insert(cross.end(), rest.begin(), rest.end());
    cross.resize(std::min<size_t>(cross.size(), 500));
    const tb::core::CrossShardExecutor executor(
        in.registry, tb::ce::ExecutionCostModel{}.op_cost);
    std::vector<double> ms;
    for (int rep = 0; rep < 5; ++rep) {
      auto store = in.seeded->Fork();
      const Clock::time_point t0 = Clock::now();
      tb::core::CrossShardResult r = executor.Execute(cross, store.get());
      ms.push_back(MsSince(t0));
      if (r.executed != cross.size()) {
        out.error = "cross-shard executor applied " +
                    std::to_string(r.executed) + " of " +
                    std::to_string(cross.size());
        return out;
      }
    }
    report->Add("core.cross_exec_ms", PercentileOf(ms, 50), "ms");
  }

  {
    Spans::Scope span(spans, "probe.crypto");
    tb::core::ThunderboltPayload payload;
    payload.preplayed = preplayed;
    // Copies start without the digest cache, so each one hashes in full.
    std::vector<tb::core::ThunderboltPayload> copies(16, payload);
    std::vector<double> us;
    for (const auto& copy : copies) {
      const Clock::time_point t0 = Clock::now();
      g_sink = g_sink + copy.ContentDigest().Prefix64();
      us.push_back(MsSince(t0) * 1e3);
    }
    report->Add("crypto.sha256_block_us", PercentileOf(us, 50), "us");
    report->Add("crypto.txn_digest_ns", NsPerItem(all.size(), [&] {
                  for (const auto& tx : all) {
                    g_sink = g_sink + tx.Digest().Prefix64();
                  }
                }),
                "ns");
    const tb::crypto::KeyDirectory keys =
        tb::crypto::KeyDirectory::Create(kReplicas, in.seed);
    const tb::Hash256 digest = preplayed.empty()
                                   ? tb::Hash256{}
                                   : preplayed.front().tx.Digest();
    const tb::crypto::Signature sig = keys.key(3).Sign(digest);
    bool verified = true;
    report->Add("crypto.verify_us", NsPerItem(2000, [&] {
                  for (int i = 0; i < 2000; ++i) {
                    verified = keys.Verify(digest, sig) && verified;
                  }
                }) / 1e3,
                "us");
    tb::crypto::QuorumCert qc;
    qc.digest = digest;
    for (tb::ReplicaId id = 0; id < 2 * ((kReplicas - 1) / 3) + 1; ++id) {
      qc.signatures.push_back(keys.key(id).Sign(digest));
    }
    bool qc_ok = true;
    report->Add("crypto.qc_validate_us", NsPerItem(200, [&] {
                  for (int i = 0; i < 200; ++i) {
                    qc_ok = qc.Validate(keys, kReplicas).ok() && qc_ok;
                  }
                }) / 1e3,
                "us");
    if (!verified || !qc_ok) {
      out.error = "a genuine signature or quorum certificate was rejected";
      return out;
    }
  }

  {
    Spans::Scope span(spans, "probe.dag");
    const double round_ms = DagRoundMs(in.seed, 40);
    if (round_ms == 0) {
      out.error = "DAG-only run committed no leader";
      return out;
    }
    report->Add("dag.round_ms", round_ms, "ms");
  }

  {
    Spans::Scope span(spans, "probe.sim");
    constexpr size_t kEvents = 100000;
    tb::sim::Simulator sim;
    uint64_t fired = 0;
    report->Add("sim.event_ns", NsPerItem(kEvents, [&] {
                  for (size_t i = 0; i < kEvents; ++i) {
                    sim.ScheduleAfter(static_cast<tb::SimTime>(i % 64),
                                      [&fired] { ++fired; });
                  }
                  sim.RunAll();
                }),
                "ns");
    if (fired != kEvents * kChunks) {
      out.error = "simulator dispatched " + std::to_string(fired) +
                  " of " + std::to_string(kEvents * kChunks) + " events";
      return out;
    }
  }

  {
    Spans::Scope span(spans, "probe.storage");
    auto store = in.seeded->Fork();
    std::vector<double> us;
    for (const auto& writes : final_writes) {
      const Clock::time_point t0 = Clock::now();
      const tb::Status written = store->Write(writes);
      us.push_back(MsSince(t0) * 1e3);
      if (!written.ok()) {
        out.error = "mem store: " + written.ToString();
        return out;
      }
    }
    report->Add("storage.mem.write_batch_us", PercentileOf(us, 50), "us");
    std::vector<tb::storage::Key> keys;
    for (const auto& tx : all) keys.push_back(tx.accounts[0] + "/checking");
    report->Add("storage.mem.get_ns", NsPerItem(keys.size(), [&] {
                  for (const auto& key : keys) {
                    auto v = in.seeded->Get(key);
                    g_sink = g_sink + (v.ok() ? v.value().value : 0);
                  }
                }),
                "ns");
  }

  {
    Spans::Scope span(spans, "probe.txn");
    const tb::txn::ShardMapper mapper(kReplicas);
    for (const auto& tx : all) g_sink = g_sink + mapper.IsSingleShard(tx);
    report->Add("txn.classify_ns", NsPerItem(all.size(), [&] {
                  for (const auto& tx : all) {
                    g_sink = g_sink + mapper.IsSingleShard(tx);
                  }
                }),
                "ns");
  }

  {
    Spans::Scope span(spans, "probe.workload");
    uint32_t next = kProbeBatches;
    report->Add("workload.next_ns", NsPerItem(4 * batches[0].size(), [&] {
                  for (int b = 0; b < 4; ++b) {
                    g_sink = g_sink + in.make_batch(next++).size();
                  }
                }),
                "ns");
  }
  return out;
}

}  // namespace wallbench
