// The benchmark's workloads, layer probes and self-test.
#ifndef WALLBENCH_WORKLOADS_H_
#define WALLBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "contract/contract.h"
#include "report.h"
#include "storage/kv_store.h"
#include "txn/transaction.h"

namespace wallbench {

/// Pool width of the threaded tier: one worker per CPU this process may
/// run on, at most 4.
uint32_t ThreadWorkers();

/// `exec-smallbank-hot`: SmallBank batches through ce::ExecutorPool
/// ("thread") into a "mem" store, closed loop, checked against BankModel.
void RunExec(const Args& args, Clock::time_point process_start,
             Report* report);

/// `cluster-smallbank-hot` / `cluster-smallbank-cross`: a 16-replica
/// core::Cluster run in fixed virtual slices.
void RunCluster(const Args& args, Clock::time_point process_start,
                Report* report);

/// Inputs of the per-layer probes, drawn from the run's own workload
/// shape and seed, so each layer is timed on the data it sees in the run.
struct ProbeInputs {
  /// Returns the i-th 500-transaction batch of a fresh generator with the
  /// workload's options (global mix, or homed at shard i mod 16).
  std::function<std::vector<thunderbolt::txn::Transaction>(uint32_t)>
      make_batch;
  /// State right after seeding, with the workload's population.
  const thunderbolt::storage::KVStore* seeded = nullptr;
  const thunderbolt::contract::Registry* registry = nullptr;
  uint64_t seed = 0;
  /// False when the run's own loop already measured the thread pool.
  bool probe_thread_pool = true;
};

struct ProbeOutcome {
  std::string error;  // "" or the first probe failure.
  /// Restarts per transaction of the sim-pool probe batches.
  double sim_restarts_per_txn = 0;
};

/// Times each layer's public functions and adds the probe metrics
/// (see README.md) to `report`.
ProbeOutcome RunProbes(const ProbeInputs& in, Spans& spans, Report* report);

/// Ends a traced run: adds each layer's self time (self.<span>_ms) and
/// writes the spans to .bench_out/<workload>-seed<n>.trace.json.
void FinishTrace(const Args& args, const Spans& spans, Report* report);

/// Feeds every output check a genuine and a deliberately corrupted
/// result; returns 0 when each check accepts the first and rejects the
/// second.
int SelfTest();

}  // namespace wallbench

#endif  // WALLBENCH_WORKLOADS_H_
