// wallbench: wall-clock benchmark of the Thunderbolt reproduction.
//
//   wallbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   wallbench --self-test
//
// Prints one JSON line last on stdout: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 they are the per-layer ones, and the spans go to
// .bench_out/<workload>-seed<n>.trace.json. See README.md.
#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <string>

#include "report.h"
#include "workloads.h"

namespace wallbench {

void FinishTrace(const Args& args, const Spans& spans, Report* report) {
  const std::map<std::string, double> self = spans.SelfMs();
  for (const char* name : {"construct", "op", "engine_create", "pool_run",
                           "store_write", "cluster_run", "check"}) {
    auto it = self.find(name);
    report->Add(std::string("self.") + name + "_ms",
                it == self.end() ? 0 : it->second, "ms");
  }
  const std::string dir = ".bench_out";
  if (mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    report->Fail("cannot create " + dir);
    return;
  }
  const std::string path = dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".trace.json";
  if (!spans.WriteChromeJson(path)) {
    report->Fail("cannot write " + path);
    return;
  }
  std::fprintf(stderr, "wallbench: spans written to %s\n", path.c_str());
}

}  // namespace wallbench

int main(int argc, char** argv) {
  using namespace wallbench;
  const Clock::time_point start = Clock::now();
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  if (args.self_test) return SelfTest();
  Report report;
  if (args.workload == "exec-smallbank-hot") {
    RunExec(args, start, &report);
  } else if (args.workload == "cluster-smallbank-hot" ||
             args.workload == "cluster-smallbank-cross") {
    RunCluster(args, start, &report);
  } else {
    std::fprintf(stderr, "wallbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  for (size_t i = 0; i < report.errors.size() && i < 20; ++i) {
    std::fprintf(stderr, "wallbench: %s\n", report.errors[i].c_str());
  }
  if (report.metrics.empty()) return 1;  // Set-up failed; nothing measured.
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}
