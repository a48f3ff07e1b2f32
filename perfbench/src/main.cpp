// perfbench: one workload of the end-to-end benchmark per invocation.
//
//   perfbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//             [--out-dir=<dir>] [--tiny] [--fault=<check>]
//
// Prints an environment line, a diagnostics line and, last, the result:
// {"correct": true, "attempted": N, "failed": F, "metrics": {...}} with the
// end-to-end metrics (--trace=0) or the per-layer metrics (--trace=1). A
// failed correctness check prints no result and exits with status 2.
#include <functional>
#include <iostream>
#include <map>
#include <string>

#include "bench.hpp"

namespace {

using perfbench::Options;

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) return false;
    a = a.substr(2);
    const auto eq = a.find('=');
    const std::string key = a.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : a.substr(eq + 1);
    try {
      if (key == "workload") {
        o.workload = val;
      } else if (key == "seed") {
        o.seed = std::stoull(val);
      } else if (key == "seconds") {
        o.seconds = std::stod(val);
      } else if (key == "trace") {
        o.trace = val == "1";
        if (val != "0" && val != "1") return false;
      } else if (key == "tiny") {
        o.tiny = true;
      } else if (key == "out-dir") {
        o.outDir = val;
      } else if (key == "fault") {
        o.fault = val;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return !o.workload.empty() && o.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::cerr << "usage: perfbench --workload=<update_small|read_large|"
                 "serve_open|ckpt_writes> --seed=<n> --seconds=<s> "
                 "--trace=<0|1> [--out-dir=<dir>] [--tiny] [--fault=<check>]\n";
    return 1;
  }
  const std::map<std::string,
                 std::function<void(const Options&, perfbench::Report&)>>
      workloads = {{"update_small", perfbench::runUpdateSmall},
                   {"read_large", perfbench::runReadLarge},
                   {"serve_open", perfbench::runServeOpen},
                   {"ckpt_writes", perfbench::runCkptWrites}};
  const auto it = workloads.find(opt.workload);
  if (it == workloads.end()) {
    std::cerr << "unknown workload " << opt.workload << "\n";
    return 1;
  }

  // Every workload runs exactly kThreadBudget busy threads.
  const int cpus = perfbench::usableCpus();
  if (cpus < perfbench::kThreadBudget) {
    std::cerr << "perfbench needs " << perfbench::kThreadBudget
              << " usable CPUs for its busy threads, found " << cpus << "\n";
    return 1;
  }
  perfbench::StealSampler::instance();  // starts sampling
  const double steal0 = perfbench::stealMs();
  const double stallUs = perfbench::stallProbeUs(opt.tiny ? 0.02 : 0.2);

  perfbench::Report report;
  const std::uint64_t t0 = perfbench::nowNs();
  try {
    it->second(opt, report);
  } catch (const perfbench::CheckFailed& e) {
    std::cerr << "correctness check failed: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 3;
  }
  std::cout << "perfbench-env {\"workload\": \"" << opt.workload
            << "\", \"seed\": " << opt.seed << ", \"trace\": " << opt.trace
            << ", \"nproc\": " << cpus
            << ", \"busy_threads\": " << perfbench::kThreadBudget
            << ", \"stall_probe_max_us\": " << stallUs
            << ", \"steal_ms\": " << perfbench::stealMs() - steal0
            << ", \"run_s\": "
            << static_cast<double>(perfbench::nowNs() - t0) / 1e9 << "}\n";
  std::cout << "perfbench-diag " << report.diagJson() << "\n";
  std::cout << report.resultJson() << std::endl;
  return 0;
}
