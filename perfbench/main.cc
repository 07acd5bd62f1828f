// ringo_perfbench: runs one workload and prints its report as one JSON
// line. run.py builds this binary and wraps it; see README.md.
//
//   ringo_perfbench --workload so_workflow|lj_analytics|serve_rw
//                   --seed N --seconds S --trace 0|1
//                   --work-dir DIR [--setup-reps R] [--source-digest D]
//
// The library runs with one thread per core the process may use.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "workloads.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr, "ringo_perfbench: %s\n", why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  std::string digest = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      opts.workload = v;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::atof(v);
    } else if (flag == "--trace") {
      opts.trace = std::strcmp(v, "1") == 0;
    } else if (flag == "--work-dir") {
      opts.work_dir = v;
    } else if (flag == "--setup-reps") {
      opts.setup_reps = std::atoi(v);
    } else if (flag == "--source-digest") {
      digest = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (opts.work_dir.empty() || opts.seconds <= 0 || opts.setup_reps < 1) {
    Usage("need --work-dir, --seconds > 0 and --setup-reps >= 1");
  }

  // Results measured with more or fewer threads than cores say nothing
  // about the machine's scaling; refuse a runtime that clamps the count.
  const int cores = perfbench::AvailableCores();
  opts.threads = cores;
  ringo::SetNumThreads(cores);
  if (ringo::NumThreads() != cores) {
    std::fprintf(stderr, "ringo_perfbench: %d threads effective, %d cores\n",
                 ringo::NumThreads(), cores);
    return 2;
  }
  if (opts.trace != ringo::metrics::Enabled()) {
    Usage("traced runs need RINGO_METRICS on, untraced runs RINGO_METRICS=off");
  }

  perfbench::Report report;
  report.Note("workload", opts.workload);
  report.Note("seed", static_cast<double>(opts.seed));
  report.Note("seconds", opts.seconds);
  report.Note("cores", cores);
  report.Note("threads", opts.threads);
  report.Note("build_type", PERFBENCH_BUILD_TYPE);
  report.Note("source_digest", digest);
  report.Note("setup_reps", opts.setup_reps);

  if (opts.workload == "so_workflow") {
    perfbench::RunSoWorkflow(opts, &report);
  } else if (opts.workload == "lj_analytics") {
    perfbench::RunLjAnalytics(opts, &report);
  } else if (opts.workload == "serve_rw") {
    perfbench::RunServeRw(opts, &report);
  } else {
    Usage(("unknown workload '" + opts.workload + "'").c_str());
  }
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}
