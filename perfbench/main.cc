// xdb_perfbench: one workload run of the end-to-end benchmark.
//
//   xdb_perfbench --workload report|serve|ingest --seed N --seconds S
//                 --trace 0|1 [--out-dir DIR]
//
// Prints `# ` note lines, then as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The traced run also writes spans-<workload>.tsv and
// layers-<workload>.json into DIR. perfbench/run.py builds and drives it.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

extern char** environ;

namespace xdb::perfbench {
namespace {

constexpr size_t kMaxDumpedSpans = 200000;

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') {
        *error = "bad --seed " + value;
        return false;
      }
    } else if (flag == "--seconds") {
      long s = std::strtol(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || s < 1 || s > 600) {
        *error = "bad --seconds " + value;
        return false;
      }
      args->seconds = static_cast<int>(s);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        *error = "bad --trace " + value;
        return false;
      }
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  if (args->workload.empty()) {
    *error = "--workload is required";
    return false;
  }
  return true;
}

// Settings must come from the command line alone: any XDB_* variable would
// change thread counts, optimizer rules, budgets or durability underneath
// the benchmark, and an assertion-enabled build measures something else.
bool CheckEnvironment() {
  bool ok = true;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "XDB_", 4) == 0) {
      std::fprintf(stderr, "refusing to run: environment variable %s is set\n", *e);
      ok = false;
    }
  }
#ifndef NDEBUG
  std::fprintf(stderr, "refusing to run: built without NDEBUG\n");
  ok = false;
#endif
  return ok;
}

void PrintResult(const Outcome& out) {
  for (const std::string& note : out.notes) std::printf("# %s\n", note.c_str());
  std::string json = std::string("{\"correct\": ") + (out.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    json += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace xdb::perfbench

int main(int argc, char** argv) {
  using namespace xdb::perfbench;
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "xdb_perfbench: %s\n", error.c_str());
    return 2;
  }
  if (!CheckEnvironment()) return 2;

  Tracer tracer;
  Tracer* t = args.trace ? &tracer : nullptr;
  Outcome out;
  if (args.workload == "report") {
    out = RunReport(args, t);
  } else if (args.workload == "serve") {
    out = RunServe(args, t);
  } else if (args.workload == "ingest") {
    out = RunIngest(args, t);
  } else {
    std::fprintf(stderr, "xdb_perfbench: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  out.notes.insert(out.notes.begin(), "workload " + args.workload + " seed " +
                                          std::to_string(args.seed) + " seconds " +
                                          std::to_string(args.seconds) + " trace " +
                                          (args.trace ? "1" : "0"));
  if (out.attempted > 0) {
    out.notes.push_back("error_frac " +
                        std::to_string(static_cast<double>(out.failed) /
                                       static_cast<double>(out.attempted)));
  }
  if (args.trace) {
    std::string spans = args.out_dir + "/spans-" + args.workload + ".tsv";
    std::string layers = args.out_dir + "/layers-" + args.workload + ".json";
    if (!tracer.WriteSpans(spans, kMaxDumpedSpans) ||
        !WriteLayerTable(layers, args.workload, args.seed, tracer, out.metrics)) {
      std::fprintf(stderr, "xdb_perfbench: cannot write trace files to %s\n",
                   args.out_dir.c_str());
      return 1;
    }
    out.notes.push_back("trace: " + std::to_string(tracer.span_count()) +
                        " spans; wrote " + spans + " and " + layers);
  }
  if (out.metrics.empty()) {
    for (const std::string& note : out.notes) {
      std::fprintf(stderr, "%s\n", note.c_str());
    }
    std::fprintf(stderr, "xdb_perfbench: %s set-up failed\n", args.workload.c_str());
    return 1;
  }
  PrintResult(out);
  return 0;
}
