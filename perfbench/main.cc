// perfbench — runs one workload of the repo benchmark and prints its
// metrics. Usually started through run.py, which builds it first:
//
//   perfbench --workload stream_train --seed 1 --seconds 30 --trace 0
//             --workdir <scratch dir>
//
// Prints a human-readable table (each metric with its unit and how it was
// formed), then, as the last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). Exits 1 when an output check fails, 2 on bad usage or a
// workload-changing environment variable, 3 when an operation fails.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "util/simd.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "stream_train|serve_read|live_durable --seed N --seconds S "
               "--trace 0|1 --workdir DIR\n",
               why);
  return 2;
}

bool ParseUint(const char* s, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // These redirect shard count, writer threads and the SIMD backend from
  // outside the configs the workloads set; refuse rather than measure a
  // silently different workload.
  for (const char* var : {"SUPA_WRITER_THREADS", "SUPA_SHARDS", "SUPA_SIMD"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", var);
      return 2;
    }
  }
  perfbench::Options opt;
  bool have_workload = false;
  bool have_workdir = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    uint64_t n = 0;
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--workdir") {
      opt.workdir = value;
      have_workdir = true;
    } else if (flag == "--seed" && ParseUint(value, &n)) {
      opt.seed = n;
    } else if (flag == "--seconds" && ParseUint(value, &n) && n > 0) {
      opt.seconds = static_cast<double>(n);
    } else if (flag == "--trace" && ParseUint(value, &n) && n <= 1) {
      opt.trace = n == 1;
    } else {
      return Usage(("bad argument " + flag + " " + value).c_str());
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_workdir) {
    return Usage("missing arguments");
  }

  perfbench::Outcome out;
  try {
    out = perfbench::RunWorkload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 3;
  }

  const auto& metrics = opt.trace ? out.per_layer : out.end_to_end;
  bool correct = out.check_failures.empty();
  for (const auto& m : metrics) {
    if (!std::isfinite(m.value)) {
      out.check_failures.push_back(m.name + " is not finite");
      correct = false;
    }
  }
  std::printf("# perfbench %s seed=%llu seconds=%.0f trace=%d simd=%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, supa::simd::BackendName());
  for (const auto& m : metrics) {
    std::printf("%-38s %16.6g %-10s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.detail.c_str());
  }
  for (const auto& m : out.ungated) {
    std::printf("%-38s %16.6g %-10s (not gated) %s\n", m.name.c_str(),
                m.value, m.unit.c_str(), m.detail.c_str());
  }
  for (const auto& f : out.check_failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
