// rtad_perfbench — runs one benchmark workload and prints its result as one
// JSON line on stdout (run.py turns it into the benchmark's result line).
//
//   rtad_perfbench --workload fleet_storm|telemetry_rank
//                  --seed N --seconds S [--trace 0|1] [--spans PATH]
//                  [--jobs N] [--digest-only 0|1]
//
// Every execution choice is pinned in code. rtad_perfbench refuses to start when
// any RTAD_* variable is set, because those change what the library runs
// (RTAD_BACKEND alone switches the GPU backend) and a leaked one would
// silently measure another program.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"

extern char** environ;

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "rtad_perfbench: " << why
            << "\nusage: rtad_perfbench --workload NAME --seed N --seconds S"
               " [--trace 0|1] [--spans PATH] [--jobs N] [--digest-only 0|1]\n";
  std::exit(2);
}

void print_metrics(const Metrics& m) {
  std::printf("{");
  bool first = true;
  for (const auto& e : m.entries()) {
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", first ? "" : ",",
                e.name.c_str(), e.value, e.unit.c_str());
    first = false;
  }
  std::printf("}");
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  std::string spans_path;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        cfg.workload = val;
      } else if (arg == "--seed") {
        cfg.seed = std::stoull(val);
        have_seed = true;
      } else if (arg == "--seconds") {
        cfg.seconds = std::stod(val);
      } else if (arg == "--trace") {
        if (val != "0" && val != "1") usage("--trace takes 0 or 1");
        cfg.trace = val == "1";
      } else if (arg == "--spans") {
        spans_path = val;
      } else if (arg == "--digest-only") {
        cfg.digest_only = val == "1";
      } else if (arg == "--jobs") {
        cfg.jobs = std::stoul(val);
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + val);
    }
  }
  if (cfg.workload.empty() || !have_seed) usage("--workload and --seed are required");
  if (!(cfg.seconds > 0.0)) usage("--seconds must be positive");
  if (cfg.jobs == 0) usage("--jobs must be positive");

  for (char** env = environ; *env != nullptr; ++env) {
    const std::string kv = *env;
    const auto eq = kv.find('=');
    if (kv.rfind("RTAD_", 0) == 0 && eq != std::string::npos && eq + 1 < kv.size()) {
      std::cerr << "rtad_perfbench: refusing to run with " << kv.substr(0, eq)
                << " set: the benchmark pins its configuration in code\n";
      return 2;
    }
  }

  Spans spans(cfg.trace);
  Outcome out;
  const std::uint64_t t_run = now_ns();
  try {
    if (cfg.workload == "fleet_storm") {
      out = run_fleet_storm(cfg, spans);
    } else if (cfg.workload == "telemetry_rank") {
      out = run_telemetry_rank(cfg, spans);
    } else {
      usage("unknown workload " + cfg.workload);
    }
  } catch (const std::exception& ex) {
    std::cerr << "rtad_perfbench: " << cfg.workload << " failed: " << ex.what() << "\n";
    return 1;
  }

  const std::uint64_t run_ns = now_ns() - t_run;
  out.end_to_end.set("peak_rss_mb", peak_rss_mb(), "MiB");
  if (cfg.trace) {
    add_span_metrics(spans, run_ns, out.per_layer);
    if (!spans_path.empty()) spans.dump(spans_path);
  }

  for (const auto& [name, pass] : out.gates) {
    std::cerr << "gate " << (pass ? "PASS" : "FAIL") << ": " << name << "\n";
  }
  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%.17g,\"trace\":%d,"
              "\"attempted\":%llu,\"failed\":%llu,\"digest\":\"%s\",\"op_digests\":[",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed), cfg.seconds,
              cfg.trace ? 1 : 0, static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), hex64(out.digest).c_str());
  for (std::size_t i = 0; i < out.op_digests.size(); ++i) {
    std::printf("%s\"%s\"", i ? "," : "", hex64(out.op_digests[i]).c_str());
  }
  std::printf("],\"gates\":[");
  for (std::size_t i = 0; i < out.gates.size(); ++i) {
    std::printf("%s{\"name\":\"%s\",\"pass\":%s}", i ? "," : "",
                out.gates[i].first.c_str(), out.gates[i].second ? "true" : "false");
  }
  std::printf("],\"end_to_end\":");
  print_metrics(out.end_to_end);
  std::printf(",\"per_layer\":");
  print_metrics(out.per_layer);
  std::printf("}\n");
  return 0;
}
