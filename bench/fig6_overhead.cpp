// Fig. 6 — Performance overhead of RTAD vs software collection on the
// SPEC CINT2006 suite.
#include <iostream>
#include <vector>

#include "common.hpp"
#include "rtad/core/experiment.hpp"
#include "rtad/core/report.hpp"
#include "rtad/sim/stats.hpp"

using namespace rtad;
using cpu::InstrumentationMode;

namespace {

int run() {
  const auto options = core::DetectionOptions::from_env();
  std::cout << "FIG. 6: PERFORMANCE OVERHEAD OF RTAD (% over Baseline)\n\n";

  const std::vector<InstrumentationMode> modes = {
      InstrumentationMode::kRtad, InstrumentationMode::kSwSys,
      InstrumentationMode::kSwFunc, InstrumentationMode::kSwAll};

  core::Table table({"Benchmark", "RTAD", "SW_SYS", "SW_FUNC", "SW_ALL"});
  std::vector<std::vector<double>> per_mode(modes.size());

  for (const auto& profile : workloads::spec_cint2006()) {
    std::vector<std::string> row = {profile.name};
    for (std::size_t m = 0; m < modes.size(); ++m) {
      // SW_SYS overhead is syscall-driven: sample enough instructions to
      // see a statistically meaningful number of syscalls.
      const std::uint64_t instructions =
          modes[m] == InstrumentationMode::kSwSys
              ? 8 * profile.syscall_interval_instrs
              : 400'000;
      const double pct =
          core::measure_overhead(profile, modes[m], options, instructions);
      per_mode[m].push_back(1.0 + pct / 100.0);  // ratio for geomean
      row.push_back(core::fmt(pct, 3) + "%");
    }
    table.add_row(std::move(row));
    std::cout << "." << std::flush;
  }
  std::cout << "\n\n";
  table.print(std::cout);

  std::cout << "\nGeometric-mean overhead:\n";
  const char* names[] = {"RTAD", "SW_SYS", "SW_FUNC", "SW_ALL"};
  const double paper[] = {0.052, 0.6, 10.7, 43.4};
  for (std::size_t m = 0; m < modes.size(); ++m) {
    const double gm = (sim::geometric_mean(per_mode[m]) - 1.0) * 100.0;
    std::cout << "  " << names[m] << ": " << core::fmt(gm, 3)
              << "%   (paper: " << core::fmt(paper[m], 3) << "%)\n";
  }
  std::cout << "\nShape check: RTAD << SW_SYS < SW_FUNC < SW_ALL\n";
  return 0;
}

}  // namespace

int main() { return bench::run("fig6_overhead", run); }
