// Table I — Synthesized results of RTAD.
//
// Reproduces the per-submodule LUT/FF/BRAM and Design-Compiler gate counts
// of the default RTAD configuration (4 TA units, 5-CU trimmed ML-MIAOW).
#include <iostream>

#include "common.hpp"
#include "rtad/core/report.hpp"
#include "rtad/trim/area_model.hpp"

using namespace rtad;

namespace {

int run() {
  trim::MlpuStructure structure;
  structure.retained = gpgpu::RtlInventory::instance().ml_retained();
  const auto rows = trim::build_table1(structure);
  const auto total = trim::total_of(rows);

  std::cout << "TABLE I: SYNTHESIZED RESULTS OF RTAD\n"
            << "(FPGA: Xilinx XC7Z045 model; gate counts: calibrated 45nm "
               "gate-equivalent model)\n\n";

  core::Table table({"RTAD Module", "Submodule", "LUTs", "FFs", "BRAMs",
                     "Gate Counts"});
  for (const auto& r : rows) {
    table.add_row({r.module, r.submodule, core::fmt_count(r.luts),
                   core::fmt_count(r.ffs), core::fmt_count(r.brams),
                   core::fmt_count(r.gates)});
  }
  table.add_row({"Total", "", core::fmt_count(total.luts),
                 core::fmt_count(total.ffs), core::fmt_count(total.brams),
                 core::fmt_count(total.gates)});
  table.print(std::cout);

  std::cout << "\nFPGA utilization (XC7Z045: 218,600 LUTs / 437,200 FFs / "
               "545 BRAMs):\n"
            << "  LUTs : " << core::fmt(100.0 * total.luts / 218'600.0, 1)
            << "%  (paper: 91.2%)\n"
            << "  FFs  : " << core::fmt(100.0 * total.ffs / 437'200.0, 1)
            << "%  (paper: 18.5%)\n"
            << "  BRAMs: " << core::fmt(100.0 * total.brams / 545.0, 1)
            << "%  (paper: 27.5%)\n"
            << "\nPaper totals: 199,406 LUTs / 80,953 FFs / 150 BRAMs / "
               "1,927,294 GE\n";
  return 0;
}

}  // namespace

int main() { return bench::run("table1_synthesis", run); }
