// Ablation — why the trace analyzer has four TA units.
//
// Sweeps the TA width (bytes decoded per 125 MHz cycle) against a
// branch-heavy trace and reports decode throughput, backlog and drops,
// plus the area cost of each configuration.
#include <iostream>

#include "common.hpp"
#include "rtad/core/report.hpp"
#include "rtad/igm/igm.hpp"
#include "rtad/sim/rng.hpp"
#include "rtad/trace/pft.hpp"
#include "rtad/trim/area_model.hpp"
#include "rtad/workloads/trace_generator.hpp"

using namespace rtad;

namespace {

int run() {
  std::cout << "ABLATION: TRACE ANALYZER WIDTH (TA units)\n\n";
  const auto& profile = workloads::find_profile("omnetpp");

  // Pre-encode a branch-heavy trace burst (omnetpp waypoints).
  workloads::TraceGenerator gen(profile, 3);
  trace::PftEncoder enc;
  std::vector<std::uint8_t> bytes;
  enc.emit_sync(0, 1, bytes);
  std::size_t waypoints = 0;
  while (waypoints < 4'000) {
    const auto step = gen.next();
    if (!step.event.taken) continue;
    enc.encode(step.event, bytes);
    if (cpu::is_waypoint(step.event.kind)) ++waypoints;
  }
  enc.flush(bytes);

  core::Table table({"TA units", "decode cycles", "branches/kcycle",
                     "port backlog (peak words)", "TA LUTs", "TA gates"});

  for (const std::uint32_t width : {1u, 2u, 3u, 4u}) {
    sim::Fifo<coresight::TpiuWord> port(1u << 16);
    coresight::TpiuWord w;
    for (const auto b : bytes) {
      w.bytes[w.count] = trace::TraceByte{b, 0, 0, false};
      if (++w.count == 4) {
        port.push(w);
        w = coresight::TpiuWord{};
      }
    }
    if (w.count > 0) port.push(w);
    const std::size_t initial_words = port.size();

    igm::IgmConfig cfg;
    cfg.ta_width = width;
    cfg.encoder.vocab_size = 256;
    cfg.out_capacity = 1u << 16;
    igm::Igm igm(cfg, port);
    std::uint64_t cycles = 0;
    std::size_t peak = initial_words;
    while (igm.vectors_out() < waypoints && cycles < (1u << 22)) {
      igm.tick();
      peak = std::max(peak, port.size());
      ++cycles;
    }
    const auto area = trim::igm_trace_analyzer_area(width);
    table.add_row(
        {std::to_string(width), core::fmt_count(cycles),
         core::fmt(1000.0 * static_cast<double>(waypoints) /
                       static_cast<double>(cycles),
                   1),
         core::fmt_count(peak), core::fmt_count(area.luts),
         core::fmt_count(area.gates)});
  }
  table.print(std::cout);
  std::cout << "\nA 32-bit TPIU word can carry four packet bytes per fabric "
               "cycle; fewer than four TA units\nleave words queued at the "
               "port, which is why the IGM instantiates four (§III-A).\n";
  return 0;
}

}  // namespace

int main() { return bench::run("ablation_ta_units", run); }
