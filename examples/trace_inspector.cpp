// trace_inspector: a PFT stream analysis utility — what you'd point at the
// TPIU pins while bringing up the IGM. Generates a benchmark's branch
// trace, encodes it with the PTM packetizer, and reports stream statistics:
// packet mix, compression efficiency, address-packet length histogram, and
// an annotated dump of the first packets.
//
// Usage: trace_inspector [benchmark] [branches]   (default: gcc 50000)
#include <iomanip>
#include <iostream>

#include "rtad/core/report.hpp"
#include "rtad/trace/pft.hpp"
#include "rtad/workloads/trace_generator.hpp"

using namespace rtad;

int main(int argc, char** argv) {
  const std::string bench = argc > 1 ? argv[1] : "gcc";
  const std::size_t n_branches =
      argc > 2 ? static_cast<std::size_t>(std::atoll(argv[2])) : 50'000;
  const auto& profile = workloads::find_profile(bench);
  std::cout << "=== PFT trace inspector: " << profile.name << ", "
            << n_branches << " branches ===\n\n";

  // Encode.
  workloads::TraceGenerator gen(profile, 7);
  trace::PftEncoder enc;
  std::vector<std::uint8_t> bytes;
  enc.emit_sync(profile.code_base, 1, bytes);
  std::size_t waypoints = 0, conditionals = 0, syscalls = 0;
  std::uint64_t addr_packet_lengths[6] = {0};
  for (std::size_t i = 0; i < n_branches; ++i) {
    const auto step = gen.next();
    const auto& ev = step.event;
    const std::size_t before = bytes.size();
    enc.encode(ev, bytes);
    if (ev.kind == cpu::BranchKind::kConditional) {
      ++conditionals;
    } else {
      ++waypoints;
      if (ev.kind == cpu::BranchKind::kSyscall) ++syscalls;
      const std::size_t len = bytes.size() - before;
      if (len >= 1 && len <= 5) ++addr_packet_lengths[len];
    }
  }
  enc.flush(bytes);

  // Decode + verify while counting packets.
  trace::PftStreamDecoder dec;
  std::size_t decoded_branches = 0;
  for (const auto b : bytes) {
    if (dec.feed(trace::TraceByte{b, 0, 0, false})) ++decoded_branches;
  }

  std::cout << "Stream: " << bytes.size() << " bytes for "
            << gen.instructions_emitted() << " instructions ("
            << core::fmt(8.0 * bytes.size() / gen.instructions_emitted(), 3)
            << " bits/instr, "
            << core::fmt(static_cast<double>(bytes.size()) / n_branches, 2)
            << " bytes/branch)\n"
            << "Events: " << conditionals << " conditionals (atoms), "
            << waypoints << " waypoints (" << syscalls << " syscalls)\n"
            << "Decode check: " << decoded_branches << "/" << waypoints
            << " waypoint addresses recovered, " << dec.atoms_decoded()
            << " atoms\n\n";

  core::Table hist({"address packet bytes", "count", "share"});
  for (int len = 1; len <= 5; ++len) {
    hist.add_row({std::to_string(len),
                  core::fmt_count(addr_packet_lengths[len]),
                  core::fmt(100.0 * addr_packet_lengths[len] /
                                std::max<std::uint64_t>(1, waypoints),
                            1) +
                      "%"});
  }
  hist.print(std::cout);
  std::cout << "(short packets = the encoder's address compression at work: "
               "only changed low-order bits travel)\n\n";

  // Annotated dump of the first packets.
  std::cout << "First packets:\n";
  trace::PftStreamDecoder dump_dec;
  std::size_t shown = 0;
  for (std::size_t i = 0; i < bytes.size() && shown < 18; ++i) {
    const auto type = trace::classify_header(bytes[i]);
    std::cout << "  +" << std::setw(3) << i << "  0x" << std::hex
              << std::setw(2) << std::setfill('0')
              << static_cast<int>(bytes[i]) << std::dec << std::setfill(' ');
    if (auto d = dump_dec.feed(trace::TraceByte{bytes[i], 0, 0, false})) {
      std::cout << "  -> branch target 0x" << std::hex << d->address
                << std::dec << (d->is_syscall ? " (syscall)" : "");
      ++shown;
    } else {
      switch (type) {
        case trace::PacketType::kAsync: std::cout << "  async/sync run"; break;
        case trace::PacketType::kIsync: std::cout << "  i-sync"; break;
        case trace::PacketType::kContextId: std::cout << "  context-id"; break;
        case trace::PacketType::kAtom: std::cout << "  atom packet"; break;
        case trace::PacketType::kBranchAddress:
          std::cout << "  branch-address byte";
          break;
      }
      ++shown;
    }
    std::cout << "\n";
  }
  return decoded_branches == waypoints ? 0 : 1;
}
