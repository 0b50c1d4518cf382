// Trace protocol selection — the seam between the on-SoC trace source and
// the IGM front stage.
//
// The CPU side emits protocol-neutral cpu::BranchEvents; everything between
// the TraceSource's packetizer and the Trace Analyzer's byte-stream decoder
// is protocol-specific and lives behind the TraceEncoder/TraceDecoder
// interfaces (encoder.hpp / decoder.hpp). Two protocols are implemented:
//
//   * kPft    — ARM Program Flow Trace subset (pft_packet.hpp): atom
//               packets, prefix-compressed branch addresses, A-sync runs.
//   * kEtrace — RISC-V Efficient Trace subset (etrace_packet.hpp):
//               branch-map packets, zigzag differential addresses, format-3
//               sync preambles.
//
// Both reconstruct the identical waypoint/outcome stream from the same
// workload; they differ only in bytes on the wire (bandwidth) and in the
// shape of their resynchronization grammar.
#pragma once

#include <cstdint>

namespace rtad::trace {

enum class TraceProtocol : std::uint8_t {
  kPft,     ///< ARM PFT subset (the paper's CoreSight PTM path)
  kEtrace,  ///< RISC-V Efficient Trace subset
};

const char* to_string(TraceProtocol proto) noexcept;

/// Structural assumptions a protocol imposes on the pipeline, made explicit
/// so downstream consumers (AddressMapper tables, vector encoders) never
/// bake one protocol's geometry in silently.
struct ProtocolTraits {
  const char* name;          ///< stable lower-case identifier
  int address_bits;          ///< traced target width (bits [msb:1])
  int address_alignment;     ///< bytes; bit 0 of a target is never traced
  int max_packet_bytes;      ///< longest packet incl. header (sync aside)
  int sync_preamble_bytes;   ///< resync preamble length on the wire
  int max_outcomes_per_packet;  ///< conditional outcomes one packet batches
};

const ProtocolTraits& traits(TraceProtocol proto) noexcept;

}  // namespace rtad::trace
