#include "rtad/trace/protocol.hpp"

#include "rtad/trace/etrace.hpp"
#include "rtad/trace/pft.hpp"

namespace rtad::trace {

const char* to_string(TraceProtocol proto) noexcept {
  switch (proto) {
    case TraceProtocol::kPft: return "pft";
    case TraceProtocol::kEtrace: return "etrace";
  }
  return "?";
}

const ProtocolTraits& traits(TraceProtocol proto) noexcept {
  // PFT: A-sync (5) + I-sync (6) + CONTEXTID (2) preamble; branch packets
  // up to 5 bytes, I-sync 6; atoms carry 4 outcomes.
  static constexpr ProtocolTraits kPftTraits{"pft", 32, 2, 6, 13, 4};
  // E-Trace: 3 sync bytes + terminator + 4 addr + context preamble;
  // address packets up to 1+4 bytes; maps carry up to 31 outcomes.
  static constexpr ProtocolTraits kEtraceTraits{"etrace", 32, 2, 5, 9, 31};
  return proto == TraceProtocol::kPft ? kPftTraits : kEtraceTraits;
}

std::unique_ptr<TraceEncoder> make_encoder(TraceProtocol proto) {
  if (proto == TraceProtocol::kEtrace) {
    return std::make_unique<EtraceEncoder>();
  }
  return std::make_unique<PftEncoder>();
}

std::unique_ptr<TraceDecoder> make_decoder(TraceProtocol proto) {
  if (proto == TraceProtocol::kEtrace) {
    return std::make_unique<EtraceStreamDecoder>();
  }
  return std::make_unique<PftStreamDecoder>();
}

}  // namespace rtad::trace
