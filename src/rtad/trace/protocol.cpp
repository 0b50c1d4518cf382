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
