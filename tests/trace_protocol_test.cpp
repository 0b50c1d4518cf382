// Trace protocol layer tests: factories, E-Trace packet grammar, seeded
// encoder->decoder round trips for both protocols, and E-Trace corruption
// recovery mirroring the PFT cases in fault_test.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rtad/coresight/tpiu.hpp"
#include "rtad/coresight/trace_source.hpp"
#include "rtad/igm/trace_analyzer.hpp"
#include "rtad/sim/fifo.hpp"
#include "rtad/sim/rng.hpp"
#include "rtad/trace/decoder.hpp"
#include "rtad/trace/encoder.hpp"
#include "rtad/trace/etrace.hpp"
#include "rtad/trace/pft.hpp"
#include "rtad/trace/protocol.hpp"

namespace rtad::trace {
namespace {

TraceByte tb(std::uint8_t value) { return TraceByte{value, 1000, 0, false}; }

/// Feed a byte vector and collect every decoded branch.
std::vector<DecodedBranch> feed_all(TraceDecoder& dec,
                                    const std::vector<std::uint8_t>& bytes) {
  std::vector<DecodedBranch> out;
  for (const auto b : bytes) {
    if (auto d = dec.feed(tb(b))) out.push_back(*d);
  }
  return out;
}

// ------------------------------------------------------------- factories

TEST(TraceProtocolFactory, EncoderDecoderPairsMatchProtocol) {
  for (auto proto : {TraceProtocol::kPft, TraceProtocol::kEtrace}) {
    auto enc = make_encoder(proto);
    auto dec = make_decoder(proto);
    ASSERT_NE(enc, nullptr);
    ASSERT_NE(dec, nullptr);
    EXPECT_EQ(enc->protocol(), proto);
    EXPECT_EQ(dec->protocol(), proto);
  }
  EXPECT_STREQ(to_string(TraceProtocol::kPft), "pft");
  EXPECT_STREQ(to_string(TraceProtocol::kEtrace), "etrace");
}

// --------------------------------------------------- E-Trace packet shape

TEST(EtracePacketShape, SyncPreambleIsRunTerminatorAddressContext) {
  EtraceEncoder enc;
  std::vector<std::uint8_t> bytes;
  enc.emit_sync(0x12345678, 7, bytes);
  const std::vector<std::uint8_t> expected = {
      0x03, 0x03, 0x03, 0xF3, 0x78, 0x56, 0x34, 0x12, 0x07};
  EXPECT_EQ(bytes, expected);
}

TEST(EtracePacketShape, BranchMapBatchesOutcomesLsbFirst) {
  EtraceEncoder enc;
  std::vector<std::uint8_t> bytes;
  cpu::BranchEvent ev;
  ev.kind = cpu::BranchKind::kConditional;
  for (bool taken : {true, false, true}) {
    ev.taken = taken;
    enc.encode(ev, bytes);
  }
  EXPECT_TRUE(bytes.empty());  // still batching
  enc.flush(bytes);
  // header: format 0b01, count=3 in bits[6:2]; payload: 0b101 LSB-first.
  const std::vector<std::uint8_t> expected = {0x0D, 0x05};
  EXPECT_EQ(bytes, expected);
}

TEST(EtracePacketShape, FullMapFlushesAtThirtyOneOutcomes) {
  EtraceEncoder enc;
  std::vector<std::uint8_t> bytes;
  cpu::BranchEvent ev;
  ev.kind = cpu::BranchKind::kConditional;
  ev.taken = true;
  for (int i = 0; i < kEtraceMaxMapOutcomes; ++i) enc.encode(ev, bytes);
  // 31 outcomes force an automatic flush: header + 4 bitmap bytes.
  ASSERT_EQ(bytes.size(), 5u);
  EXPECT_EQ(bytes[0], static_cast<std::uint8_t>(
                          kEtraceFormatBranchMap | (31 << 2)));
  EXPECT_EQ(bytes[1], 0xFF);
  EXPECT_EQ(bytes[2], 0xFF);
  EXPECT_EQ(bytes[3], 0xFF);
  EXPECT_EQ(bytes[4], 0x7F);  // bit 31 is padding and must be zero
}

TEST(EtracePacketShape, NearbyTargetTakesOneDeltaByte) {
  EtraceEncoder enc;
  std::vector<std::uint8_t> bytes;
  enc.emit_sync(0x1000, 1, bytes);
  bytes.clear();
  cpu::BranchEvent ev;
  ev.kind = cpu::BranchKind::kCall;
  ev.target = 0x1040;
  enc.encode(ev, bytes);
  // delta halfwords = 0x20, zigzag = 0x40 -> 1 payload byte.
  const std::vector<std::uint8_t> expected = {0x02, 0x40};
  EXPECT_EQ(bytes, expected);
  EXPECT_EQ(enc.address_bytes_needed(0x1042), 1);
  EXPECT_EQ(enc.address_bytes_needed(0x90000000), 4);
}

TEST(EtracePacketShape, SyscallSetsExceptionInfoInHeader) {
  EtraceEncoder enc;
  std::vector<std::uint8_t> bytes;
  enc.emit_sync(0x1000, 1, bytes);
  bytes.clear();
  cpu::BranchEvent ev;
  ev.kind = cpu::BranchKind::kSyscall;
  ev.target = 0x1040;
  enc.encode(ev, bytes);
  ASSERT_FALSE(bytes.empty());
  EXPECT_EQ(bytes[0] & kEtraceFormatMask, kEtraceFormatAddress);
  EXPECT_EQ((bytes[0] >> 2) & 0x03,
            static_cast<int>(EtraceExceptionInfo::kSyscall));
}

TEST(EtracePacketShape, ZigzagIsItsOwnInverse) {
  sim::Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = static_cast<std::int32_t>(rng.next());
    EXPECT_EQ(etrace_unzigzag(etrace_zigzag(v)), v);
  }
  EXPECT_EQ(etrace_zigzag(0), 0u);
  EXPECT_EQ(etrace_zigzag(-1), 1u);
  EXPECT_EQ(etrace_zigzag(1), 2u);
}

// ----------------------------------------------------- round-trip property

/// Seeded stream of branch events with 32-bit halfword-aligned targets and
/// a realistic kind mix (mostly conditionals, some calls/returns/jumps, a
/// few syscalls).
std::vector<cpu::BranchEvent> random_events(std::uint64_t seed,
                                            std::size_t count) {
  sim::Xoshiro256 rng(seed);
  std::vector<cpu::BranchEvent> events;
  events.reserve(count);
  std::uint64_t pc = 0x10000;
  for (std::size_t i = 0; i < count; ++i) {
    cpu::BranchEvent ev;
    const auto roll = rng.uniform_below(100);
    if (roll < 70) {
      ev.kind = cpu::BranchKind::kConditional;
      ev.taken = rng.chance(0.6);
    } else if (roll < 80) {
      ev.kind = cpu::BranchKind::kCall;
    } else if (roll < 90) {
      ev.kind = cpu::BranchKind::kReturn;
    } else if (roll < 96) {
      ev.kind = cpu::BranchKind::kIndirectJump;
    } else {
      ev.kind = cpu::BranchKind::kSyscall;
    }
    if (rng.chance(0.8)) {
      // Local transfer: short signed hop from the previous target.
      const auto hop = static_cast<std::int64_t>(rng.uniform_below(0x4000)) -
                       0x2000;
      pc = static_cast<std::uint64_t>(
               static_cast<std::int64_t>(pc) + 2 * hop) &
           0xFFFFFFFEULL;
    } else {
      pc = (rng.next() & 0xFFFFFFFEULL);
    }
    ev.target = pc;
    ev.source = pc ^ 0x40;
    events.push_back(ev);
  }
  return events;
}

struct Expected {
  std::uint64_t address;
  bool is_syscall;
};

/// Encode `events` (with a periodic sync) and decode the byte stream back;
/// every waypoint must reconstruct exactly and every conditional must land
/// in the outcome-batch census.
void round_trip(TraceProtocol proto, std::uint64_t seed) {
  SCOPED_TRACE(std::string("proto=") + to_string(proto) +
               " seed=" + std::to_string(seed));
  auto enc = make_encoder(proto);
  auto dec = make_decoder(proto);

  const auto events = random_events(seed, 2'000);
  std::vector<std::uint8_t> bytes;
  std::vector<Expected> expected;
  std::uint64_t conditionals = 0;

  enc->emit_sync(0, 1, bytes);
  std::size_t since_sync = 0;
  for (const auto& ev : events) {
    enc->encode(ev, bytes);
    if (cpu::is_waypoint(ev.kind)) {
      expected.push_back(Expected{ev.target & 0xFFFFFFFEULL,
                                  ev.kind == cpu::BranchKind::kSyscall});
    } else {
      ++conditionals;
    }
    // Interleave syncs mid-stream; the decoder must hold lock across them.
    if (++since_sync == 257) {
      enc->emit_sync(expected.empty() ? 0 : expected.back().address, 1,
                     bytes);
      since_sync = 0;
    }
  }
  enc->flush(bytes);

  const auto decoded = feed_all(*dec, bytes);
  ASSERT_EQ(decoded.size(), expected.size());
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    EXPECT_EQ(decoded[i].address, expected[i].address) << "waypoint " << i;
    EXPECT_EQ(decoded[i].is_syscall, expected[i].is_syscall)
        << "waypoint " << i;
    EXPECT_EQ(decoded[i].origin_ps, 1000u);  // sideband pass-through
  }
  EXPECT_EQ(dec->atoms_decoded(), conditionals);
  EXPECT_EQ(dec->branches_decoded(), expected.size());
  EXPECT_EQ(dec->bad_packets(), 0u);
  EXPECT_EQ(dec->resyncs(), 0u);
  EXPECT_EQ(dec->bytes_consumed(), bytes.size());
  EXPECT_TRUE(dec->synced());
}

TEST(ProtocolRoundTrip, PftReconstructsEveryWaypoint) {
  for (std::uint64_t seed : {1, 17, 4242}) {
    round_trip(TraceProtocol::kPft, seed);
  }
}

TEST(ProtocolRoundTrip, EtraceReconstructsEveryWaypoint) {
  for (std::uint64_t seed : {1, 17, 4242}) {
    round_trip(TraceProtocol::kEtrace, seed);
  }
}

TEST(ProtocolRoundTrip, BothProtocolsCarryTheSameBranchSequence) {
  const auto events = random_events(99, 3'000);
  std::vector<std::vector<std::uint64_t>> sequences;
  std::vector<std::uint64_t> atom_counts;
  for (auto proto : {TraceProtocol::kPft, TraceProtocol::kEtrace}) {
    auto enc = make_encoder(proto);
    auto dec = make_decoder(proto);
    std::vector<std::uint8_t> bytes;
    enc->emit_sync(0, 1, bytes);
    for (const auto& ev : events) enc->encode(ev, bytes);
    enc->flush(bytes);
    std::vector<std::uint64_t> seq;
    for (const auto& d : feed_all(*dec, bytes)) seq.push_back(d.address);
    sequences.push_back(std::move(seq));
    atom_counts.push_back(dec->atoms_decoded());
  }
  EXPECT_EQ(sequences[0], sequences[1]);
  EXPECT_EQ(atom_counts[0], atom_counts[1]);
}

// -------------------------------- E-Trace corruption recovery (cf. PFT
// cases in fault_test.cpp)

TEST(EtraceDecoderRecovery, MalformedPacketCountsAndResyncs) {
  EtraceStreamDecoder dec;
  EtraceEncoder enc;
  std::vector<std::uint8_t> bytes;
  enc.emit_sync(0, 1, bytes);
  EXPECT_TRUE(feed_all(dec, bytes).empty());
  EXPECT_TRUE(dec.synced());

  // Header bit 7 is reserved-zero for branch-map packets; a set bit is
  // provably corruption.
  feed_all(dec, {0x81});
  EXPECT_GE(dec.bad_packets(), 1u);
  EXPECT_GE(dec.resyncs(), 1u);
  EXPECT_FALSE(dec.synced());
}

TEST(EtraceDecoderRecovery, ReservedEncodingsAreBadPackets) {
  EtraceEncoder enc;
  // Each entry is a provably-corrupt byte sequence when it follows a clean
  // sync preamble.
  const std::vector<std::vector<std::uint8_t>> corruptions = {
      {0x00},        // format 0b00 reserved
      {0xF3},        // stray sync terminator with no run
      {0x01},        // branch map with count 0
      {0x82},        // address header with reserved bit 7
      {0x0E},        // address header with reserved exception info (0b11)
      {0x09, 0xFC},  // 2-outcome map with nonzero padding bits
  };
  for (const auto& bad : corruptions) {
    EtraceStreamDecoder dec;
    std::vector<std::uint8_t> bytes;
    enc.reset();
    enc.emit_sync(0, 1, bytes);
    feed_all(dec, bytes);
    ASSERT_TRUE(dec.synced());
    feed_all(dec, bad);
    EXPECT_EQ(dec.bad_packets(), 1u) << "corruption 0x" << std::hex
                                     << int{bad[0]};
    EXPECT_FALSE(dec.synced());
  }
}

TEST(EtraceDecoderRecovery, ResyncRoundTripRecoversDecoding) {
  EtraceStreamDecoder dec;
  EtraceEncoder enc;
  std::vector<std::uint8_t> bytes;
  enc.emit_sync(0, 1, bytes);

  cpu::BranchEvent ev;
  ev.kind = cpu::BranchKind::kCall;
  ev.taken = true;
  ev.target = 0x5000;
  enc.encode(ev, bytes);
  EXPECT_EQ(feed_all(dec, bytes).size(), 1u);

  // Corrupt the stream, then resync via a fresh preamble.
  feed_all(dec, {0x81});
  ASSERT_FALSE(dec.synced());
  const auto bad_before = dec.bad_packets();

  enc.reset();
  std::vector<std::uint8_t> recovery;
  enc.emit_sync(0, 1, recovery);
  ev.target = 0x6000;
  enc.encode(ev, recovery);
  EXPECT_EQ(feed_all(dec, recovery).size(), 1u);
  EXPECT_TRUE(dec.synced());
  EXPECT_EQ(dec.bad_packets(), bad_before);  // clean stream adds none
  EXPECT_EQ(dec.last_address(), 0x6000u);
}

TEST(EtraceDecoderRecovery, GarbageStreamNeverThrows) {
  EtraceStreamDecoder dec;
  sim::Xoshiro256 rng(99);
  for (int i = 0; i < 50'000; ++i) {
    EXPECT_NO_THROW(
        dec.feed(tb(static_cast<std::uint8_t>(rng.uniform_below(256)))));
  }
}

// ------------------------------------------------------- pipeline wiring

TEST(ProtocolPipeline, TraceSourceSpeaksConfiguredProtocol) {
  for (auto proto : {TraceProtocol::kPft, TraceProtocol::kEtrace}) {
    coresight::TraceSourceConfig cfg;
    cfg.protocol = proto;
    cfg.flush_threshold = 1;
    coresight::TraceSource src(cfg);
    EXPECT_EQ(src.protocol(), proto);

    cpu::BranchEvent ev;
    ev.kind = cpu::BranchKind::kCall;
    ev.target = 0x8000;
    src.submit(ev);
    for (int i = 0; i < 64; ++i) src.tick();

    auto dec = make_decoder(proto);
    std::size_t decoded = 0;
    while (auto b = src.tx_fifo().pop()) {
      if (dec->feed(*b)) ++decoded;
    }
    EXPECT_EQ(decoded, 1u) << to_string(proto);
    EXPECT_EQ(dec->last_address(), 0x8000u);
  }
}

TEST(ProtocolPipeline, TraceAnalyzerDecodesEtraceWords) {
  sim::Fifo<coresight::TpiuWord> port(64);
  igm::TraceAnalyzer ta(port, 4, 16, igm::OverflowPolicy::kStall,
                        TraceProtocol::kEtrace);
  EXPECT_EQ(ta.protocol(), TraceProtocol::kEtrace);

  EtraceEncoder enc;
  std::vector<std::uint8_t> bytes;
  enc.emit_sync(0, 1, bytes);
  cpu::BranchEvent ev;
  ev.kind = cpu::BranchKind::kCall;
  for (std::uint64_t t : {0x4000, 0x4100, 0x9000}) {
    ev.target = t;
    enc.encode(ev, bytes);
  }

  coresight::TpiuWord w;
  for (const auto b : bytes) {
    w.bytes[w.count] = tb(b);
    if (++w.count == 4) {
      port.try_push(w);
      w = coresight::TpiuWord{};
    }
  }
  if (w.count > 0) port.try_push(w);

  std::vector<std::uint64_t> addrs;
  for (int i = 0; i < 64; ++i) {
    ta.tick();
    while (auto d = ta.out().pop()) addrs.push_back(d->address);
  }
  const std::vector<std::uint64_t> expected = {0x4000, 0x4100, 0x9000};
  EXPECT_EQ(addrs, expected);
  EXPECT_EQ(ta.decoder().bad_packets(), 0u);
}

}  // namespace
}  // namespace rtad::trace
