// Decoder robustness sweeps: every parser in the tree must reject or
// accept arbitrary bytes without crashing, and must survive random
// mutations of valid messages. This is the C++ discipline standing in for
// the memory safety Caml gave the paper for free: a hostile or corrupted
// frame can produce a parse error, never undefined behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "src/active/image.h"
#include "src/bridge/bpdu.h"
#include "src/ether/frame.h"
#include "src/stack/arp.h"
#include "src/stack/icmp.h"
#include "src/stack/ipv4.h"
#include "src/stack/tftp.h"
#include "src/stack/udp.h"
#include "src/util/crc32.h"
#include "src/util/rng.h"

namespace ab {
namespace {

util::ByteBuffer random_bytes(util::Rng& rng, std::size_t max_len) {
  util::ByteBuffer out(rng.index(max_len + 1));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform(0, 255));
  return out;
}

/// Runs `decode` over random buffers and over mutated valid messages.
template <typename DecodeFn>
void fuzz_decoder(std::uint64_t seed, const util::ByteBuffer& valid,
                  DecodeFn&& decode) {
  util::Rng rng(seed);
  for (int i = 0; i < 400; ++i) {
    const util::ByteBuffer junk = random_bytes(rng, 256);
    decode(junk);  // must not crash; result is irrelevant
  }
  for (int i = 0; i < 400 && !valid.empty(); ++i) {
    util::ByteBuffer mutated = valid;
    const int op = static_cast<int>(rng.uniform(0, 2));
    if (op == 0) {
      mutated[rng.index(mutated.size())] ^=
          static_cast<std::uint8_t>(rng.uniform(1, 255));
    } else if (op == 1 && mutated.size() > 1) {
      mutated.resize(rng.index(mutated.size()));  // truncate
    } else {
      const util::ByteBuffer extra = random_bytes(rng, 32);
      mutated.insert(mutated.end(), extra.begin(), extra.end());
    }
    decode(mutated);
  }
}

class CodecFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecFuzz, EthernetFrame) {
  const util::ByteBuffer valid =
      ether::Frame::ethernet2(ether::MacAddress::local(1, 0),
                              ether::MacAddress::local(2, 0), ether::EtherType::kIpv4,
                              util::ByteBuffer(100, 0x42))
          .encode();
  fuzz_decoder(GetParam(), valid,
               [](util::ByteView bytes) { (void)ether::Frame::decode(bytes); });
}

TEST_P(CodecFuzz, Ipv4) {
  stack::Ipv4Header h;
  h.src = stack::Ipv4Addr(10, 0, 0, 1);
  h.dst = stack::Ipv4Addr(10, 0, 0, 2);
  h.protocol = 17;
  const util::ByteBuffer valid = h.encode(util::ByteBuffer(64, 0x01));
  fuzz_decoder(GetParam(), valid,
               [](util::ByteView bytes) { (void)stack::Ipv4Header::decode(bytes); });
}

TEST_P(CodecFuzz, Udp) {
  stack::UdpDatagram d;
  d.src_port = 1;
  d.dst_port = 2;
  d.payload = util::ByteBuffer(32, 0x77);
  const util::ByteBuffer valid =
      stack::encode_udp(stack::Ipv4Addr(1, 1, 1, 1), stack::Ipv4Addr(2, 2, 2, 2), d);
  fuzz_decoder(GetParam(), valid, [](util::ByteView bytes) {
    (void)stack::decode_udp(stack::Ipv4Addr(1, 1, 1, 1), stack::Ipv4Addr(2, 2, 2, 2),
                            bytes);
  });
}

TEST_P(CodecFuzz, Icmp) {
  stack::IcmpEcho echo;
  echo.id = 7;
  echo.seq = 9;
  echo.payload = util::ByteBuffer(48, 0x10);
  fuzz_decoder(GetParam(), echo.encode(),
               [](util::ByteView bytes) { (void)stack::IcmpEcho::decode(bytes); });
}

TEST_P(CodecFuzz, Arp) {
  const stack::ArpPacket req = stack::ArpPacket::request(
      ether::MacAddress::local(1, 0), stack::Ipv4Addr(1, 1, 1, 1),
      stack::Ipv4Addr(2, 2, 2, 2));
  fuzz_decoder(GetParam(), req.encode(),
               [](util::ByteView bytes) { (void)stack::ArpPacket::decode(bytes); });
}

TEST_P(CodecFuzz, Tftp) {
  const util::ByteBuffer valid =
      stack::encode_tftp(stack::TftpRequest{stack::TftpOp::kWrq, "mod.img", "octet"});
  fuzz_decoder(GetParam(), valid,
               [](util::ByteView bytes) { (void)stack::decode_tftp(bytes); });
}

TEST_P(CodecFuzz, SwitchletImage) {
  const util::ByteBuffer valid = active::SwitchletImage::named("bridge.dumb").encode();
  fuzz_decoder(GetParam(), valid, [](util::ByteView bytes) {
    (void)active::SwitchletImage::decode(bytes);
  });
}

TEST_P(CodecFuzz, IeeeBpduPayload) {
  const bridge::IeeeBpduCodec codec;
  bridge::Bpdu b;
  b.root = bridge::BridgeId{0x8000, ether::MacAddress::local(1, 0)};
  b.bridge = b.root;
  const ether::Frame valid = codec.encode(b, ether::MacAddress::local(1, 0));
  util::Rng rng(GetParam());
  for (int i = 0; i < 400; ++i) {
    ether::Frame frame = valid;
    frame.payload = random_bytes(rng, 64);
    (void)codec.decode(frame);
  }
}

TEST_P(CodecFuzz, DecBpduPayload) {
  const bridge::DecBpduCodec codec;
  bridge::Bpdu b;
  b.root = bridge::BridgeId{0x8000, ether::MacAddress::local(1, 0)};
  b.bridge = b.root;
  const ether::Frame valid = codec.encode(b, ether::MacAddress::local(1, 0));
  util::Rng rng(GetParam());
  for (int i = 0; i < 400; ++i) {
    ether::Frame frame = valid;
    frame.payload = random_bytes(rng, 64);
    (void)codec.decode(frame);
  }
}

/// Rewrites the trailing FCS so a mutated frame still passes its check:
/// the mutation then reaches the fields behind it instead of dying there.
void reseal_fcs(util::ByteBuffer& wire) {
  if (wire.size() < 4) return;
  const std::uint32_t fcs = util::crc32(util::ByteView(wire).first(wire.size() - 4));
  for (int i = 0; i < 4; ++i) {
    wire[wire.size() - 4 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(fcs >> (24 - 8 * i));
  }
}

TEST_P(CodecFuzz, WireSummaryAgreesWithTheFullDecode) {
  // The LAN picks receivers from ether::summarize_wire's raw-byte read, so
  // it must never over-read (each input sits in an exactly sized heap
  // block, where ASan traps one byte too far) and must agree with what the
  // receivers will decode: a frame carries an ARP target exactly when the
  // frame parses as Ethernet II ARP and stack::ArpPacket::decode accepts
  // its payload, and then the targets match.
  const auto mac = [](std::uint32_t n) { return ether::MacAddress::local(n, 0); };
  const stack::ArpPacket request = stack::ArpPacket::request(
      mac(1), stack::Ipv4Addr(10, 0, 0, 1), stack::Ipv4Addr(10, 0, 0, 2));
  const std::vector<util::ByteBuffer> valid = {
      ether::Frame::ethernet2(ether::MacAddress::broadcast(), mac(1),
                              ether::EtherType::kArp, request.encode())
          .encode(),
      ether::Frame::ethernet2(mac(1), mac(2), ether::EtherType::kArp,
                              request.make_reply(mac(2)).encode())
          .encode(),
      ether::Frame::ethernet2(mac(2), mac(1), ether::EtherType::kIpv4,
                              util::ByteBuffer(60, 0x45))
          .encode(),
      ether::Frame::llc_frame(ether::MacAddress::all_bridges(), mac(1),
                              ether::LlcHeader::spanning_tree(), util::ByteBuffer(35, 0))
          .encode(),
  };
  util::Rng rng(GetParam());
  int arp_accepted = 0;
  int arp_rejected = 0;
  for (int i = 0; i < 2000; ++i) {
    util::ByteBuffer wire;
    if (i % 4 == 0) {
      wire = random_bytes(rng, 128);
    } else {
      wire = valid[rng.index(valid.size())];
      const int flips = static_cast<int>(rng.uniform(1, 3));
      for (int f = 0; f < flips; ++f) {
        // Bias toward the Ethernet type and ARP header (bytes 12..21).
        const std::size_t at =
            rng.chance(0.6) ? 12 + rng.index(10) : rng.index(wire.size());
        wire[at] ^= static_cast<std::uint8_t>(rng.uniform(1, 255));
      }
      if (rng.chance(0.2)) wire.resize(rng.index(wire.size() + 1));
      if (rng.chance(0.9)) reseal_fcs(wire);
    }
    const std::unique_ptr<std::uint8_t[]> exact(new std::uint8_t[wire.size()]);
    std::copy(wire.begin(), wire.end(), exact.get());
    const ether::WireSummary summary =
        ether::summarize_wire(util::ByteView(exact.get(), wire.size()));

    const ether::WireFrame frame = ether::WireFrame::from_wire(wire);
    if (!frame.ok()) continue;  // receivers count rx_bad; no decode to agree with
    ASSERT_TRUE(summary.readable) << "input " << i;
    const ether::Frame& parsed = frame.frame();
    EXPECT_EQ(summary.dst, parsed.dst) << "input " << i;
    std::optional<std::uint32_t> want;
    if (parsed.has_type(ether::EtherType::kArp)) {
      const auto arp = stack::ArpPacket::decode(parsed.payload);
      if (arp) want = arp->target_ip.value();
      (arp ? arp_accepted : arp_rejected) += 1;
    }
    ASSERT_EQ(summary.arp_target, want) << "input " << i;
  }
  // The sweep reached both sides of the ARP shape check.
  EXPECT_GT(arp_accepted, 0);
  EXPECT_GT(arp_rejected, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz, ::testing::Values(11, 23, 47, 89));

TEST(CodecFuzz, ValidMessagesStillDecodeAfterFuzzRuns) {
  // Sanity: the fuzz helpers above use the same valid buffers; make sure
  // they are indeed valid.
  EXPECT_TRUE(ether::Frame::decode(
                  ether::Frame::ethernet2(ether::MacAddress::local(1, 0),
                                          ether::MacAddress::local(2, 0),
                                          ether::EtherType::kIpv4,
                                          util::ByteBuffer(100, 0x42))
                      .encode())
                  .has_value());
  EXPECT_TRUE(active::SwitchletImage::decode(
                  active::SwitchletImage::named("bridge.dumb").encode())
                  .has_value());
}

}  // namespace
}  // namespace ab
