// Interest-filtered LAN delivery: a segment hands each frame only to the
// NICs it is for (see lan.h). The property test pins the segment's
// receiver runs -- indexed on large segments, a filtered attach-list walk
// on small ones -- to an independent reference: the attach-order filter of
// the per-NIC interest predicate over attached(), computed from a full
// decode of the frame.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/netsim/lan.h"
#include "src/netsim/network.h"
#include "src/netsim/nic.h"
#include "src/stack/arp.h"
#include "src/stack/host_stack.h"
#include "src/util/rng.h"

namespace ab::netsim {
namespace {

using ether::EtherType;
using ether::MacAddress;

MacAddress pool_mac(std::size_t i) {
  return MacAddress::local(static_cast<std::uint32_t>(1000 + i), 0);
}

std::uint32_t pool_ip(std::size_t i) { return 0x0A000001u + static_cast<std::uint32_t>(i); }

/// The per-NIC interest predicate, written against a full decode of the
/// frame rather than the segment's raw-byte summary.
bool reference_wants(const Nic& nic, const ether::WireFrame& frame) {
  if (nic.promiscuous()) return true;
  if (!frame.ok()) return true;  // runts: every receiver counts rx_bad
  const ether::Frame& f = frame.frame();
  if (!f.dst.is_group()) return f.dst == nic.mac();
  if (nic.arp_address() == 0 || f.has_type(EtherType::kIpv4)) return true;
  if (!f.has_type(EtherType::kArp)) return false;
  const auto arp = stack::ArpPacket::decode(f.payload);
  return !arp || arp->target_ip.value() == nic.arp_address();
}

ether::WireFrame random_frame(util::Rng& rng, std::size_t pool) {
  const MacAddress src = pool_mac(rng.index(pool));
  const MacAddress group =
      rng.chance(0.7) ? MacAddress::broadcast() : MacAddress::all_bridges();
  switch (rng.uniform(0, 6)) {
    case 0:
    case 1: {  // unicast, sometimes to a MAC nobody holds
      const MacAddress dst = pool_mac(rng.index(pool + 2));
      return ether::Frame::ethernet2(dst, src, EtherType::kExperimental,
                                     util::ByteBuffer(50, 0x11));
    }
    case 2: {  // well-formed ARP, sometimes for an address nobody holds
      stack::ArpPacket arp = stack::ArpPacket::request(
          src, stack::Ipv4Addr(pool_ip(rng.index(pool))),
          stack::Ipv4Addr(pool_ip(rng.index(pool + 2))));
      if (rng.chance(0.3)) arp.op = stack::ArpOp::kReply;
      return ether::Frame::ethernet2(group, src, EtherType::kArp, arp.encode());
    }
    case 3: {  // malformed ARP: a bad hardware type
      util::ByteBuffer bytes =
          stack::ArpPacket::request(src, stack::Ipv4Addr(pool_ip(0)),
                                    stack::Ipv4Addr(pool_ip(1)))
              .encode();
      bytes[1] = 7;
      return ether::Frame::ethernet2(group, src, EtherType::kArp, std::move(bytes));
    }
    case 4:  // IPv4 group frame
      return ether::Frame::ethernet2(group, src, EtherType::kIpv4,
                                     util::ByteBuffer(40, 0x45));
    case 5:  // BPDU-shaped LLC group frame
      return ether::Frame::llc_frame(MacAddress::all_bridges(), src,
                                     ether::LlcHeader::spanning_tree(),
                                     util::ByteBuffer(35, 0));
    default:  // a runt: unreadable, so everyone
      return ether::WireFrame::from_wire(util::ByteBuffer(20, 0xFF));
  }
}

/// Nic::deliver calls the NIC has seen, whatever their outcome.
std::uint64_t visits(const Nic& nic) {
  const NicStats& s = nic.stats();
  return s.rx_frames + s.rx_filtered + s.rx_bad;
}

struct Harness {
  Network net;
  LanSegment* lan = nullptr;
  std::vector<Nic*> nics;
  std::vector<int> got;  ///< NIC ids in delivery order
  int trigger = -1;      ///< this NIC's handler detaches `victim`
  Nic* victim = nullptr;

  Harness(std::size_t count, std::size_t pool) {
    lan = &net.add_segment("lan");
    // i % pool: a pool smaller than the NIC count means duplicate MACs.
    for (std::size_t i = 0; i < count; ++i) add(pool_mac(i % pool));
  }

  Nic& add(MacAddress mac) {
    const int id = static_cast<int>(nics.size());
    Nic& nic = net.add_nic("n" + std::to_string(id), *lan, mac);
    nic.set_rx_handler([this, id](const ether::WireFrame&) {
      got.push_back(id);
      if (id == trigger && victim != nullptr) {
        victim->detach();
        victim = nullptr;
      }
    });
    nics.push_back(&nic);
    return nic;
  }

  int id_of(const Nic* nic) const {
    for (std::size_t i = 0; i < nics.size(); ++i) {
      if (nics[i] == nic) return static_cast<int>(i);
    }
    return -1;
  }
};

void run_property(std::uint64_t seed, std::size_t count) {
  SCOPED_TRACE("seed " + std::to_string(seed) + ", " + std::to_string(count) + " NICs");
  util::Rng rng(seed);
  const std::size_t pool = count * 2 / 3;  // duplicate MACs and IPs
  Harness h(count, pool);
  for (Nic* nic : h.nics) {
    if (rng.chance(0.8)) nic->set_arp_address(pool_ip(rng.index(pool)));
    if (rng.chance(0.1)) nic->set_promiscuous(true);
  }
  for (int step = 0; step < 600; ++step) {
    Nic* some = h.nics[rng.index(h.nics.size())];
    const int action = static_cast<int>(rng.uniform(0, 10));
    if (action == 0) {
      some->set_promiscuous(!some->promiscuous());
      continue;
    }
    if (action == 1) {
      some->set_arp_address(rng.chance(0.2) ? 0 : pool_ip(rng.index(pool)));
      continue;
    }
    if (action == 2) {  // detach (tombstones pile up, then compaction)
      some->detach();
      continue;
    }
    if (action == 3) {  // reattach at the tail
      if (some->segment() == nullptr) some->attach(*h.lan);
      continue;
    }
    if (action == 4) {  // a station joins mid-run: attach, then its address
      h.add(pool_mac(rng.index(pool))).set_arp_address(pool_ip(rng.index(pool)));
      continue;
    }

    const ether::WireFrame frame = random_frame(rng, pool);
    // broadcast, inject_remote (never a local sender) or the burst path.
    const int path = static_cast<int>(rng.uniform(0, 2));
    const Nic* sender = nullptr;
    if (path != 1 && rng.chance(0.8) && some->segment() == h.lan) sender = some;
    std::vector<int> expected;
    std::uint64_t others = 0;
    for (const Nic* nic : h.lan->attached()) {
      if (nic == nullptr || nic == sender) continue;
      others += 1;
      if (reference_wants(*nic, frame)) expected.push_back(h.id_of(nic));
    }
    // Sometimes an earlier receiver's handler detaches a later one inside
    // the delivery walk: the later one must then be skipped. (Runts reach
    // no handler.)
    if (frame.ok() && expected.size() >= 2 && rng.chance(0.3)) {
      const std::size_t later = 1 + rng.index(expected.size() - 1);
      h.trigger = expected[rng.index(later)];
      h.victim = h.nics[static_cast<std::size_t>(expected[later])];
      expected.erase(expected.begin() + static_cast<std::ptrdiff_t>(later));
    }

    const LanStats before = h.lan->stats();
    std::vector<std::uint64_t> visits_before;
    for (const Nic* nic : h.nics) visits_before.push_back(visits(*nic));
    h.got.clear();
    if (path == 0) {
      h.lan->broadcast(frame, sender);
    } else if (path == 1) {
      h.lan->inject_remote(frame, h.net.now() + microseconds(5));
    } else {
      const std::uint32_t run = h.lan->prepare_broadcast(frame, sender);
      if (run != LanSegment::kNoPreparedRun) h.lan->deliver_prepared(run);
    }
    h.net.scheduler().run();
    if (frame.ok()) {
      ASSERT_EQ(h.got, expected) << "step " << step;  // handlers, in order
    } else {
      // A runt reaches no handler; its receivers show as rx_bad.
      std::vector<int> bad;
      for (std::size_t i = 0; i < h.nics.size(); ++i) {
        if (visits(*h.nics[i]) != visits_before[i]) bad.push_back(static_cast<int>(i));
      }
      std::sort(expected.begin(), expected.end());
      ASSERT_EQ(bad, expected) << "step " << step;
    }
    const LanStats& after = h.lan->stats();
    const std::uint64_t victims = h.trigger >= 0 && h.victim == nullptr ? 1 : 0;
    EXPECT_EQ(after.receivers_visited - before.receivers_visited, expected.size());
    EXPECT_EQ(after.receivers_skipped - before.receivers_skipped,
              others - expected.size() - victims)
        << "step " << step;
    h.trigger = -1;
    h.victim = nullptr;
  }
}

TEST(LanInterest, ReceiverRunsEqualTheAttachOrderFilterOfTheInterestPredicate) {
  for (std::uint64_t seed : {3u, 17u, 101u}) {
    // Small segments filter their attach list; large ones use the index.
    run_property(seed, 10);
    run_property(seed, LanSegment::kIndexedMinAttached * 3);
  }
}

TEST(LanInterest, LossDrawsStillCoverEveryAttachedReceiver) {
  // The seeded loss sequence is drawn over every attached receiver in
  // attach order, interested or not: declaring addresses changes who gets
  // the surviving frames, never which draws drop them.
  LanConfig lossy;
  lossy.loss = 0.3;
  lossy.seed = 7;
  std::vector<std::vector<int>> heard[2];
  std::vector<std::uint32_t> targets;
  std::uint64_t lost[2] = {0, 0};
  for (int declared = 0; declared < 2; ++declared) {
    Network net;
    LanSegment& lan = net.add_segment("lan", lossy);
    std::vector<Nic*> nics;
    std::vector<int> got;
    for (std::size_t i = 0; i < 48; ++i) {
      Nic& nic = net.add_nic("n" + std::to_string(i), lan, pool_mac(i));
      nic.set_rx_handler([&got, i](const ether::WireFrame&) {
        got.push_back(static_cast<int>(i));
      });
      if (declared == 1 && i > 0) nic.set_arp_address(pool_ip(i));
      nics.push_back(&nic);
    }
    util::Rng rng(5);
    for (int f = 0; f < 50; ++f) {
      const stack::ArpPacket arp = stack::ArpPacket::request(
          pool_mac(0), stack::Ipv4Addr(pool_ip(0)),
          stack::Ipv4Addr(pool_ip(1 + rng.index(47))));
      got.clear();
      lan.broadcast(ether::Frame::ethernet2(MacAddress::broadcast(), pool_mac(0),
                                            EtherType::kArp, arp.encode()),
                    nics[0]);
      net.scheduler().run();
      if (declared == 0) targets.push_back(arp.target_ip.value());
      heard[declared].push_back(got);
    }
    lost[declared] = lan.stats().frames_lost;
  }
  EXPECT_EQ(lost[0], lost[1]);
  EXPECT_GT(lost[0], 0u);
  std::size_t target_heard = 0;
  for (std::size_t f = 0; f < heard[0].size(); ++f) {
    // With addresses declared, a frame reaches exactly the survivors of
    // the same draws that are its target.
    std::vector<int> filtered;
    for (int id : heard[0][f]) {
      if (pool_ip(static_cast<std::size_t>(id)) == targets[f]) filtered.push_back(id);
    }
    EXPECT_EQ(heard[1][f], filtered) << "frame " << f;
    target_heard += filtered.size();
  }
  EXPECT_GT(target_heard, 0u);
}

class HostInterest : public ::testing::TestWithParam<int> {};

TEST_P(HostInterest, HostsHearOnlyTheArpsAimedAtThemAndNoBpdus) {
  Network net;
  LanSegment& lan = net.add_segment("lan");
  // A bridge port: promiscuous, no declared address -- hears everything.
  Nic& port = net.add_nic("port", lan);
  port.set_promiscuous(true);
  std::uint64_t port_heard = 0;
  port.set_rx_handler([&](const ether::WireFrame&) { ++port_heard; });
  std::vector<std::unique_ptr<stack::HostStack>> hosts;
  for (int i = 0; i < GetParam(); ++i) {
    Nic& nic = net.add_nic("h" + std::to_string(i), lan);
    stack::HostConfig cfg;
    cfg.ip = stack::Ipv4Addr(pool_ip(static_cast<std::size_t>(i)));
    hosts.push_back(std::make_unique<stack::HostStack>(net.scheduler(), nic, cfg));
  }

  // h0 pings h1: the ARP request reaches h1 (and the port) only; the rest
  // of the exchange is unicast between the two.
  hosts[0]->send_echo_request(hosts[1]->ip(), 1, 1, {});
  net.scheduler().run();
  EXPECT_EQ(hosts[0]->stats().echo_replies_received, 1u);
  for (std::size_t i = 2; i < hosts.size(); ++i) {
    EXPECT_EQ(hosts[i]->nic().stats().rx_frames, 0u) << "host " << i;
  }

  // A BPDU reaches no host.
  std::vector<std::uint64_t> rx_before;
  for (const auto& host : hosts) rx_before.push_back(host->nic().stats().rx_frames);
  const std::uint64_t port_before = port_heard;
  const std::uint64_t skipped_before = lan.stats().receivers_skipped;
  port.transmit(ether::Frame::llc_frame(MacAddress::all_bridges(), port.mac(),
                                        ether::LlcHeader::spanning_tree(),
                                        util::ByteBuffer(35, 0)));
  net.scheduler().run();
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    EXPECT_EQ(hosts[i]->nic().stats().rx_frames, rx_before[i]) << "host " << i;
  }
  EXPECT_EQ(lan.stats().receivers_skipped - skipped_before, hosts.size());

  // A malformed ARP still reaches every host, each of which counts the
  // parse error exactly as it did when every frame reached everyone.
  util::ByteBuffer bad =
      stack::ArpPacket::request(port.mac(), stack::Ipv4Addr(pool_ip(0)),
                                stack::Ipv4Addr(pool_ip(1)))
          .encode();
  bad[5] = 9;  // address lengths 6/9
  port.transmit(ether::Frame::ethernet2(MacAddress::broadcast(), port.mac(),
                                        EtherType::kArp, std::move(bad)));
  net.scheduler().run();
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    EXPECT_EQ(hosts[i]->stats().rx_parse_errors, 1u) << "host " << i;
  }
  EXPECT_EQ(port_heard, port_before);  // the port sent both; it hears neither
}

// Below and above the indexed threshold: both delivery walks.
INSTANTIATE_TEST_SUITE_P(
    Sizes, HostInterest,
    ::testing::Values(4, static_cast<int>(LanSegment::kIndexedMinAttached) * 2));

}  // namespace
}  // namespace ab::netsim
