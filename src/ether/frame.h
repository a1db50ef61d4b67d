// Ethernet frames, in both encodings the active bridge must handle:
//
//  * Ethernet II (DIX): dst(6) src(6) ethertype(2 >= 0x0600) payload — used
//    by the IP/ARP traffic the bridge forwards and the network loader's
//    minimal stack;
//  * IEEE 802.3 + LLC: dst(6) src(6) length(2 < 0x0600) DSAP SSAP CTRL
//    payload — 802.1D BPDUs travel as LLC frames with DSAP=SSAP=0x42.
//
// The simulated wire format appends a 4-byte CRC-32 FCS. The paper notes
// its Linux sockets could read the CRC but not write it ("one of our 802.1D
// incompatibilities"); because our NIC is simulated we control both sides,
// so encode() computes the FCS and decode() verifies it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "src/ether/mac_address.h"
#include "src/util/bytes.h"
#include "src/util/result.h"

namespace ab::ether {

/// Well-known EtherType values used in this repository.
enum class EtherType : std::uint16_t {
  kIpv4 = 0x0800,
  kArp = 0x0806,
  /// DEC LANbridge spanning tree (the "old" protocol of the transition
  /// experiment; DEC's real protocol used 0x8038 for LANbridge 100).
  kDecStp = 0x8038,
  /// Experimental/unassigned type used by test traffic generators.
  kExperimental = 0x88B5,
  /// The multi-spanning-tree extension's BPDUs (bridge/multitree.h).
  kMultiTreeStp = 0x88B7,
};

[[nodiscard]] std::string to_string(EtherType type);

/// 802.2 LLC header carried in 802.3 frames.
struct LlcHeader {
  std::uint8_t dsap = 0;
  std::uint8_t ssap = 0;
  std::uint8_t control = 0;

  /// DSAP/SSAP 0x42, UI control — the Bridge Spanning Tree SAP.
  [[nodiscard]] static constexpr LlcHeader spanning_tree() { return {0x42, 0x42, 0x03}; }

  friend bool operator==(const LlcHeader&, const LlcHeader&) = default;
};

/// A parsed Ethernet frame. Exactly one of `ethertype` / `llc` is active:
/// Ethernet II frames have an ethertype, 802.3 frames carry an LLC header.
struct Frame {
  MacAddress dst;
  MacAddress src;
  std::optional<std::uint16_t> ethertype;  ///< Ethernet II type (>= 0x0600).
  std::optional<LlcHeader> llc;            ///< 802.3/LLC alternative.
  util::ByteBuffer payload;

  /// Minimum Ethernet payload (frames are padded on encode to reach the
  /// 64-byte minimum frame size including header and FCS).
  static constexpr std::size_t kMinPayload = 46;
  /// Classic Ethernet MTU.
  static constexpr std::size_t kMaxPayload = 1500;
  /// Header (14) + FCS (4).
  static constexpr std::size_t kOverhead = 18;

  /// Convenience constructors.
  [[nodiscard]] static Frame ethernet2(MacAddress dst, MacAddress src, EtherType type,
                                       util::ByteBuffer payload);
  [[nodiscard]] static Frame ethernet2(MacAddress dst, MacAddress src, std::uint16_t type,
                                       util::ByteBuffer payload);
  [[nodiscard]] static Frame llc_frame(MacAddress dst, MacAddress src, LlcHeader llc,
                                       util::ByteBuffer payload);

  [[nodiscard]] bool is_ethernet2() const { return ethertype.has_value(); }
  [[nodiscard]] bool is_llc() const { return llc.has_value(); }

  /// True when the Ethernet II type matches (false for LLC frames).
  [[nodiscard]] bool has_type(EtherType type) const {
    return ethertype && *ethertype == static_cast<std::uint16_t>(type);
  }

  /// Size on the wire after encode(), including header, padding and FCS.
  [[nodiscard]] std::size_t wire_size() const;

  /// Serializes to wire bytes: header, payload (padded to the 64-byte
  /// minimum), CRC-32 FCS. Throws std::length_error if payload > MTU.
  [[nodiscard]] util::ByteBuffer encode() const;

  /// Parses wire bytes produced by encode(). Verifies length and FCS.
  /// Padding added by encode() is retained in `payload` for LLC/802.3
  /// frames only when covered by the 802.3 length field; Ethernet II has no
  /// length field, so upper layers (IP, UDP) carry their own lengths, as on
  /// real Ethernet.
  [[nodiscard]] static util::Expected<Frame, std::string> decode(util::ByteView wire);

  /// One-line human-readable rendering for traces and logs.
  [[nodiscard]] std::string summary() const;

  friend bool operator==(const Frame&, const Frame&) = default;
};

/// What a LAN segment needs to know about a frame to pick its receivers,
/// read straight from the wire bytes: no decode, no FCS check, no
/// allocation, and never a byte past the end of `wire`. Receivers still
/// parse (and FCS-check) the shared WireFrame themselves; the summary only
/// narrows who gets to.
struct WireSummary {
  /// At least a minimum-size frame. Runts fail every receiver's decode
  /// alike, so a segment hands them to everyone.
  bool readable = false;
  MacAddress dst;
  std::uint16_t type_or_length = 0;
  /// Target protocol address of a well-formed IPv4-over-Ethernet ARP
  /// packet in an Ethernet II frame -- exactly the shape
  /// stack::ArpPacket::decode accepts (at least 28 bytes, htype 1, ptype
  /// 0x0800, address lengths 6/4, op 1 or 2). nullopt for everything
  /// else, malformed ARP included.
  std::optional<std::uint32_t> arp_target;
};

[[nodiscard]] WireSummary summarize_wire(util::ByteView wire);

/// Datapath work counters, incremented by Frame::encode / Frame::decode and
/// the buffer-materialization points of the wire path. The simulator is
/// single-threaded, so plain integers suffice. Benchmarks and tests reset
/// them with `datapath_counters() = {};` around a measured window.
struct DatapathCounters {
  std::uint64_t encodes = 0;       ///< Frame::encode calls (each computes one FCS)
  std::uint64_t decodes = 0;       ///< Frame::decode calls
  std::uint64_t fcs_verifies = 0;  ///< decode-side CRC-32 verifications
  std::uint64_t bytes_copied = 0;  ///< bytes materialized into fresh buffers
};

/// The process-wide counter instance (mutable; assign {} to reset).
[[nodiscard]] DatapathCounters& datapath_counters();

/// WireFrame: the shared, immutable wire representation of one Ethernet
/// frame, handed from layer to layer by the datapath so a frame is encoded
/// at most once and decoded (with one FCS verification) at most once, no
/// matter how many NICs, segments, queues, or switchlets it fans out to.
///
/// Ownership and sharing rules:
///
///  * A WireFrame is a cheap value: one shared_ptr. Copying shares the
///    underlying representation and both of its caches; there is no deep
///    copy anywhere on the datapath.
///  * The representation is logically immutable. The encoded bytes and the
///    parsed Frame never change after materialization; the only mutation is
///    the one-time lazy fill of each cache. Consumers therefore must NOT
///    mutate the Frame returned by frame() -- take a copy to modify.
///  * Construction from a parsed Frame (the transmit side) stores the Frame
///    and materializes wire bytes lazily on the first wire() call.
///  * Construction from received bytes (from_wire, the receive side) stores
///    the bytes and materializes the parsed Frame -- including the single
///    CRC-32 FCS verification -- lazily on the first parsed()/ok()/frame()
///    call. The result, valid or not, is cached: N promiscuous NICs on a
///    segment share one decode and one FCS check.
///  * Views returned by wire() and references returned by frame()/error()
///    are valid for as long as any WireFrame sharing the representation is
///    alive (scheduler events capture WireFrame copies, keeping them so).
///  * The simulator is single-threaded; the lazy caches are unsynchronized.
class WireFrame {
 public:
  /// An empty handle; every accessor except empty() throws.
  WireFrame() = default;

  /// Wraps a parsed frame (transmit side). Implicit by design: Frame-typed
  /// call sites upgrade onto the shared-buffer path without ceremony.
  /// Receivers will share this parse instead of re-decoding the wire
  /// bytes, so construction normalizes it to what Frame::decode of the
  /// encoded bytes would return: Ethernet II payloads shorter than
  /// kMinPayload gain encode()'s zero padding (802.3/LLC payloads are
  /// untouched -- their length field strips padding on decode).
  /// The lvalue overload's payload copy is counted in
  /// DatapathCounters::bytes_copied; pass an rvalue to move instead.
  WireFrame(const Frame& frame);  // NOLINT(google-explicit-constructor)
  WireFrame(Frame&& frame);       // NOLINT(google-explicit-constructor)

  /// Wraps received wire bytes (receive side). Parsing is deferred.
  [[nodiscard]] static WireFrame from_wire(util::ByteBuffer wire);

  [[nodiscard]] bool empty() const { return rep_ == nullptr; }

  /// Parse result; decodes (verifying the FCS) on first call, then cached.
  [[nodiscard]] const util::Expected<Frame, std::string>& parsed() const;

  /// True when the frame parsed and its FCS verified (cached).
  [[nodiscard]] bool ok() const { return !empty() && parsed().has_value(); }

  /// The parsed frame. Requires ok().
  [[nodiscard]] const Frame& frame() const { return parsed().value(); }

  /// The parse error. Requires !ok() (and !empty()).
  [[nodiscard]] const std::string& error() const { return parsed().error(); }

  /// Encoded bytes; encodes on first call, then cached. May throw what
  /// Frame::encode throws (oversized payload) on the first call.
  [[nodiscard]] util::ByteView wire() const;

  /// Size on the wire, without forcing an encode.
  [[nodiscard]] std::size_t wire_size() const;

  /// How many WireFrame handles share this representation (diagnostics).
  [[nodiscard]] long use_count() const { return rep_.use_count(); }

 private:
  struct Rep {
    /// At least one of the two is engaged at all times; each is filled at
    /// most once (the lazy caches described above).
    mutable std::optional<util::ByteBuffer> wire;
    mutable std::optional<util::Expected<Frame, std::string>> parsed;
  };

  explicit WireFrame(std::shared_ptr<const Rep> rep) : rep_(std::move(rep)) {}
  const Rep& rep() const;

  std::shared_ptr<const Rep> rep_;
};

}  // namespace ab::ether
