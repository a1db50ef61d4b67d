// A broadcast LAN segment: the simulated stand-in for the paper's 100 Mbps
// Ethernets. Every frame transmitted by an attached NIC is delivered, after
// a propagation delay, to the other attached NICs it is FOR -- the ones a
// real adapter's address filter would pass -- and never walks the rest.
// Serialization delay is charged at the transmitting NIC using the
// segment's bit rate.
//
// Who a frame is for is read from its wire bytes (ether::summarize_wire)
// when it goes on the wire:
//   * a unicast frame reaches the NICs with its destination MAC plus every
//     promiscuous NIC (the paper's bound bridge ports);
//   * a group frame reaches the promiscuous NICs and every NIC that has not
//     declared an ARP address (Nic::set_arp_address); a well-formed ARP
//     also reaches the NICs that declared its target address;
//   * an IPv4 group frame, a malformed ARP or a runt reaches every NIC.
// Each receiver still applies its own filter on delivery. On a large
// segment the first two cases cost O(interested receivers), not
// O(attached): the segment keeps its always-visited NICs (promiscuous or
// undeclared) in attach order, plus one flat open-addressing index from
// MAC and from ARP address to attach slots. Small segments just filter
// their attach list. Either way receivers fire in attach order, so every
// handler runs exactly as the unfiltered walk ran it. Skipped receivers
// are counted once per frame in LanStats::receivers_skipped.
//
// Loss: every attached receiver (sender excluded) still draws in attach
// order, interested or not, so a seeded loss sequence and frames_lost do
// not depend on who the frames are for; lossy segments walk their attach
// list. A frame no surviving receiver is for still costs its one delivery
// event, so the event stream is the unfiltered walk's too.
//
// Delivery is per SEGMENT, not per receiver: one broadcast schedules one
// event whose callback walks a snapshot of the receiver set taken at
// transmit time (loss and interest already applied, sender excluded) -- a
// thousand-station LAN costs one heap insert and one dispatch per frame
// where the per-receiver scheme cost a thousand of each. A NIC detached
// between transmit and delivery, or detached/destroyed by an earlier
// receiver's handler inside the same walk, is skipped, never touched.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/ether/frame.h"
#include "src/netsim/scheduler.h"
#include "src/util/bytes.h"
#include "src/util/rng.h"

namespace ab::netsim {

class Nic;

/// Physical parameters of a segment.
struct LanConfig {
  /// Link speed in bits per second. Default: the paper's 100 Mbps Fast
  /// Ethernet.
  double bit_rate = 100e6;
  /// One-way propagation delay across the segment.
  Duration propagation = microseconds(5);
  /// Independent per-receiver drop probability (fault injection).
  double loss = 0.0;
  /// Seed for the loss process.
  std::uint64_t seed = 1;
};

/// Traffic counters for a segment.
struct LanStats {
  std::uint64_t frames_carried = 0;
  std::uint64_t bytes_carried = 0;
  std::uint64_t frames_lost = 0;  ///< receiver-side drops from the loss model
  /// Whole-frame drops scripted via set_drop_filter (conformance suites).
  std::uint64_t frames_dropped_by_filter = 0;
  /// Attached receivers a frame was not for, skipped at transmit time
  /// instead of visited (the address filter, applied by the segment).
  std::uint64_t receivers_skipped = 0;
  /// Receivers the delivery walks handed a frame to (Nic::deliver calls).
  std::uint64_t receivers_visited = 0;
};

/// A shared broadcast medium. Attach NICs with Nic::attach().
class LanSegment {
 public:
  /// Observer invoked once per transmitted frame (wire bytes, pre-loss).
  /// Used by FrameTrace and by the storm-detection tests.
  using FrameTap = std::function<void(TimePoint, const Nic* sender, util::ByteView wire)>;

  LanSegment(Scheduler& scheduler, std::string name, LanConfig config);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const LanConfig& config() const { return config_; }
  [[nodiscard]] const LanStats& stats() const { return stats_; }
  /// Attach-ordered receiver list. May contain nullptr tombstones for
  /// recently detached NICs (compacted away once they dominate).
  [[nodiscard]] const std::vector<Nic*>& attached() const { return nics_; }

  /// Time to clock `bytes` onto the wire at this segment's bit rate.
  [[nodiscard]] Duration serialization_delay(std::size_t bytes) const;

  /// Carries one shared wire buffer from `sender` to every other attached
  /// NIC it is for with ONE scheduled delivery event for the whole
  /// segment. All receivers reference the same WireFrame, so they share
  /// one decode and one FCS verification. Called by Nic's transmit path;
  /// tests may inject frames with a null sender (no one excluded).
  void broadcast(const ether::WireFrame& frame, const Nic* sender);

  /// Sentinel for "no receiver run": a prepared broadcast with no
  /// surviving receivers, or a burst frame whose NIC detached in flight.
  static constexpr std::uint32_t kNoPreparedRun = 0xFFFFFFFFu;

  /// The split form of broadcast() for the burst transmit path: carries
  /// the frame (stats, tap, loss draws and receiver snapshot exactly as
  /// broadcast(), in attach order) but schedules NOTHING -- the caller
  /// already holds a delivery slot in its burst's shared timed run and
  /// fires deliver_prepared() from it, so a k-frame burst's k deliveries
  /// cost one scheduler insert instead of k. Returns the run index to
  /// deliver (the frame is parked in the run), or kNoPreparedRun when no
  /// receiver survived (the delivery slot then no-ops).
  [[nodiscard]] std::uint32_t prepare_broadcast(const ether::WireFrame& frame,
                                                const Nic* sender);

  /// Delivers a run parked by prepare_broadcast() and recycles it. Must be
  /// called exactly once per prepared index, at transmit time +
  /// propagation -- the burst's delivery run provides both.
  void deliver_prepared(std::uint32_t index);

  void set_frame_tap(FrameTap tap) { tap_ = std::move(tap); }

  /// Scripted per-frame drop hook for the loss-schedule conformance
  /// suites: consulted once per transmitted frame (after the tap and the
  /// relay, before the receiver snapshot); returning true drops the frame
  /// for EVERY receiver, counted in frames_dropped_by_filter. The filter
  /// runs before any loss draw, so scripting drops never perturbs the
  /// seeded per-receiver loss sequence -- deterministic tests use it with
  /// LanConfig::loss == 0 to drop exactly the frames a scenario names.
  using DropFilter =
      std::function<bool(TimePoint, const Nic* sender, util::ByteView wire)>;
  void set_drop_filter(DropFilter filter) { drop_filter_ = std::move(filter); }

  /// Second observer, reserved for the sharded runner: on a CUT segment the
  /// owning region's replica relays every transmitted frame (same wire
  /// bytes, same timestamp as the tap) into the cross-shard mailboxes.
  /// Kept separate from the frame tap so traces and storm detectors still
  /// compose with sharding.
  void set_relay(FrameTap relay) { relay_ = std::move(relay); }

  /// Remote-origin delivery for a cut segment's non-owning replicas: wraps
  /// the relayed wire bytes arriving from another shard's mailbox and
  /// carries them to every locally attached NIC they are for at absolute
  /// time `deliver_at` (transmit time + propagation, computed
  /// producer-side).
  /// Counts NO frames_carried/bytes_carried -- the owning replica already
  /// counted the frame once -- but local loss draws still count
  /// frames_lost here. No sender exclusion: the sender's NIC lives in the
  /// producer's replica, never in this one. The conservative window
  /// guarantees deliver_at is still in this shard's future at drain time
  /// (asserted).
  void inject_remote(const ether::WireFrame& frame, TimePoint deliver_at);

  // Nic::attach/detach call these.
  void attach_nic(Nic& nic);
  void detach_nic(Nic& nic);
  /// Nic::set_promiscuous / set_arp_address call this after changing the
  /// NIC's filter state (`old_ip`: its ARP address before the change).
  void filter_changed(Nic& nic, std::uint32_t old_ip);

  /// Segments with at most this many attach slots filter their attach list
  /// per frame; larger ones keep the address index.
  static constexpr std::size_t kIndexedMinAttached = 32;

 private:
  static constexpr std::uint32_t kNoRun = kNoPreparedRun;

  /// One snapshotted receiver: its pointer plus its attach slot, so the
  /// delivery-time membership check is one compare, not a scan.
  struct Receiver {
    Nic* nic = nullptr;
    std::uint32_t slot = 0;
  };

  /// Who a frame is for; see the header comment.
  struct Audience {
    enum class Kind : std::uint8_t { kEveryone, kUnicast, kGroup, kArp };
    Kind kind = Kind::kEveryone;
    ether::MacAddress dst;        ///< kUnicast
    std::uint32_t arp_target = 0;  ///< kArp
  };

  /// The receivers one in-flight broadcast will reach, snapshotted at
  /// transmit time. Runs are pooled (index-linked free list, receiver
  /// vectors keep their capacity) so steady-state fan-out allocates
  /// nothing. `detach_epoch` records the segment's detach counter at
  /// snapshot time: while it still matches, every receiver is trivially
  /// attached and the walk skips the per-NIC membership check. A run made
  /// by prepare_broadcast() also parks the frame itself (its delivery slot
  /// lives in a shared burst run with no room for a per-frame capture).
  struct ReceiverRun {
    std::vector<Receiver> receivers;
    ether::WireFrame frame;
    std::uint64_t detach_epoch = 0;
    /// Segment's compaction counter at snapshot time. deliver_run's
    /// no-detach fast path asserts this still matches: a compaction that
    /// renumbered (or dropped) slots without bumping detach_epoch_ would
    /// otherwise let the walk dereference stale receiver pointers -- the
    /// shard-teardown hazard where a mailbox drain delivers into a replica
    /// whose NICs were detached and compacted after the snapshot.
    std::uint64_t compact_epoch = 0;
    /// True from acquire to release: guards against delivering or
    /// releasing a run index that is already back on the free list.
    bool live = false;
    std::uint32_t next_free = kNoRun;
  };

  /// What snapshot_run hands its caller.
  struct Snapshot {
    std::uint32_t run = kNoRun;
    Receiver sole;  ///< set instead of a run for a single receiver
    /// Some receiver survived the loss draws: the frame costs a delivery
    /// event even when none of them is interested.
    bool carried = false;
  };

  [[nodiscard]] std::uint32_t acquire_run();
  void release_run(std::uint32_t index);
  [[nodiscard]] static Audience audience_of(const ether::WireFrame& frame);
  /// The per-NIC interest predicate: does `audience` include `nic`?
  [[nodiscard]] static bool wants(const Nic& nic, const Audience& audience);
  /// Shared snapshot walk for broadcast / prepare_broadcast /
  /// inject_remote: loss draws over every attached receiver in attach
  /// order, then the interested survivors, `sender` and tombstones
  /// excluded. With `allow_sole` a single receiver is deposited in
  /// Snapshot::sole instead of paying for a run.
  [[nodiscard]] Snapshot snapshot_run(const ether::WireFrame& frame,
                                      const Nic* sender, bool allow_sole);
  /// Appends one receiver to the snapshot (sole first, then a run).
  void take_receiver(Snapshot& snap, Receiver receiver, bool allow_sole);
  /// Schedules the delivery event of a broadcast / inject_remote snapshot.
  void schedule_delivery(const Snapshot& snap, const ether::WireFrame& frame,
                         TimePoint at);
  /// Fires one delivery event: walks the run, delivering to every receiver
  /// still attached, then recycles the run.
  void deliver_run(std::uint32_t index, const ether::WireFrame& frame);
  /// True while `nic`, snapshotted at `slot` under `compact_epoch`, may
  /// still be delivered to. Compares stored pointers only -- `nic` may
  /// point at a destroyed NIC. O(1) unless a compaction renumbered slots
  /// since the snapshot (then a scan).
  [[nodiscard]] bool still_attached(const Nic* nic, std::uint32_t slot,
                                    std::uint64_t compact_epoch) const;
  /// Drops the nullptr tombstones, renumbering the survivors' back-indices.
  /// Attach order (and so loss-draw order) is preserved.
  void compact_nics();

  // ---- address index (segments above kIndexedMinAttached) ----
  /// Rebuilds always_ and index_ from nics_.
  void rebuild_index();
  /// Adds `slot`'s MAC and (when declared) ARP-address keys to index_.
  void index_nic(std::uint32_t slot);
  [[nodiscard]] std::size_t index_home(std::uint64_t key) const;
  void index_insert(std::uint64_t key, std::uint32_t entry);
  /// Appends to `out` the live slots whose NIC matches `key`.
  void index_lookup(std::uint64_t key, std::vector<std::uint32_t>& out) const;

  Scheduler* scheduler_;
  std::string name_;
  LanConfig config_;
  LanStats stats_;
  /// Attach-ordered; a detach leaves a nullptr tombstone (O(1) via the
  /// NIC's back-index) so a million-station teardown never pays a linear
  /// erase per NIC. Compacted when tombstones dominate.
  std::vector<Nic*> nics_;
  std::size_t dead_nics_ = 0;  ///< tombstones currently in nics_
  util::Rng rng_;
  FrameTap tap_;
  FrameTap relay_;  ///< cross-shard mailbox hook; see set_relay()
  DropFilter drop_filter_;  ///< scripted drops; see set_drop_filter()
  std::vector<ReceiverRun> runs_;
  std::uint32_t free_run_ = kNoRun;
  std::uint64_t detach_epoch_ = 0;   ///< bumped by every detach_nic
  std::uint64_t compact_epoch_ = 0;  ///< bumped by every compact_nics

  /// Attach slots of the NICs every group frame visits (promiscuous or no
  /// declared ARP address), ascending. May hold tombstoned slots; the walk
  /// re-applies wants().
  std::vector<std::uint32_t> always_;
  /// Open-addressing multimap (linear probing, power-of-two size) from a
  /// MAC or ARP-address key to attach slots. An entry is the slot, with
  /// kIpEntry set for ARP-address keys; keys are compared through nics_,
  /// so a tombstoned slot simply stops matching. Duplicate keys coexist.
  /// Rebuilt (with always_) when index_valid_ is false: after compaction,
  /// a filter change filter_changed() cannot patch, or past 3/4 full.
  std::vector<std::uint32_t> index_;
  std::size_t index_used_ = 0;
  unsigned index_shift_ = 64;  ///< 64 - log2(index_.size())
  bool index_valid_ = false;
  std::vector<std::uint32_t> matches_;  ///< lookup scratch
};

}  // namespace ab::netsim
