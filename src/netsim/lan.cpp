#include "src/netsim/lan.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "src/netsim/nic.h"

namespace ab::netsim {
namespace {

/// An empty cell of the address index.
constexpr std::uint32_t kEmptyEntry = 0xFFFFFFFFu;
/// Index entries keyed by ARP address carry this bit over the slot.
constexpr std::uint32_t kIpEntry = 0x80000000u;
/// ARP-address keys sit above every 48-bit MAC key.
constexpr std::uint64_t kIpKey = std::uint64_t{1} << 48;

}  // namespace

LanSegment::LanSegment(Scheduler& scheduler, std::string name, LanConfig config)
    : scheduler_(&scheduler),
      name_(std::move(name)),
      config_(config),
      rng_(config.seed) {
  if (config_.bit_rate <= 0) throw std::invalid_argument("LanSegment: bit_rate <= 0");
}

Duration LanSegment::serialization_delay(std::size_t bytes) const {
  const double seconds = static_cast<double>(bytes) * 8.0 / config_.bit_rate;
  return Duration(static_cast<std::int64_t>(std::llround(seconds * 1e9)));
}

bool LanSegment::still_attached(const Nic* nic, std::uint32_t slot,
                                std::uint64_t compact_epoch) const {
  // Slots are never reused before a compaction, so while none has run the
  // snapshot's slot holds `nic` exactly as long as it stayed attached (a
  // NIC that detached and reattached in flight has a new slot: it missed
  // the frame). Past a compaction only the pointer scan can tell.
  if (compact_epoch == compact_epoch_) {
    return slot < nics_.size() && nics_[slot] == nic;
  }
  return std::find(nics_.begin(), nics_.end(), nic) != nics_.end();
}

std::uint32_t LanSegment::acquire_run() {
  if (free_run_ != kNoRun) {
    const std::uint32_t index = free_run_;
    free_run_ = runs_[index].next_free;
    runs_[index].next_free = kNoRun;
    runs_[index].detach_epoch = detach_epoch_;
    runs_[index].compact_epoch = compact_epoch_;
    runs_[index].live = true;
    return index;
  }
  runs_.emplace_back();
  runs_.back().detach_epoch = detach_epoch_;
  runs_.back().compact_epoch = compact_epoch_;
  runs_.back().live = true;
  return static_cast<std::uint32_t>(runs_.size() - 1);
}

void LanSegment::release_run(std::uint32_t index) {
  assert(runs_[index].live && "double release of a receiver run");
  runs_[index].live = false;
  runs_[index].receivers.clear();  // keeps capacity for the next broadcast
  runs_[index].frame = ether::WireFrame();  // drop the parked wire buffer
  runs_[index].next_free = free_run_;
  free_run_ = index;
}

LanSegment::Audience LanSegment::audience_of(const ether::WireFrame& frame) {
  const ether::WireSummary wire = ether::summarize_wire(frame.wire());
  Audience audience;  // kEveryone: runts, IPv4 group frames, malformed ARP
  if (!wire.readable) return audience;
  if (!wire.dst.is_group()) {
    audience.kind = Audience::Kind::kUnicast;
    audience.dst = wire.dst;
  } else if (wire.type_or_length == static_cast<std::uint16_t>(ether::EtherType::kArp)) {
    // A malformed ARP stays kEveryone: every stack counts its parse error.
    if (wire.arp_target) {
      audience.kind = Audience::Kind::kArp;
      audience.arp_target = *wire.arp_target;
    }
  } else if (wire.type_or_length != static_cast<std::uint16_t>(ether::EtherType::kIpv4)) {
    audience.kind = Audience::Kind::kGroup;
  }
  return audience;
}

bool LanSegment::wants(const Nic& nic, const Audience& audience) {
  if (nic.promiscuous_) return true;
  switch (audience.kind) {
    case Audience::Kind::kEveryone:
      return true;
    case Audience::Kind::kUnicast:
      return nic.mac_ == audience.dst;
    case Audience::Kind::kGroup:
      return nic.arp_address_ == 0;
    case Audience::Kind::kArp:
      return nic.arp_address_ == 0 || nic.arp_address_ == audience.arp_target;
  }
  return true;
}

void LanSegment::take_receiver(Snapshot& snap, Receiver receiver, bool allow_sole) {
  if (snap.run == kNoRun) {
    if (allow_sole && snap.sole.nic == nullptr) {
      snap.sole = receiver;
      return;
    }
    snap.run = acquire_run();
    if (snap.sole.nic != nullptr) {
      runs_[snap.run].receivers.push_back(snap.sole);
      snap.sole = Receiver{};
    }
  }
  runs_[snap.run].receivers.push_back(receiver);
}

LanSegment::Snapshot LanSegment::snapshot_run(const ether::WireFrame& frame,
                                              const Nic* sender, bool allow_sole) {
  // Snapshot the receiver set now. With `allow_sole`, a single receiver is
  // deposited in the snapshot instead of paying for a run (the
  // point-to-point inter-bridge case); callers whose delivery slot has no
  // per-frame capture room always get a run.
  Snapshot snap;
  const Audience audience = audience_of(frame);
  if (config_.loss > 0 || audience.kind == Audience::Kind::kEveryone ||
      nics_.size() <= kIndexedMinAttached) {
    // The attach-order walk. Loss draws come first and cover EVERY
    // receiver, interested or not, so seeded loss sequences match the old
    // per-receiver-event core exactly whoever the frames are for.
    for (std::size_t slot = 0; slot < nics_.size(); ++slot) {
      Nic* nic = nics_[slot];
      if (nic == nullptr || nic == sender) continue;  // tombstone or sender
      if (config_.loss > 0 && rng_.chance(config_.loss)) {
        stats_.frames_lost += 1;
        continue;
      }
      snap.carried = true;
      if (!wants(*nic, audience)) {
        stats_.receivers_skipped += 1;
        continue;
      }
      take_receiver(snap, Receiver{nic, static_cast<std::uint32_t>(slot)}, allow_sole);
    }
    return snap;
  }

  // The indexed walk (loss-free, large segment): the always-visited slots
  // merged in attach order with the index's matches for the frame's key.
  if (!index_valid_) rebuild_index();
  matches_.clear();
  if (audience.kind == Audience::Kind::kUnicast) {
    index_lookup(audience.dst.value(), matches_);
  } else if (audience.kind == Audience::Kind::kArp) {
    index_lookup(kIpKey | audience.arp_target, matches_);
  }
  std::sort(matches_.begin(), matches_.end());
  std::size_t taken = 0;
  std::size_t a = 0;
  std::size_t m = 0;
  while (a < always_.size() || m < matches_.size()) {
    std::uint32_t slot = 0;
    if (m == matches_.size() || (a < always_.size() && always_[a] < matches_[m])) {
      slot = always_[a++];
    } else {
      if (a < always_.size() && always_[a] == matches_[m]) ++a;  // in both lists
      slot = matches_[m++];
    }
    Nic* nic = nics_[slot];
    if (nic == nullptr || nic == sender || !wants(*nic, audience)) continue;
    take_receiver(snap, Receiver{nic, slot}, allow_sole);
    ++taken;
  }
  const bool sender_attached = sender != nullptr && sender->segment_ == this &&
                               sender->lan_index_ < nics_.size() &&
                               nics_[sender->lan_index_] == sender;
  const std::size_t receivers =
      nics_.size() - dead_nics_ - (sender_attached ? 1 : 0);
  snap.carried = receivers > 0;
  stats_.receivers_skipped += receivers - taken;
  return snap;
}

void LanSegment::schedule_delivery(const Snapshot& snap, const ether::WireFrame& frame,
                                   TimePoint at) {
  // One scheduled event delivers the whole segment by walking the
  // snapshot. Every receiver shares the same WireFrame: one buffer, one
  // (lazy) decode, one FCS check.
  if (snap.run != kNoRun) {
    const std::uint32_t index = snap.run;
    scheduler_->schedule_at(at, [this, index, frame] { deliver_run(index, frame); });
  } else if (snap.sole.nic != nullptr) {
    // Single receiver: skip the run machinery; this closure is exactly
    // the 48-byte inline capture.
    const Receiver receiver = snap.sole;
    const std::uint64_t compact_epoch = compact_epoch_;
    scheduler_->schedule_at(at, [this, receiver, compact_epoch, frame] {
      // The NIC may have detached while the frame was in flight.
      if (!still_attached(receiver.nic, receiver.slot, compact_epoch)) return;
      stats_.receivers_visited += 1;
      receiver.nic->deliver(frame);
    });
  } else if (snap.carried) {
    // Receivers were attached but none is interested: the frame still
    // arrives, so the event stream does not depend on who it was for.
    scheduler_->schedule_at(at, [] {});
  }
}

void LanSegment::broadcast(const ether::WireFrame& frame, const Nic* sender) {
  stats_.frames_carried += 1;
  stats_.bytes_carried += frame.wire_size();
  if (tap_) tap_(scheduler_->now(), sender, frame.wire());
  if (relay_) relay_(scheduler_->now(), sender, frame.wire());
  if (drop_filter_ && drop_filter_(scheduler_->now(), sender, frame.wire())) {
    stats_.frames_dropped_by_filter += 1;
    return;  // before any loss draw: the seeded sequence is untouched
  }
  schedule_delivery(snapshot_run(frame, sender, /*allow_sole=*/true), frame,
                    scheduler_->now() + config_.propagation);
}

std::uint32_t LanSegment::prepare_broadcast(const ether::WireFrame& frame,
                                            const Nic* sender) {
  stats_.frames_carried += 1;
  stats_.bytes_carried += frame.wire_size();
  if (tap_) tap_(scheduler_->now(), sender, frame.wire());
  if (relay_) relay_(scheduler_->now(), sender, frame.wire());
  if (drop_filter_ && drop_filter_(scheduler_->now(), sender, frame.wire())) {
    stats_.frames_dropped_by_filter += 1;
    return kNoPreparedRun;  // the caller's delivery slot no-ops
  }

  // Same snapshot discipline as broadcast() -- loss draws in attach order,
  // so seeded loss sequences are identical whichever transmit path carried
  // the frame -- but the delivery event belongs to the caller's burst run,
  // so nothing is scheduled here and the frame parks in the run itself
  // (the shared burst slot has no room for a per-frame capture). No
  // sole-receiver shortcut: the run IS the frame's storage.
  const std::uint32_t run = snapshot_run(frame, sender, /*allow_sole=*/false).run;
  if (run != kNoRun) runs_[run].frame = frame;
  return run;
}

void LanSegment::inject_remote(const ether::WireFrame& frame, TimePoint deliver_at) {
  // The conservative window ends at least one lookahead short of any
  // cross-shard frame's delivery time, so a drained frame is always still
  // in this shard's future.
  assert(deliver_at >= scheduler_->now() &&
         "cross-shard frame arrived in this shard's past: window too wide");
  // No frames_carried/bytes_carried, no tap, no relay: the owning replica
  // counted, traced, and relayed this frame once at transmit time. Local
  // loss draws (this replica's own rng, its own attach order) still count
  // frames_lost here. No sender to exclude -- the transmitting NIC is
  // attached to the producer's replica, never to this one. Scripted drops
  // apply per replica, like the loss model.
  if (drop_filter_ && drop_filter_(scheduler_->now(), /*sender=*/nullptr,
                                   frame.wire())) {
    stats_.frames_dropped_by_filter += 1;
    return;
  }
  schedule_delivery(snapshot_run(frame, /*sender=*/nullptr, /*allow_sole=*/true),
                    frame, deliver_at);
}

void LanSegment::deliver_prepared(std::uint32_t index) {
  assert(index < runs_.size() && runs_[index].live &&
         "deliver_prepared on a released or never-prepared run");
  // Move the frame out first: a receiver's handler can broadcast
  // synchronously and grow runs_, invalidating references into it.
  ether::WireFrame frame = std::move(runs_[index].frame);
  deliver_run(index, frame);
}

void LanSegment::deliver_run(std::uint32_t index, const ether::WireFrame& frame) {
  assert(runs_[index].live && "delivering a released receiver run");
  // Indexed access throughout: a handler could conceivably inject another
  // broadcast synchronously and grow runs_ under us.
  for (std::size_t i = 0; i < runs_[index].receivers.size(); ++i) {
    const Receiver receiver = runs_[index].receivers[i];
    // A receiver detached since the snapshot -- including by an EARLIER
    // receiver's handler inside this very walk -- must not be touched (it
    // may even have been destroyed; still_attached compares pointers
    // without dereferencing). While no detach has happened since the
    // snapshot, membership is implied and the walk skips the check.
    if (runs_[index].detach_epoch != detach_epoch_) {
      if (!still_attached(receiver.nic, receiver.slot, runs_[index].compact_epoch)) {
        continue;
      }
    } else {
      // Compaction only ever runs off a detach, which bumps detach_epoch_
      // -- so an epoch match means the snapshot's pointers are exactly the
      // live attach list. If compaction ever grows another trigger (e.g.
      // shard teardown draining a finished neighbor's mailbox into a
      // partially torn-down replica) this catches the stale-slot
      // dereference instead of corrupting memory.
      assert(runs_[index].compact_epoch == compact_epoch_ &&
             "nics_ compacted without a detach epoch bump: snapshot stale");
    }
    stats_.receivers_visited += 1;
    receiver.nic->deliver(frame);
  }
  release_run(index);
}

void LanSegment::attach_nic(Nic& nic) {
  // Nic::attach detaches from any previous segment first, so `nic` cannot
  // already be in the list -- attaching a million stations is a million
  // push_backs, not a million membership scans.
  if (nics_.size() >= kIpEntry) throw std::length_error("LanSegment: too many NICs");
  const auto slot = static_cast<std::uint32_t>(nics_.size());
  nic.lan_index_ = slot;
  nics_.push_back(&nic);
  if (index_valid_) {
    index_nic(slot);
    if (nic.promiscuous_ || nic.arp_address_ == 0) always_.push_back(slot);
  }
}

void LanSegment::filter_changed(Nic& nic, std::uint32_t old_ip) {
  if (!index_valid_) return;
  // The one change patched in place: a stack declaring its address on a
  // NIC attached after the index was built, which leaves the NIC at
  // always_'s tail. Any other change rebuilds on the next indexed frame.
  const auto slot = static_cast<std::uint32_t>(nic.lan_index_);
  if (old_ip == 0 && nic.arp_address_ != 0 && !nic.promiscuous_ &&
      !always_.empty() && always_.back() == slot) {
    index_insert(kIpKey | nic.arp_address_, slot | kIpEntry);
    always_.pop_back();
    return;
  }
  index_valid_ = false;
}

void LanSegment::detach_nic(Nic& nic) {
  // Tombstone via the NIC's back-index: O(1), and attach order (which the
  // loss-draw sequence is keyed to) is preserved for the survivors. An
  // ordered erase here would make a million-station teardown quadratic.
  const std::size_t i = nic.lan_index_;
  if (i >= nics_.size() || nics_[i] != &nic) return;
  nics_[i] = nullptr;
  dead_nics_ += 1;
  detach_epoch_ += 1;  // in-flight runs fall back to membership checks
  if (dead_nics_ * 2 > nics_.size()) compact_nics();
}

void LanSegment::compact_nics() {
  std::size_t w = 0;
  for (Nic* nic : nics_) {
    if (nic == nullptr) continue;
    nic->lan_index_ = w;
    nics_[w++] = nic;
  }
  nics_.resize(w);
  dead_nics_ = 0;
  compact_epoch_ += 1;  // in-flight snapshots must not trust their slots
  index_valid_ = false;  // slots renumbered
}

void LanSegment::rebuild_index() {
  std::size_t keys = 0;
  for (const Nic* nic : nics_) {
    if (nic != nullptr) keys += nic->arp_address_ != 0 ? 2 : 1;
  }
  std::size_t size = 16;
  unsigned bits = 4;
  while (size < keys * 2) {  // load <= 1/2 after a rebuild
    size *= 2;
    bits += 1;
  }
  index_.assign(size, kEmptyEntry);
  index_shift_ = 64 - bits;
  index_used_ = 0;
  index_valid_ = true;
  always_.clear();
  for (std::size_t slot = 0; slot < nics_.size(); ++slot) {
    const Nic* nic = nics_[slot];
    if (nic == nullptr) continue;
    index_nic(static_cast<std::uint32_t>(slot));
    if (nic->promiscuous_ || nic->arp_address_ == 0) {
      always_.push_back(static_cast<std::uint32_t>(slot));
    }
  }
}

void LanSegment::index_nic(std::uint32_t slot) {
  const Nic& nic = *nics_[slot];
  index_insert(nic.mac_.value(), slot);
  if (nic.arp_address_ != 0) index_insert(kIpKey | nic.arp_address_, slot | kIpEntry);
}

std::size_t LanSegment::index_home(std::uint64_t key) const {
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> index_shift_);
}

void LanSegment::index_insert(std::uint64_t key, std::uint32_t entry) {
  if ((index_used_ + 1) * 4 > index_.size() * 3) {
    index_valid_ = false;  // too full: the next lookup rebuilds at size
    return;
  }
  const std::size_t mask = index_.size() - 1;
  std::size_t i = index_home(key);
  while (index_[i] != kEmptyEntry) i = (i + 1) & mask;
  index_[i] = entry;
  index_used_ += 1;
}

void LanSegment::index_lookup(std::uint64_t key, std::vector<std::uint32_t>& out) const {
  const bool ip = (key & kIpKey) != 0;
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = index_home(key); index_[i] != kEmptyEntry; i = (i + 1) & mask) {
    const std::uint32_t entry = index_[i];
    if (((entry & kIpEntry) != 0) != ip) continue;
    const std::uint32_t slot = entry & ~kIpEntry;
    const Nic* nic = nics_[slot];
    if (nic == nullptr) continue;  // detached since indexed
    if (ip ? nic->arp_address_ == static_cast<std::uint32_t>(key)
           : nic->mac_.value() == key) {
      out.push_back(slot);
    }
  }
}

}  // namespace ab::netsim
