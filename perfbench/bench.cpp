// perfbench: the repository benchmark's measuring process.
//
// One invocation runs ONE workload (a fresh process per workload, so the
// peak resident set its parent reads belongs to that workload alone) and
// prints a `RESULT {...}` line that run.py turns into the benchmark's
// output. Every cell goes through the public apps::TopologySweep::run_cell
// with a bench-owned wrapper Workload around the real one; the wrapper
// marks where set-up ends and traffic starts, and reads the layers' public
// stats structs through the WorkloadContext. Nothing here reaches into the
// simulator's internals.
//
// Workloads (why each exists):
//   million_station  -- star-8x125000 under the default AggregateHostWorkload:
//                       the per-attached-receiver delivery walk, NIC
//                       filtering, per-station ARP decode, build and memory
//                       dominate; scheduler and bridge do almost nothing.
//   tcp_mesh         -- kregular-32x4 (graphs seeded by --seed) carrying 32
//                       paired cross-LAN TCP streams: scheduler, transmit
//                       path, fragmentation, TCP and directed bridge
//                       forwarding dominate; the delivery walk is ~5 NICs.
//                       Not gated by BENCHMARK.json (README.md says why).
//   tcp_mesh_sharded -- the same cells through the sharded path at
//                       regions = threads = min(4, cores): ParallelRunner
//                       rounds, barriers and mailboxes dominate.
//
// Timed runs (--trace 0) measure end-to-end numbers only. A traced run
// (--trace 1) adds a direct build probe, an untraced reference cell, a
// traced cell with frame taps and deep per-NIC counter walks, the
// 1-thread and single-scheduler baselines (sharded workload), and
// micro-probes replaying captured frames into each layer's public
// hot-path function; its spans are written as Chrome trace-event JSON.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "src/apps/scenario.h"
#include "src/bridge/learning.h"
#include "src/bridge/sharded_topology.h"
#include "src/bridge/topology.h"
#include "src/netsim/lan.h"
#include "src/netsim/network.h"
#include "src/netsim/nic.h"
#include "src/stack/arp.h"

using namespace ab;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Current resident set in bytes, read from /proc/self/statm.
std::uint64_t current_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long total = 0;
  unsigned long long resident = 0;
  const int got = std::fscanf(f, "%llu %llu", &total, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

// ---------------------------------------------------------------------------
// Command line

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out = "perfbench-trace.json";
  /// Self-test sizes: every workload shrunk to a cell that runs in well
  /// under a second.
  bool tiny = false;
  /// Self-test only: one lossy LAN, to prove failures are counted.
  bool lossy = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload million_station|tcp_mesh|"
               "tcp_mesh_sharded --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE] [--tiny] [--lossy]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + key).c_str());
      return argv[++i];
    };
    if (key == "--workload") {
      a.workload = value();
    } else if (key == "--seed") {
      a.seed = std::stoull(value());
    } else if (key == "--seconds") {
      a.seconds = std::stod(value());
    } else if (key == "--trace") {
      a.trace = value() != "0";
    } else if (key == "--trace-out") {
      a.trace_out = value();
    } else if (key == "--tiny") {
      a.tiny = true;
    } else if (key == "--lossy") {
      a.lossy = true;
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.seconds <= 0) usage("--seconds must be positive");
  return a;
}

// ---------------------------------------------------------------------------
// Workloads

/// Random graphs a tcp workload measures per seed. One k-regular graph's
/// stream paths (and so its frame count) vary by about +-12% between
/// seeds; averaging every round over a fixed set of graphs drawn from the
/// seed keeps a run's work, and so run_s, comparable across seeds.
constexpr int kGraphsPerSeed = 16;

struct WorkloadDef {
  std::string name;
  int track = 0;  ///< trace track (tid): one per workload
  /// The cells of one round: one spec, or one per graph drawn from the seed.
  std::vector<netsim::TopologySpec> specs;
  apps::SweepOptions options;
  /// Regions of the sharded path (0: single scheduler).
  int regions = 0;
  std::function<std::unique_ptr<apps::Workload>()> make;
  /// Bytes every stream must send and deliver (0: no stream-size check).
  std::size_t stream_bytes = 0;
  bool loss_free = true;
  /// Rounds a timed run measures even when they outlast --seconds.
  int min_rounds = 1;
};

int sharded_threads(bool tiny) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<int>(std::min<unsigned>(tiny ? 2u : 4u, hw));
}

WorkloadDef make_workload(const Args& a) {
  WorkloadDef w;
  w.name = a.workload;
  netsim::TopologySpec spec;
  int graphs = 1;
  if (a.workload == "million_station") {
    w.track = 0;
    spec.shape = netsim::TopologyShape::kStar;
    spec.nodes = a.tiny ? 4 : 8;
    spec.hosts_per_lan = a.tiny ? 40 : 125000;
    // Its one cell outlasts --seconds, and its delivery walk is bound by
    // memory latency, which drifts by +-10% between cells on a shared host:
    // a run measures two cells and reports their median.
    w.min_rounds = 2;
    const std::uint64_t seed = a.seed;
    w.make = [seed] {
      apps::AggregateHostWorkload::Options o;
      o.seed = seed;
      return std::make_unique<apps::AggregateHostWorkload>(o);
    };
  } else if (a.workload == "tcp_mesh" || a.workload == "tcp_mesh_sharded") {
    const bool sharded = a.workload == "tcp_mesh_sharded";
    w.track = sharded ? 2 : 1;
    spec.shape = netsim::TopologyShape::kRandomKRegular;
    spec.nodes = a.tiny ? 8 : 32;
    spec.degree = 4;
    spec.hosts_per_lan = a.tiny ? 2 : 4;
    graphs = kGraphsPerSeed;
    apps::TtcpStreamWorkload::Options o;
    o.streams = a.tiny ? 4 : 32;
    // 256 KiB per stream keeps every bridge egress queue below its
    // 512-frame limit on every graph. From 512 KiB up, tail drops appear and
    // some TCP streams stall in exponential RTO backoff without ever
    // completing: a loss-recovery defect this benchmark does not exercise
    // (see README.md).
    o.bytes_per_stream = a.tiny ? 64 * 1024 : 256 * 1024;
    o.write_size = 8192;
    o.placement = apps::TtcpStreamWorkload::Placement::kPaired;
    o.transport = apps::TtcpStreamWorkload::Transport::kTcp;
    w.stream_bytes = o.bytes_per_stream;
    w.make = [o] { return std::make_unique<apps::TtcpStreamWorkload>(o); };
    if (sharded) {
      w.regions = sharded_threads(a.tiny);
      w.options.threads = w.regions;
    }
  } else {
    usage(("unknown workload " + a.workload).c_str());
  }
  if (a.lossy) {
    netsim::LanConfig lossy;
    lossy.loss = 0.2;
    lossy.seed = a.seed;
    spec.lan_overrides[1] = lossy;
    w.loss_free = false;
  }
  for (int g = 0; g < graphs; ++g) {
    // Disjoint graph seeds per --seed: seed s draws graphs s*64 .. s*64+15.
    spec.seed = graphs == 1 ? a.seed : a.seed * 64 + static_cast<std::uint64_t>(g);
    w.specs.push_back(spec);
  }
  return w;
}

// ---------------------------------------------------------------------------
// Trace spans (kept in memory, written at exit as Chrome trace-event JSON)

struct Span {
  std::string name;
  double start_us = 0.0;
  double dur_us = 0.0;
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  void add(std::string name, Clock::time_point start, Clock::time_point end) {
    spans_.push_back({std::move(name),
                      std::chrono::duration<double, std::micro>(start - origin_).count(),
                      std::chrono::duration<double, std::micro>(end - start).count()});
  }

  /// Runs `fn` inside a span named `name`.
  template <class Fn>
  void span(std::string name, Fn&& fn) {
    const Clock::time_point start = Clock::now();
    fn();
    add(std::move(name), start, Clock::now());
  }

  bool write(const std::string& path, const std::string& track, int tid) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    std::fprintf(f,
                 "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                 "\"tid\": %d, \"args\": {\"name\": \"%s\"}}",
                 tid, track.c_str());
    for (const Span& s : spans_) {
      std::fprintf(f,
                   ",\n{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": \"X\", "
                   "\"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f}",
                   s.name.c_str(), tid, s.start_us, s.dur_us);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Layer counters read through the WorkloadContext

struct Counters {
  // cheap: a few dozen bridges/LANs/shards
  std::uint64_t events = 0;
  std::uint64_t inserts = 0;
  std::uint64_t scheduled = 0;
  std::uint64_t lan_frames = 0;
  std::uint64_t lan_lost = 0;
  std::uint64_t plane_received = 0;
  std::uint64_t plane_flooded = 0;
  std::uint64_t plane_directed = 0;
  std::uint64_t rounds = 0;
  std::uint64_t spills = 0;
  // deep: one visit per attached NIC and per station
  std::uint64_t visits = 0;
  std::uint64_t nic_rx = 0;
  std::uint64_t host_rx = 0;
  std::uint64_t host_tx = 0;
  std::uint64_t fragments = 0;
  std::uint64_t unresolved = 0;

  Counters operator-(const Counters& o) const {
    Counters d;
    d.events = events - o.events;
    d.inserts = inserts - o.inserts;
    d.scheduled = scheduled - o.scheduled;
    d.lan_frames = lan_frames - o.lan_frames;
    d.lan_lost = lan_lost - o.lan_lost;
    d.plane_received = plane_received - o.plane_received;
    d.plane_flooded = plane_flooded - o.plane_flooded;
    d.plane_directed = plane_directed - o.plane_directed;
    d.rounds = rounds - o.rounds;
    d.spills = spills - o.spills;
    d.visits = visits - o.visits;
    d.nic_rx = nic_rx - o.nic_rx;
    d.host_rx = host_rx - o.host_rx;
    d.host_tx = host_tx - o.host_tx;
    d.fragments = fragments - o.fragments;
    d.unresolved = unresolved - o.unresolved;
    return d;
  }
};

/// Every segment of the cell: the single Network's LANs, or every
/// region's replicas when sharded.
std::vector<netsim::LanSegment*> segments_of(const apps::WorkloadContext& ctx) {
  std::vector<netsim::LanSegment*> out;
  if (ctx.is_sharded()) {
    for (const auto& region : ctx.sharded->regions) {
      for (netsim::LanSegment* lan : region->replicas) {
        if (lan != nullptr) out.push_back(lan);
      }
    }
  } else {
    out = ctx.single_topo->shape.lans;
  }
  return out;
}

Counters read_counters(const apps::WorkloadContext& ctx, bool deep) {
  Counters c;
  std::vector<bridge::BridgeNode*> bridges;
  if (ctx.is_sharded()) {
    const bridge::ShardedTopology& t = *ctx.sharded;
    c.events = t.events();
    c.inserts = t.heap_inserts();
    c.scheduled = t.scheduled_entries();
    for (std::size_t l = 0; l < t.lan_count(); ++l) {
      const netsim::LanStats s = t.lan_stats(l);
      c.lan_frames += s.frames_carried;
      c.lan_lost += s.frames_lost;
    }
    c.rounds = ctx.runner->rounds();
    for (const auto& ch : t.channels) c.spills += ch->spilled();
    bridges = t.bridges;
  } else {
    netsim::Scheduler& s = ctx.single_net->scheduler();
    c.events = s.executed();
    c.inserts = s.inserts();
    c.scheduled = s.scheduled();
    for (const netsim::LanSegment* lan : ctx.single_topo->shape.lans) {
      c.lan_frames += lan->stats().frames_carried;
      c.lan_lost += lan->stats().frames_lost;
    }
    for (const auto& b : ctx.single_topo->bridges) bridges.push_back(b.get());
  }
  for (bridge::BridgeNode* b : bridges) {
    const bridge::PlaneStats& p = b->plane().stats();
    c.plane_received += p.received;
    c.plane_flooded += p.flooded;
    c.plane_directed += p.directed;
  }
  if (!deep) return c;
  for (const netsim::LanSegment* lan : segments_of(ctx)) {
    for (const netsim::Nic* nic : lan->attached()) {
      if (nic == nullptr) continue;
      const netsim::NicStats& s = nic->stats();
      c.visits += s.rx_frames + s.rx_filtered + s.rx_bad;
      c.nic_rx += s.rx_frames;
    }
  }
  for (std::size_t h = 0; h < ctx.host_count(); ++h) {
    stack::HostStack& host = ctx.host(h);
    c.host_rx += host.nic().stats().rx_frames;
    c.host_tx += host.nic().stats().tx_frames;
    c.fragments += host.stats().fragments_sent;
    c.unresolved += host.stats().unresolved_drops;
  }
  return c;
}

// ---------------------------------------------------------------------------
// Frame capture for the micro-probes (traced cell only)

constexpr std::size_t kSampleFrames = 4096;
constexpr std::size_t kSampleArp = 512;

/// Reservoir samples of the wire frames carried during traffic, plus the
/// count of broadcast-ARP receivers (each one a stack ARP decode). One per
/// region: a sharded cell's taps fire on the region's worker thread.
struct Capture {
  explicit Capture(std::uint64_t seed) : rng(seed) {}
  std::mt19937_64 rng;
  std::uint64_t seen = 0;
  std::uint64_t arp_seen = 0;
  std::uint64_t arp_receivers = 0;
  std::vector<util::ByteBuffer> frames;
  std::vector<std::int64_t> times_ns;
  std::vector<util::ByteBuffer> arps;

  void take(netsim::TimePoint at, util::ByteView wire, std::size_t attached) {
    seen += 1;
    if (frames.size() < kSampleFrames) {
      frames.emplace_back(wire.begin(), wire.end());
      times_ns.push_back(at.time_since_epoch().count());
    } else {
      const std::uint64_t slot = rng() % seen;
      if (slot < kSampleFrames) {
        frames[slot].assign(wire.begin(), wire.end());
        times_ns[slot] = at.time_since_epoch().count();
      }
    }
    const bool arp = wire.size() >= 14 && wire[12] == 0x08 && wire[13] == 0x06;
    if (!arp) return;
    const bool broadcast = std::all_of(wire.begin(), wire.begin() + 6,
                                       [](std::uint8_t b) { return b == 0xFF; });
    if (broadcast && attached > 0) arp_receivers += attached - 1;
    arp_seen += 1;
    if (arps.size() < kSampleArp) {
      arps.emplace_back(wire.begin(), wire.end());
    } else {
      const std::uint64_t slot = rng() % arp_seen;
      if (slot < kSampleArp) arps[slot].assign(wire.begin(), wire.end());
    }
  }
};

void install_taps(const apps::WorkloadContext& ctx,
                  std::vector<std::unique_ptr<Capture>>& captures, std::uint64_t seed) {
  auto tap_into = [](netsim::LanSegment* lan, Capture* cap) {
    lan->set_frame_tap([lan, cap](netsim::TimePoint at, const netsim::Nic*,
                                  util::ByteView wire) {
      cap->take(at, wire, lan->attached().size());
    });
  };
  if (ctx.is_sharded()) {
    for (const auto& region : ctx.sharded->regions) {
      captures.push_back(std::make_unique<Capture>(seed + captures.size()));
      for (netsim::LanSegment* lan : region->replicas) {
        if (lan != nullptr) tap_into(lan, captures.back().get());
      }
    }
  } else {
    captures.push_back(std::make_unique<Capture>(seed));
    for (netsim::LanSegment* lan : ctx.single_topo->shape.lans) {
      tap_into(lan, captures.back().get());
    }
  }
}

void remove_taps(const apps::WorkloadContext& ctx) {
  for (netsim::LanSegment* lan : segments_of(ctx)) lan->set_frame_tap(nullptr);
}

// ---------------------------------------------------------------------------
// The wrapper workload

/// Wraps the real workload. Marks the host time at which run() starts (end
/// of set-up) and ends (start of teardown), and reads layer counters around
/// the inner run. A set-up-only cell skips the inner workload: it measures
/// build + convergence without paying for another traffic phase.
class MeasuredWorkload final : public apps::Workload {
 public:
  struct Plan {
    bool setup_only = false;
    bool deep = false;       ///< walk every NIC and station for counters
    bool capture = false;    ///< tap every segment for the micro-probes
    std::uint64_t seed = 1;  ///< capture reservoir seed
  };

  MeasuredWorkload(apps::Workload& inner, Plan plan) : inner_(&inner), plan_(plan) {}

  [[nodiscard]] std::string_view name() const override { return inner_->name(); }

  void run(apps::WorkloadContext& ctx, apps::SweepResult& result) override {
    run_start = Clock::now();
    if (plan_.setup_only) {
      count_nics(ctx);
      run_end = Clock::now();
      return;
    }
    before = read_counters(ctx, plan_.deep);
    if (plan_.capture) install_taps(ctx, captures, plan_.seed);
    traffic_start = Clock::now();
    inner_->run(ctx, result);
    traffic_end = Clock::now();
    traffic_s = seconds_between(traffic_start, traffic_end);
    if (plan_.capture) remove_taps(ctx);
    after = read_counters(ctx, plan_.deep);
    count_nics(ctx);
    run_end = Clock::now();
  }

  /// Attached NICs and their transmit tail-drops, over every segment.
  void count_nics(const apps::WorkloadContext& ctx) {
    for (const netsim::LanSegment* lan : segments_of(ctx)) {
      for (const netsim::Nic* nic : lan->attached()) {
        if (nic == nullptr) continue;
        lan_nics += 1;
        tx_dropped += nic->stats().tx_dropped;
      }
    }
    lans = ctx.lan_count();
  }

  Clock::time_point run_start{};
  Clock::time_point traffic_start{};
  Clock::time_point traffic_end{};
  Clock::time_point run_end{};
  double traffic_s = 0.0;
  Counters before;
  Counters after;
  std::size_t lan_nics = 0;
  std::size_t lans = 0;
  std::uint64_t tx_dropped = 0;
  std::vector<std::unique_ptr<Capture>> captures;

 private:
  apps::Workload* inner_;
  Plan plan_;
};

// ---------------------------------------------------------------------------
// One cell and its output checks

struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void op(bool ok, const std::string& what) {
    attempted += 1;
    if (!ok) {
      failed += 1;
      if (failures.size() < 20) failures.push_back(what);
    }
  }
};

struct Cell {
  bool full = true;
  double setup_s = 0.0;
  double run_s = 0.0;
  double teardown_s = 0.0;
  Counters traffic;  ///< after - before, traffic phase only
  std::size_t lan_nics = 0;
  std::size_t lans = 0;
  std::uint64_t tx_dropped = 0;
  apps::SweepResult result;
  std::vector<std::unique_ptr<Capture>> captures;
};

Cell run_cell(const WorkloadDef& w, const netsim::TopologySpec& spec,
              MeasuredWorkload::Plan plan, Tracer* tracer, const char* prefix = "") {
  std::unique_ptr<apps::Workload> inner = w.make();
  MeasuredWorkload measured(*inner, plan);
  apps::TopologySweep sweep(w.options);
  const Clock::time_point start = Clock::now();
  Cell c;
  c.result = sweep.run_cell(spec, measured);
  const Clock::time_point end = Clock::now();
  c.full = !plan.setup_only;
  c.setup_s = seconds_between(start, measured.run_start);
  c.run_s = measured.traffic_s;
  c.teardown_s = seconds_between(measured.run_end, end);
  c.traffic = measured.after - measured.before;
  c.lan_nics = measured.lan_nics;
  c.lans = measured.lans;
  c.tx_dropped = measured.tx_dropped;
  c.captures = std::move(measured.captures);
  if (tracer != nullptr) {
    const std::string p = prefix;
    tracer->add(p + "setup", start, measured.run_start);
    if (c.full) {
      tracer->add(p + "traffic", measured.traffic_start, measured.traffic_end);
    }
    tracer->add(p + "teardown", measured.run_end, end);
  }
  return c;
}

/// Output checks of one cell. Operations: every ping sent, every stream
/// started, the cell's STP convergence, and (on a loss-free cell) the
/// carriage of every frame without a segment loss or a transmit tail-drop.
void check_cell(const WorkloadDef& w, const Cell& c, Checks& checks) {
  const apps::SweepResult& r = c.result;
  checks.op(r.stp_converged, "STP did not converge");
  if (w.loss_free) {
    checks.op(r.frames_lost == 0 && c.tx_dropped == 0,
              "loss-free cell lost " + std::to_string(r.frames_lost) +
                  " frames on segments and tail-dropped " +
                  std::to_string(c.tx_dropped) + " at transmitters");
  }
  if (!c.full) return;
  for (int p = 0; p < r.pings_sent; ++p) {
    checks.op(p < r.pings_answered, "ping unanswered");
  }
  for (const apps::StreamResult& s : r.streams) {
    const bool whole = w.stream_bytes == 0 || s.bytes_sent == w.stream_bytes;
    checks.op(whole && s.bytes_received == s.bytes_sent && s.bytes_sent > 0,
              "stream " + s.label + " delivered " + std::to_string(s.bytes_received) +
                  " of " + std::to_string(s.bytes_sent) + " bytes");
  }
}

/// Repeated cells of one run carry the same inputs and must reproduce the
/// first cell's traffic exactly (the simulator is deterministic).
void check_repeat(const Cell& first, const Cell& c, Checks& checks) {
  const apps::SweepResult& a = first.result;
  const apps::SweepResult& b = c.result;
  checks.op(a.frames_carried == b.frames_carried && a.bytes_carried == b.bytes_carried &&
                a.events == b.events && a.pings_answered == b.pings_answered,
            "repeated cell diverged: frames " + std::to_string(a.frames_carried) +
                " vs " + std::to_string(b.frames_carried) + ", events " +
                std::to_string(a.events) + " vs " + std::to_string(b.events));
}

// ---------------------------------------------------------------------------
// Micro-probes: replay captured frames into each layer's hot-path call

std::uint64_t g_sink = 0;  // defeats dead-code elimination of probe loops

/// Median over 5 repetitions of ns per operation; each repetition runs
/// whole passes until 20 ms have elapsed.
template <class Pass>
double ns_per_op(std::size_t ops_per_pass, Pass&& pass) {
  if (ops_per_pass == 0) return 0.0;
  std::vector<double> reps;
  for (int r = 0; r < 5; ++r) {
    std::size_t ops = 0;
    const Clock::time_point t0 = Clock::now();
    double elapsed = 0.0;
    do {
      pass();
      ops += ops_per_pass;
      elapsed = seconds_between(t0, Clock::now());
    } while (elapsed < 0.02);
    reps.push_back(elapsed * 1e9 / static_cast<double>(ops));
  }
  return median(reps);
}

struct ProbeResults {
  double nic_deliver_ns = 0.0;
  double wire_parse_ns = 0.0;
  double arp_decode_ns = 0.0;
  double mac_learn_lookup_ns = 0.0;
  double scheduler_ns = 0.0;
  std::uint64_t arp_receivers = 0;
  std::size_t sampled = 0;
};

ProbeResults run_probes(const std::vector<std::unique_ptr<Capture>>& captures,
                        Tracer& tracer) {
  ProbeResults out;
  std::vector<util::ByteBuffer> wires;
  std::vector<std::int64_t> times;
  std::vector<util::ByteBuffer> arp_wires;
  for (const auto& cap : captures) {
    wires.insert(wires.end(), cap->frames.begin(), cap->frames.end());
    times.insert(times.end(), cap->times_ns.begin(), cap->times_ns.end());
    arp_wires.insert(arp_wires.end(), cap->arps.begin(), cap->arps.end());
    out.arp_receivers += cap->arp_receivers;
  }
  out.sampled = wires.size();

  // Frames as receivers see them: one shared, already-parsed WireFrame.
  std::vector<ether::WireFrame> frames;
  for (const util::ByteBuffer& w : wires) {
    frames.push_back(ether::WireFrame::from_wire(w));
    g_sink += frames.back().ok();
  }

  tracer.span("probe.nic_deliver", [&] {
    netsim::Scheduler scheduler;
    netsim::Nic nic(scheduler, "perfbench.unaddressed",
                    ether::MacAddress::local(0xFFFFFF, 0xFFFE));
    nic.set_rx_handler([](const ether::WireFrame& f) { g_sink += f.wire_size(); });
    out.nic_deliver_ns = ns_per_op(frames.size(), [&] {
      for (const ether::WireFrame& f : frames) nic.deliver(f);
    });
  });

  tracer.span("probe.wire_parse", [&] {
    out.wire_parse_ns = ns_per_op(wires.size(), [&] {
      for (const util::ByteBuffer& w : wires) {
        g_sink += ether::WireFrame::from_wire(w).ok();
      }
    });
  });

  std::vector<util::ByteBuffer> arp_payloads;
  for (const util::ByteBuffer& w : arp_wires) {
    const ether::WireFrame f = ether::WireFrame::from_wire(w);
    if (f.ok()) arp_payloads.push_back(f.frame().payload);
  }
  tracer.span("probe.arp_decode", [&] {
    out.arp_decode_ns = ns_per_op(arp_payloads.size(), [&] {
      for (const util::ByteBuffer& p : arp_payloads) {
        g_sink += stack::ArpPacket::decode(p).has_value();
      }
    });
  });

  std::vector<std::pair<ether::MacAddress, ether::MacAddress>> macs;
  for (const ether::WireFrame& f : frames) {
    if (f.ok()) macs.emplace_back(f.frame().src, f.frame().dst);
  }
  tracer.span("probe.mac_learn_lookup", [&] {
    bridge::MacTable table;
    const netsim::TimePoint now{};
    out.mac_learn_lookup_ns = ns_per_op(macs.size(), [&] {
      for (std::size_t i = 0; i < macs.size(); ++i) {
        table.learn(macs[i].first, static_cast<active::PortId>(1 + i % 4), now);
        g_sink += table.lookup(macs[i].second, now).value_or(0);
      }
    });
  });

  tracer.span("probe.scheduler", [&] {
    netsim::Scheduler scheduler;
    std::sort(times.begin(), times.end());
    const std::int64_t t0 = times.empty() ? 0 : times.front();
    out.scheduler_ns = ns_per_op(times.size(), [&] {
      const netsim::TimePoint base = scheduler.now();
      for (const std::int64_t t : times) {
        scheduler.schedule_at(base + netsim::Duration(t - t0 + 1), [] { g_sink += 1; });
      }
      scheduler.run();
    });
  });
  return out;
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void print_result(bool correct, const Checks& checks, const std::vector<Metric>& metrics) {
  std::string json = "RESULT {\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(checks.attempted);
  json += ", \"failed\": " + std::to_string(checks.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[512];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void print_cell_line(const WorkloadDef& w, const Cell& c) {
  const Counters& t = c.traffic;
  if (!c.full) {
    std::printf("  %s setup-only cell: setup %.4f s, teardown %.4f s, converged %s\n",
                w.name.c_str(), c.setup_s, c.teardown_s,
                c.result.stp_converged ? "yes" : "NO");
    return;
  }
  std::printf(
      "  %s cell: setup %.4f s, traffic %.4f s, teardown %.4f s | %llu events, "
      "%llu frames carried (%llu in traffic), plane rx %llu (directed %llu, "
      "flooded %llu), sync rounds %llu, pings %d/%d, streams %zu\n",
      w.name.c_str(), c.setup_s, c.run_s, c.teardown_s,
      static_cast<unsigned long long>(c.result.events),
      static_cast<unsigned long long>(c.result.frames_carried),
      static_cast<unsigned long long>(t.lan_frames),
      static_cast<unsigned long long>(t.plane_received),
      static_cast<unsigned long long>(t.plane_directed),
      static_cast<unsigned long long>(t.plane_flooded),
      static_cast<unsigned long long>(t.rounds), c.result.pings_answered,
      c.result.pings_sent, c.result.streams.size());
}

// Set-up samples of a timed run (setup_s is their median): at least the
// minimum, and more, up to the maximum, while set-up-only cells stay within
// their time budget (cheap cells get many samples, million_station three).
constexpr std::size_t kMinSetupSamples = 3;
constexpr std::size_t kMaxSetupSamples = 31;
constexpr double kSetupOnlyBudgetS = 2.0;

int run_timed(const Args& a, const WorkloadDef& w) {
  Checks checks;
  // Whole rounds (one cell per graph of the seed) until the measuring time
  // is spent, at least w.min_rounds; then set-up-only cells.
  std::vector<std::vector<Cell>> rounds;
  std::vector<double> setups;
  std::vector<double> runs;  // per round: mean traffic seconds per cell
  const Clock::time_point start = Clock::now();
  do {
    std::vector<Cell> round;
    double traffic = 0.0;
    for (const netsim::TopologySpec& spec : w.specs) {
      round.push_back(run_cell(w, spec, {}, nullptr));
      setups.push_back(round.back().setup_s);
      traffic += round.back().run_s;
    }
    runs.push_back(traffic / static_cast<double>(w.specs.size()));
    rounds.push_back(std::move(round));
  } while (seconds_between(start, Clock::now()) < a.seconds ||
           static_cast<int>(rounds.size()) < w.min_rounds);
  std::vector<Cell> setup_only;
  double setup_only_s = 0.0;
  while (setups.size() < kMinSetupSamples ||
         (setups.size() < kMaxSetupSamples && setup_only_s < kSetupOnlyBudgetS)) {
    MeasuredWorkload::Plan plan;
    plan.setup_only = true;
    const Clock::time_point t0 = Clock::now();
    setup_only.push_back(
        run_cell(w, w.specs[setup_only.size() % w.specs.size()], plan, nullptr));
    setup_only_s += seconds_between(t0, Clock::now());
    setups.push_back(setup_only.back().setup_s);
  }

  // Every cell when there are few, else the first round's.
  const std::size_t shown = rounds.size() * w.specs.size() <= 12 ? rounds.size() : 1;
  for (std::size_t r = 0; r < shown; ++r) {
    for (const Cell& c : rounds[r]) print_cell_line(w, c);
  }
  for (const Cell& c : setup_only) {
    if (setup_only.size() <= 12) print_cell_line(w, c);
  }
  for (const std::vector<Cell>& round : rounds) {
    for (std::size_t g = 0; g < round.size(); ++g) {
      check_cell(w, round[g], checks);
      if (&round != &rounds.front()) check_repeat(rounds.front()[g], round[g], checks);
    }
  }
  for (const Cell& c : setup_only) check_cell(w, c, checks);
  for (const std::string& f : checks.failures) std::printf("  CHECK FAILED: %s\n", f.c_str());

  std::printf("%s: run_s per round:", w.name.c_str());
  for (const double r : runs) std::printf(" %.4f", r);
  std::printf("\n");
  std::uint64_t frames = 0;
  for (const Cell& c : rounds.front()) frames += c.result.frames_carried;
  const bool correct = checks.failed == 0;
  std::printf(
      "%s: seed %llu, %zu round(s) of %zu cell(s) + %zu set-up-only, %llu frames "
      "carried per round (this path's own count)\n",
      w.name.c_str(), static_cast<unsigned long long>(a.seed), rounds.size(),
      w.specs.size(), setup_only.size(), static_cast<unsigned long long>(frames));
  std::printf("%s: setup_s %.6f s (median of %zu) | run_s %.6f s (median of %zu rounds) "
              "| fail_frac %.6g (%llu/%llu)\n",
              w.name.c_str(), median(setups), setups.size(), median(runs), runs.size(),
              ratio(double(checks.failed), double(checks.attempted)),
              static_cast<unsigned long long>(checks.failed),
              static_cast<unsigned long long>(checks.attempted));
  print_result(correct, checks,
               {{"setup_s", median(setups), "s"}, {"run_s", median(runs), "s"}});
  return correct ? 0 : 1;
}

int run_traced(const Args& a, const WorkloadDef& w) {
  Tracer tracer(Clock::now());
  Checks checks;
  // The traced run measures the seed's first graph.
  const netsim::TopologySpec& spec = w.specs.front();

  // Direct build probe first, while the heap is still untouched, so the
  // resident-set growth across it is the cell's own memory.
  double build_s = 0.0;
  double bytes_per_station = 0.0;
  {
    const std::uint64_t rss_before = current_rss_bytes();
    const Clock::time_point t0 = Clock::now();
    // Called as soon as the build returns; the topology is destroyed after.
    auto built = [&](std::size_t hosts) {
      const Clock::time_point t1 = Clock::now();
      const std::uint64_t rss_after = current_rss_bytes();
      build_s = seconds_between(t0, t1);
      tracer.add("build", t0, t1);
      if (rss_after > rss_before) {
        bytes_per_station = ratio(double(rss_after - rss_before), double(hosts));
      }
    };
    if (w.regions > 0) {
      const bridge::ShardedTopology topo = bridge::build_sharded_topology(
          spec, w.regions, w.options.node_config, w.options.build);
      built(topo.hosts.size());
    } else {
      netsim::Network net;
      const bridge::BridgedTopology topo =
          bridge::build_topology(net, spec, w.options.node_config, w.options.build);
      built(topo.hosts.size());
    }
  }

  // Untraced reference cell, then the traced cell: their traffic-time
  // difference is the tracing overhead.
  Cell reference = run_cell(w, spec, {}, nullptr);
  MeasuredWorkload::Plan plan;
  plan.deep = true;
  plan.capture = true;
  plan.seed = a.seed;
  Cell cell = run_cell(w, spec, plan, &tracer);
  check_cell(w, reference, checks);
  check_cell(w, cell, checks);
  check_repeat(reference, cell, checks);

  // The sharded cell's two baselines: the same regions at 1 thread, and
  // the same cell on the single-scheduler path. A single-scheduler cell is
  // its own baseline: the untraced reference cell.
  double serial_run_s = reference.run_s;
  double single_run_s = reference.run_s;
  if (w.regions > 0) {
    WorkloadDef serial = w;
    serial.options.threads = 1;
    serial.options.shard_regions = w.regions;
    const Cell s = run_cell(serial, spec, {}, &tracer, "serial.");
    check_cell(serial, s, checks);
    serial_run_s = s.run_s;
    WorkloadDef single = w;
    single.options.threads = 1;
    single.options.shard_regions = 0;
    const Cell one = run_cell(single, spec, {}, &tracer, "single.");
    check_cell(single, one, checks);
    single_run_s = one.run_s;
  }

  const ProbeResults probes = run_probes(cell.captures, tracer);

  const Counters& t = cell.traffic;
  const double sim_s = netsim::to_seconds(w.options.traffic_window);
  std::uint64_t retransmits = 0;
  for (const apps::StreamResult& s : cell.result.streams) retransmits += s.retransmits;
  const double nic_busy = probes.nic_deliver_ns * 1e-9 * static_cast<double>(t.visits);
  // A frame is encoded (one CRC pass) once, by the station that sends it;
  // bridges forward the same buffer. A parse costs the same CRC pass.
  const double ether_busy = probes.wire_parse_ns * 1e-9 * static_cast<double>(t.host_tx);
  const double arp_busy =
      probes.arp_decode_ns * 1e-9 * static_cast<double>(probes.arp_receivers);
  const double mac_busy =
      probes.mac_learn_lookup_ns * 1e-9 * static_cast<double>(t.plane_received);
  const double sched_busy = probes.scheduler_ns * 1e-9 * static_cast<double>(t.events);
  const double attributed = nic_busy + ether_busy + arp_busy + mac_busy + sched_busy;

  std::vector<Metric> m = {
      {"netsim.lan.frames", double(t.lan_frames), "count"},
      {"netsim.lan.frames_lost", double(t.lan_lost), "count"},
      {"netsim.nic.deliver_visits", double(t.visits), "count"},
      {"netsim.nic.visits_per_frame", ratio(double(t.visits), double(t.lan_frames)), "ratio"},
      {"netsim.nic.useful_ratio", ratio(double(t.nic_rx), double(t.visits)), "ratio"},
      {"netsim.nic.deliver_ns", probes.nic_deliver_ns, "ns"},
      {"netsim.nic.est_busy_s", nic_busy, "s"},
      {"stack.rx_frames", double(t.host_rx), "count"},
      {"stack.rx_per_frame", ratio(double(t.host_rx), double(t.lan_frames)), "ratio"},
      {"stack.arp.decodes", double(probes.arp_receivers), "count"},
      {"stack.arp_decode_ns", probes.arp_decode_ns, "ns"},
      {"stack.arp.est_busy_s", arp_busy, "s"},
      {"stack.ip.fragments_sent", double(t.fragments), "count"},
      {"stack.tcp.retransmits", double(retransmits), "count"},
      {"stack.unresolved_drops", double(t.unresolved), "count"},
      {"ether.frames_encoded", double(t.host_tx), "count"},
      {"ether.parse_ns", probes.wire_parse_ns, "ns"},
      {"ether.est_busy_s", ether_busy, "s"},
      {"netsim.scheduler.events", double(t.events), "count"},
      {"netsim.scheduler.inserts", double(t.inserts), "count"},
      {"netsim.scheduler.entries_per_insert", ratio(double(t.scheduled), double(t.inserts)),
       "ratio"},
      {"netsim.scheduler.fire_ns", probes.scheduler_ns, "ns"},
      {"netsim.scheduler.est_busy_s", sched_busy, "s"},
      {"apps.traffic.ns_per_event", ratio(cell.run_s * 1e9, double(t.events)), "ns"},
      {"bridge.plane.received", double(t.plane_received), "count"},
      {"bridge.plane.flooded", double(t.plane_flooded), "count"},
      {"bridge.plane.directed", double(t.plane_directed), "count"},
      {"bridge.plane.directed_ratio",
       ratio(double(t.plane_directed), double(t.plane_directed + t.plane_flooded)), "ratio"},
      {"bridge.mac.entries", double(cell.result.mac_entries), "count"},
      {"bridge.mac.learn_lookup_ns", probes.mac_learn_lookup_ns, "ns"},
      {"bridge.mac.est_busy_s", mac_busy, "s"},
      {"netsim.sync.rounds", double(t.rounds), "count"},
      {"netsim.sync.rounds_per_sim_s", ratio(double(t.rounds), sim_s), "1/s"},
      {"netsim.sync.events_per_round", ratio(double(t.events), double(t.rounds)), "ratio"},
      {"netsim.sync.mailbox_spills", double(t.spills), "count"},
      {"netsim.sync.serial_run_s", serial_run_s, "s"},
      {"netsim.sync.single_scheduler_run_s", single_run_s, "s"},
      {"bridge.build_s", build_s, "s"},
      {"netsim.converge_s", cell.setup_s - build_s, "s"},
      {"netsim.arena.bytes_per_station", bytes_per_station, "B"},
      {"apps.teardown_s", cell.teardown_s, "s"},
      {"apps.traffic.run_s", cell.run_s, "s"},
      {"apps.trace_overhead_s", cell.run_s - reference.run_s, "s"},
      {"apps.traffic.unattributed_frac", 1.0 - ratio(attributed, cell.run_s), "ratio"},
  };

  std::printf("%s traced run, seed %llu:\n", w.name.c_str(),
              static_cast<unsigned long long>(a.seed));
  print_cell_line(w, reference);
  print_cell_line(w, cell);
  std::printf("  run_s untraced %.4f s | traced %.4f s | tracing overhead %+.4f s\n",
              reference.run_s, cell.run_s, cell.run_s - reference.run_s);
  std::printf("  %.1f NICs attached per LAN on average; micro-probes replayed %zu "
              "sampled frames\n",
              ratio(double(cell.lan_nics), double(cell.lans)), probes.sampled);
  if (w.regions > 0) {
    std::printf("  sharded run_s %.4f s at %d threads vs %.4f s at 1 thread "
                "(%d regions) vs %.4f s on the single-scheduler path\n",
                cell.run_s, w.regions, serial_run_s, w.regions, single_run_s);
  }
  for (const Metric& x : m) {
    std::printf("  %-36s %16.6g %s\n", x.name.c_str(), x.value, x.unit.c_str());
  }
  for (const std::string& f : checks.failures) std::printf("  CHECK FAILED: %s\n", f.c_str());
  if (!tracer.write(a.trace_out, w.name, w.track)) {
    std::fprintf(stderr, "perfbench: cannot write trace %s\n", a.trace_out.c_str());
    return 1;
  }
  const bool correct = checks.failed == 0;
  print_result(correct, checks, m);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    const WorkloadDef w = make_workload(args);
    return args.trace ? run_traced(args, w) : run_timed(args, w);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
