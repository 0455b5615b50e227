// End-to-end benchmark of the vmig simulator.
//
// Runs one workload in this process, through vmig's public API only, and
// prints one JSON line as its last line of standard output:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Untraced runs (--trace 0) repeat whole rounds of the workload until
// --seconds have passed and report the end-to-end metrics: the host time of
// the fastest round's simulation, the cold set-up time, peak memory, and the
// simulated downtime, migration time and link bytes. Traced runs
// (--trace 1) run an untraced round, a round under obs::Profiler stopped at
// every simulated phase boundary of the first, and a second untraced round,
// and report the per-layer metrics. Every round checks the program's outputs
// itself; see README.md for the checks, the workloads and the metrics.
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/profiler.hpp"
#include "vmig.hpp"
#include "workloads/steady_writer.hpp"

namespace {

using namespace vmig;
using namespace vmig::sim::literals;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::uint64_t splitmix64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

constexpr double kMiB = 1024.0 * 1024.0;

// ---------------------------------------------------------------------------
// What one round produces.

struct SetupSpans {
  double build_ms = 0;    // testbed, guests, workloads
  double prefill_ms = 0;  // disk content stamping
  double submit_ms = 0;   // migration requests / orchestrator jobs
};

/// Exact work counters read from the layers' public getters after a round.
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t net_bytes = 0;
  std::uint64_t net_messages = 0;
  std::uint64_t disk_writes = 0;
  std::uint64_t guest_reads = 0;
  std::uint64_t guest_writes = 0;
  std::uint64_t dirty_marks = 0;
  std::uint64_t disk_iterations = 0;
  std::uint64_t blocks_first_pass = 0;
  std::uint64_t blocks_retransferred = 0;
  std::uint64_t blocks_postcopy = 0;
  std::uint64_t pages_precopied = 0;
  std::uint64_t report_bytes = 0;  // sum of MigrationReport::total_bytes()
  std::uint64_t jobs = 0;
  std::uint64_t attempts = 0;
  std::uint64_t hosts_materialized = 0;
  std::int64_t end_ns = 0;  // simulated time when the round ended

  /// Every counter by name, in a fixed order.
  std::vector<std::pair<const char*, std::uint64_t>> items() const {
    return {{"events", events},
            {"net_bytes", net_bytes},
            {"net_messages", net_messages},
            {"disk_writes", disk_writes},
            {"guest_reads", guest_reads},
            {"guest_writes", guest_writes},
            {"dirty_marks", dirty_marks},
            {"disk_iterations", disk_iterations},
            {"blocks_first_pass", blocks_first_pass},
            {"blocks_retransferred", blocks_retransferred},
            {"blocks_postcopy", blocks_postcopy},
            {"pages_precopied", pages_precopied},
            {"report_bytes", report_bytes},
            {"jobs", jobs},
            {"attempts", attempts},
            {"hosts_materialized", hosts_materialized},
            {"end_ns", static_cast<std::uint64_t>(end_ns)}};
  }
};

/// Simulated phases of a round, in order. A traced round stops at each
/// boundary with Simulator::run_until and charges the host time in between.
constexpr std::array<const char*, 8> kPhases = {
    "warmup", "disk_precopy", "mem_precopy", "freeze",
    "postcopy", "dwell", "im", "drain"};
using PhaseBounds = std::array<sim::TimePoint, kPhases.size() - 1>;

struct RoundResult {
  SetupSpans spans;
  double setup_s = 0;  // host seconds from the set-up origin to the run
  double run_s = 0;    // host seconds spent inside simulator calls
  std::array<double, kPhases.size()> phase_s{};
  std::vector<core::MigrationOutcome> outcomes;
  Counters counters;
  PhaseBounds bounds{};
  std::vector<std::string> failures;  // output checks that did not hold
  std::vector<std::pair<std::string, double>> profile;  // traced rounds only

  std::uint64_t failed_migrations() const {
    return static_cast<std::uint64_t>(std::count_if(
        outcomes.begin(), outcomes.end(),
        [](const core::MigrationOutcome& o) { return !o.completed(); }));
  }
};

/// Every simulated output of a round, as text: equal fingerprints mean the
/// two rounds simulated the same thing.
std::string fingerprint(const RoundResult& r) {
  std::string s;
  for (const auto& o : r.outcomes) {
    s += core::to_string(o.status);
    s += ' ';
    s += std::to_string(o.attempts);
    s += ' ';
    s += core::to_json(o.report);
    s += '\n';
  }
  for (const auto& [name, v] : r.counters.items()) {
    s += std::to_string(v);
    s += ' ';
  }
  return s;
}

// ---------------------------------------------------------------------------
// Output checks computed by the benchmark, independent of the program's own
// consistency verdicts and dirty bitmaps.

/// Guest writes stamp tokens from one counter that only grows; prefill
/// stamps synthetic tokens far above it. A token below `prefill_floor` (the
/// smallest prefilled token) was therefore stamped by a write, and a written
/// token newer than every written token a frozen source holds was written
/// after that freeze.
struct ContentDiff {
  std::uint64_t written_after = 0;  // destination blocks newer than the freeze
  std::uint64_t mismatched = 0;     // other blocks that differ from the source
};

ContentDiff diff_after_freeze(std::span<const storage::ContentToken> frozen,
                              std::span<const storage::ContentToken> dest,
                              storage::ContentToken prefill_floor) {
  storage::ContentToken newest = 0;
  for (storage::ContentToken t : frozen) {
    if (t < prefill_floor && t > newest) newest = t;
  }
  ContentDiff d;
  if (frozen.size() != dest.size()) {
    d.mismatched = std::max(frozen.size(), dest.size());
    return d;
  }
  for (std::size_t b = 0; b < dest.size(); ++b) {
    const storage::ContentToken t = dest[b];
    if (t < prefill_floor && t > newest) {
      ++d.written_after;
    } else if (t != frozen[b]) {
      ++d.mismatched;
    }
  }
  return d;
}

storage::ContentToken min_token(std::span<const storage::ContentToken> t) {
  return t.empty() ? 0 : *std::min_element(t.begin(), t.end());
}

double bytes_per_second(const net::Link& l) {
  return l.params().bandwidth_mibps * kMiB;
}

/// A migration cannot be shorter than its busiest link direction needs.
void check_duration(const std::string& what, const core::MigrationReport& rep,
                    std::uint64_t link_bytes, double bw,
                    std::vector<std::string>& failures) {
  const double wire_s = static_cast<double>(link_bytes) / bw;
  if (rep.total_time().to_seconds() < wire_s) {
    failures.push_back(what + ": migration lasted " +
                       std::to_string(rep.total_time().to_seconds()) +
                       " s, its link bytes need " + std::to_string(wire_s) +
                       " s");
  }
}

/// A freeze cannot be shorter than its payload (residual pages, CPU state
/// and the block-bitmap) needs on the link.
void check_downtime(const std::string& what, const core::MigrationReport& rep,
                    double bw, std::vector<std::string>& failures) {
  const double freeze_s =
      static_cast<double>(rep.bytes_freeze_residual + rep.bytes_bitmap) / bw;
  if (rep.downtime().to_seconds() < freeze_s) {
    failures.push_back(what + ": downtime " +
                       std::to_string(rep.downtime().to_seconds()) +
                       " s is shorter than its freeze payload needs (" +
                       std::to_string(freeze_s) + " s)");
  }
}

void add_report(Counters& c, const core::MigrationReport& r) {
  c.disk_iterations += static_cast<std::uint64_t>(r.disk_iterations);
  c.blocks_first_pass += r.blocks_first_pass;
  c.blocks_retransferred += r.blocks_retransferred;
  c.blocks_postcopy += r.blocks_pushed + r.blocks_pulled;
  c.pages_precopied += r.pages_precopied;
  c.report_bytes += r.total_bytes();
}

void add_backend(Counters& c, vm::BlkBackend* be) {
  if (be == nullptr) return;
  c.guest_reads += be->guest_reads();
  c.guest_writes += be->guest_writes();
  c.dirty_marks += be->dirty_marks_total();
}

// ---------------------------------------------------------------------------
// Scenarios. A scenario builds its world (timed as set-up), starts it, and
// after the simulation has drained collects outputs and checks them. It may
// name simulated instants at which the run pauses, untimed, for checks
// that need the state of that moment.

class Scenario {
 public:
  virtual ~Scenario() = default;
  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  sim::Simulator& sim() noexcept { return sim_; }

  /// Build the testbed, guests, workloads and migration requests.
  virtual void build(SetupSpans& spans) = 0;
  /// Untimed reference values the checks need (read after build).
  virtual void prepare_checks() {}
  virtual std::vector<sim::TimePoint> check_points() const { return {}; }
  virtual void check_at(std::size_t /*i*/, std::vector<std::string>& /*f*/) {}
  /// First call of the timed run: launch the scripted experiment.
  virtual void begin() = 0;
  /// After the run: outcomes, counters, phase bounds and post-run checks.
  virtual void collect(RoundResult& r) = 0;

 protected:
  Scenario() = default;

  // Declared first so it outlives the world built on it (docs/API.md §9).
  sim::Simulator sim_;
};

/// The paper's two-host testbed: TPM out after a warm-up, a dwell at the
/// destination, Incremental Migration back at a fixed instant, then a
/// short observation tail.
struct RoundtripSpec {
  std::uint64_t vbd_mib = 0;
  bool bonnie = false;
  sim::Duration warmup{};
  sim::TimePoint back_at{};  // the IM back starts here
  sim::Duration post{};
};

class RoundtripScenario final : public Scenario {
 public:
  // The seed feeds the guest workload and moves the TPM out's start within
  // one second, so the freezes land at seed-dependent points of the I/O.
  RoundtripScenario(RoundtripSpec spec, std::uint64_t seed) : spec_{spec} {
    wl_seed_ = splitmix64(seed);
    const auto shift_us = static_cast<std::int64_t>(splitmix64(seed) % 1000000);
    spec_.warmup = spec_.warmup + sim::Duration::micros(shift_us);
  }

  void build(SetupSpans& spans) override {
    auto t0 = Clock::now();
    scenario::TestbedConfig cfg;
    cfg.vbd_mib = spec_.vbd_mib;
    tb_ = std::make_unique<scenario::Testbed>(sim_, cfg);
    if (spec_.bonnie) {
      wl_ = std::make_unique<workload::DiabolicalWorkload>(sim_, tb_->vm(),
                                                           wl_seed_);
    } else {
      wl_ = std::make_unique<workload::WebServerWorkload>(sim_, tb_->vm(),
                                                          wl_seed_);
    }
    auto t1 = Clock::now();
    tb_->prefill_disk();
    auto t2 = Clock::now();
    mig_cfg_ = tb_->paper_migration_config();
    auto t3 = Clock::now();
    spans.build_ms = seconds_between(t0, t1) * 1e3;
    spans.prefill_ms = seconds_between(t1, t2) * 1e3;
    spans.submit_ms = seconds_between(t2, t3) * 1e3;
  }

  void prepare_checks() override {
    prefill_floor_ = min_token(source_vbd().tokens());
  }

  std::vector<sim::TimePoint> check_points() const override {
    return {spec_.back_at - sim::Duration::nanos(1)};
  }

  // Just before the IM back starts: the outbound migration is over, the
  // source VBD still holds the frozen image, and the destination holds it
  // plus everything the guest wrote there since it resumed.
  void check_at(std::size_t, std::vector<std::string>& f) override {
    if (!legs_[0].done) {
      f.push_back("outbound TPM still running when the IM back was due");
      return;
    }
    const ContentDiff d = diff_after_freeze(source_vbd().tokens(),
                                            dest_vbd().tokens(),
                                            prefill_floor_);
    if (d.mismatched != 0) {
      f.push_back("TPM out: " + std::to_string(d.mismatched) +
                  " destination blocks differ from the frozen source");
    }
    written_at_dest_ = d.written_after;
  }

  void begin() override { sim_.spawn(script(*this), "perfbench-roundtrip"); }

  void collect(RoundResult& r) override {
    std::vector<std::string>& f = r.failures;
    const std::uint64_t nblocks = source_vbd().geometry().block_count;
    for (const Leg& l : legs_) {
      if (!l.done) {
        f.push_back("a migration never returned");
        return;
      }
      r.outcomes.push_back(l.outcome);
    }
    const core::MigrationReport& out = legs_[0].outcome.report;
    const core::MigrationReport& back = legs_[1].outcome.report;

    // IM back: destination (the original source) against the frozen VBD
    // the guest left behind.
    const ContentDiff d = diff_after_freeze(dest_vbd().tokens(),
                                            source_vbd().tokens(),
                                            prefill_floor_);
    if (d.mismatched != 0) {
      f.push_back("IM back: " + std::to_string(d.mismatched) +
                  " blocks differ from the frozen destination VBD");
    }
    if (!back.incremental) f.push_back("IM back did not run incrementally");
    if (back.blocks_first_pass < written_at_dest_) {
      f.push_back("IM first pass moved " +
                  std::to_string(back.blocks_first_pass) +
                  " blocks, the guest changed " +
                  std::to_string(written_at_dest_) + " during the dwell");
    }
    if (back.blocks_first_pass >= nblocks) {
      f.push_back("IM first pass moved the whole VBD");
    }
    if (!tb_->source().hosts_domain(tb_->vm())) {
      f.push_back("guest is not back on its source host");
    }
    const double bw = bytes_per_second(fwd_link());
    for (std::size_t i = 0; i < legs_.size(); ++i) {
      const Leg& l = legs_[i];
      const char* what = i == 0 ? "TPM out" : "IM back";
      check_duration(what, l.outcome.report,
                     std::max(l.fwd_bytes, l.rev_bytes), bw, f);
      check_downtime(what, l.outcome.report, bw, f);
    }

    Counters& c = r.counters;
    c.events = sim_.events_processed();
    c.end_ns = sim_.now().ns();
    for (const net::Link* l : {&fwd_link(), &rev_link()}) {
      c.net_bytes += l->bytes_sent();
      c.net_messages += l->messages_sent();
    }
    c.disk_writes = source_vbd().write_count() + dest_vbd().write_count();
    const vm::DomainId id = tb_->vm().id();
    add_backend(c, tb_->source().find_backend(id));
    add_backend(c, tb_->dest().find_backend(id));
    for (const Leg& l : legs_) {
      add_report(c, l.outcome.report);
      ++c.jobs;
      c.attempts += static_cast<std::uint64_t>(l.outcome.attempts);
    }
    c.hosts_materialized = 2;
    r.bounds = {out.started,      out.disk_precopy_done, out.suspended,
                out.resumed,      out.synchronized,      back.started,
                back.synchronized};
  }

 private:
  struct Leg {
    core::MigrationOutcome outcome;
    std::uint64_t fwd_bytes = 0;  // bytes on from->to during the migration
    std::uint64_t rev_bytes = 0;  // bytes on to->from during the migration
    bool done = false;
  };

  storage::VirtualDisk& source_vbd() {
    return tb_->source().vbd_for(tb_->vm().id());
  }
  storage::VirtualDisk& dest_vbd() {
    return tb_->dest().vbd_for(tb_->vm().id());
  }
  net::Link& fwd_link() { return tb_->source().link_to(tb_->dest()); }
  net::Link& rev_link() { return tb_->dest().link_to(tb_->source()); }

  static sim::Task<void> migrate(RoundtripScenario& s, hv::Host& from,
                                 hv::Host& to, Leg* leg) {
    net::Link& fwd = from.link_to(to);
    net::Link& rev = to.link_to(from);
    const std::uint64_t fwd0 = fwd.bytes_sent();
    const std::uint64_t rev0 = rev.bytes_sent();
    leg->outcome = co_await s.tb_->manager().migrate(
        {.domain = &s.tb_->vm(), .from = &from, .to = &to,
         .config = s.mig_cfg_});
    leg->fwd_bytes = fwd.bytes_sent() - fwd0;
    leg->rev_bytes = rev.bytes_sent() - rev0;
    leg->done = true;
  }

  static sim::Task<void> script(RoundtripScenario& s) {
    sim::Simulator& sim = s.sim_;
    s.wl_->start();
    co_await sim.delay(s.spec_.warmup);
    co_await migrate(s, s.tb_->source(), s.tb_->dest(), &s.legs_[0]);
    co_await sim.delay(s.spec_.back_at - sim.now());
    co_await migrate(s, s.tb_->dest(), s.tb_->source(), &s.legs_[1]);
    co_await sim.delay(s.spec_.post);
    s.wl_->request_stop();
    co_await s.wl_->handle();
    s.wl_->finish_metrics();
  }

  RoundtripSpec spec_;
  std::uint64_t wl_seed_ = 0;
  std::unique_ptr<scenario::Testbed> tb_;
  std::unique_ptr<workload::Workload> wl_;
  core::MigrationConfig mig_cfg_;
  std::array<Leg, 2> legs_{};
  storage::ContentToken prefill_floor_ = 0;
  std::uint64_t written_at_dest_ = 0;
};

/// A 10 000-host lazy cluster: host0's guests, each with a SteadyWriter,
/// evacuated through the orchestrator with fast-forward on, beside ~100k
/// registered cold VMs. Four guests of the first launch waves also dirty
/// memory for the first 20 s, so the longest freeze depends on memory
/// pre-copy convergence rather than on fixed overheads alone.
class EvacuationScenario final : public Scenario {
 public:
  explicit EvacuationScenario(std::uint64_t seed) : seed_{seed} {}

  static constexpr int kHosts = 10000;
  static constexpr int kGuests = kHosts / 8;
  static constexpr int kColdVmsPerHost = 10;
  static constexpr std::size_t kDestinations = 64;
  static constexpr int kHogs = 4;
  static constexpr int kHogCandidates = 8;  // guests launched first (FIFO)
  static constexpr sim::Duration kLoadWindow = 20_s;

  void build(SetupSpans& spans) override {
    auto t0 = Clock::now();
    sim_.set_fast_forward(true);
    scenario::ClusterTestbedConfig bed;
    bed.hosts = kHosts;
    bed.vbd_mib = 32;
    bed.guest_mem_mib = 32;
    tb_ = std::make_unique<scenario::ClusterTestbed>(sim_, bed);
    for (int i = 0; i < kGuests; ++i) tb_->add_vm("vm" + std::to_string(i), 0);
    for (int h = 0; h < kHosts; ++h) {
      for (int c = 0; c < kColdVmsPerHost; ++c) {
        tb_->register_vm("cold" + std::to_string(h) + "." + std::to_string(c),
                         static_cast<std::size_t>(h));
      }
    }
    // The seed sets each guest's write burst (48..80 blocks per tick) and
    // which guests run the memory hogs.
    std::uint64_t s = seed_;
    writers_.reserve(kGuests);
    for (int i = 0; i < kGuests; ++i) {
      workload::SteadyWriterConfig wc;
      wc.blocks_per_tick = 48 + splitmix64(s) % 33;
      wc.until = sim::TimePoint::origin() + kLoadWindow;
      writers_.push_back(
          std::make_unique<workload::SteadyWriter>(sim_, guest(i), wc));
      writers_.back()->start();
    }
    std::vector<int> hog_guests;
    while (hog_guests.size() < static_cast<std::size_t>(kHogs)) {
      const int g = static_cast<int>(splitmix64(s) % kHogCandidates);
      if (std::find(hog_guests.begin(), hog_guests.end(), g) ==
          hog_guests.end()) {
        hog_guests.push_back(g);
      }
    }
    for (int g : hog_guests) {
      workload::MemoryHogParams hp;
      hp.hot_pages = 1024;
      hp.dirty_rate_pps = 4000.0;
      hogs_.push_back(std::make_unique<workload::MemoryHogWorkload>(
          sim_, guest(g), splitmix64(s), hp));
    }
    auto t1 = Clock::now();
    tb_->prefill_disks();
    auto t2 = Clock::now();
    cluster::OrchestratorConfig oc;
    oc.caps = {.per_source = 4, .per_dest = 2, .per_link = 1, .total = 16};
    oc.policy = cluster::SchedulePolicyKind::kFifo;
    oc.poll_interval = 50_ms;
    orch_ = std::make_unique<cluster::Orchestrator>(sim_, tb_->manager(), oc);
    orch_->submit_evacuation(tb_->host(0),
                             tb_->pick_destinations(0, kDestinations),
                             tb_->paper_migration_config());
    auto t3 = Clock::now();
    spans.build_ms = seconds_between(t0, t1) * 1e3;
    spans.prefill_ms = seconds_between(t1, t2) * 1e3;
    spans.submit_ms = seconds_between(t2, t3) * 1e3;
  }

  void prepare_checks() override {
    prefill_floor_ = ~storage::ContentToken{0};
    for (int i = 0; i < kGuests; ++i) {
      const auto& vbd = tb_->host(0).vbd_for(guest(i).id());
      prefill_floor_ = std::min(prefill_floor_, min_token(vbd.tokens()));
    }
  }

  // Orchestrator::drain() spawns run() and then runs the simulator;
  // run_round does the same, so a traced round can stop at phase bounds.
  void begin() override {
    for (auto& h : hogs_) h->start();
    sim_.spawn(stop_hogs(*this), "perfbench-hogs");
    sim_.spawn(orch_->run(), "perfbench-evacuation");
  }

  void collect(RoundResult& r) override {
    std::vector<std::string>& f = r.failures;
    hv::Host& h0 = tb_->host(0);
    Counters& c = r.counters;
    const std::size_t njobs = orch_->job_count();
    if (njobs != static_cast<std::size_t>(kGuests)) {
      f.push_back("evacuation submitted " + std::to_string(njobs) +
                  " jobs, want " + std::to_string(kGuests));
    }
    if (orch_->jobs_completed() != njobs) {
      f.push_back(std::to_string(njobs - orch_->jobs_completed()) +
                  " evacuation jobs did not complete");
    }
    if (!h0.domains().empty()) {
      f.push_back(std::to_string(h0.domains().size()) +
                  " guests left on host0");
    }
    std::vector<hv::Host*> hosts;  // materialized ones
    for (std::size_t i = 0; i < tb_->host_count(); ++i) {
      if (tb_->host_materialized(i)) hosts.push_back(&tb_->host(i));
    }
    std::size_t placed = 0;
    for (const hv::Host* h : hosts) placed += h->domains().size();
    if (placed + (tb_->vm_count() - tb_->materialized_vm_count()) !=
        tb_->vm_count()) {
      f.push_back("per-host VM counts do not sum to the registered total");
    }

    std::uint64_t mismatched = 0;
    std::uint64_t misplaced = 0;
    // Summed job durations per destination host.
    std::unordered_map<const hv::Host*, sim::Duration> busy;
    for (std::size_t id = 0; id < njobs; ++id) {
      const cluster::MigrationJob& j =
          orch_->job(static_cast<cluster::JobId>(id));
      const core::MigrationOutcome& o = j.outcome;
      r.outcomes.push_back(o);
      add_report(c, o.report);
      c.attempts += static_cast<std::uint64_t>(j.attempts);
      vm::Domain& d = *j.request.domain;
      hv::Host& to = *j.request.to;
      if (!to.hosts_domain(d)) ++misplaced;
      mismatched += diff_after_freeze(h0.vbd_for(d.id()).tokens(),
                                      to.vbd_for(d.id()).tokens(),
                                      prefill_floor_)
                        .mismatched;
      add_backend(c, h0.find_backend(d.id()));
      add_backend(c, to.find_backend(d.id()));
      c.disk_writes += h0.vbd_for(d.id()).write_count() +
                       to.vbd_for(d.id()).write_count();
      if (const net::Link* l = h0.find_link(to)) {
        check_downtime("job " + std::to_string(id), o.report,
                       bytes_per_second(*l), f);
      }
      busy[&to] = busy[&to] + o.report.total_time();
    }
    if (mismatched != 0) {
      f.push_back("evacuation: " + std::to_string(mismatched) +
                  " destination blocks differ from the frozen sources");
    }
    if (misplaced != 0) {
      f.push_back(std::to_string(misplaced) +
                  " guests are not on their destination");
    }
    // Jobs on one link run one at a time (per_link cap 1), so each link's
    // bytes must fit in the summed durations of the jobs that used it.
    for (hv::Host* h : hosts) {
      if (h == &h0) continue;
      for (const net::Link* l : {h0.find_link(*h), h->find_link(h0)}) {
        if (l == nullptr) continue;
        const double need = static_cast<double>(l->bytes_sent()) /
                            bytes_per_second(*l);
        if (busy[h].to_seconds() < need) {
          f.push_back("link host0<->" + h->name() +
                      " carried more bytes than its jobs' durations allow");
        }
      }
    }

    c.events = sim_.events_processed();
    c.end_ns = sim_.now().ns();
    for (const hv::Host* a : hosts) {
      for (const hv::Host* b : hosts) {
        if (a == b) continue;
        if (const net::Link* l = a->find_link(*b)) {
          c.net_bytes += l->bytes_sent();
          c.net_messages += l->messages_sent();
        }
      }
    }
    c.jobs = njobs;
    c.hosts_materialized = tb_->materialized_host_count();
    if (njobs > 0) {
      const core::MigrationReport& j0 = orch_->job(0).outcome.report;
      r.bounds = {j0.started,      j0.disk_precopy_done, j0.suspended,
                  j0.resumed,      j0.synchronized,      j0.synchronized,
                  j0.synchronized};
    }
  }

 private:
  vm::Domain& guest(int i) { return tb_->vm(static_cast<std::size_t>(i)); }

  static sim::Task<void> stop_hogs(EvacuationScenario& s) {
    co_await s.sim_.delay(kLoadWindow);
    for (auto& h : s.hogs_) {
      h->request_stop();
      co_await h->handle();
    }
  }

  std::uint64_t seed_;
  std::unique_ptr<scenario::ClusterTestbed> tb_;
  std::vector<std::unique_ptr<workload::SteadyWriter>> writers_;
  std::vector<std::unique_ptr<workload::Workload>> hogs_;
  std::unique_ptr<cluster::Orchestrator> orch_;
  storage::ContentToken prefill_floor_ = 0;
};

std::unique_ptr<Scenario> make_scenario(std::string_view name,
                                        std::uint64_t seed) {
  if (name == "paper_web_39g") {
    // Table I/II dynamic-web row on the paper's 39 070 MiB VBD.
    return std::make_unique<RoundtripScenario>(
        RoundtripSpec{.vbd_mib = 39070,
                      .bonnie = false,
                      .warmup = 60_s,
                      .back_at = sim::TimePoint::origin() + 1500_s,
                      .post = 30_s},
        seed);
  }
  if (name == "overnight_bonnie") {
    // Bonnie++ on a 4 GiB VBD, back home after two hours away.
    return std::make_unique<RoundtripScenario>(
        RoundtripSpec{.vbd_mib = 4096,
                      .bonnie = true,
                      .warmup = 60_s,
                      .back_at = sim::TimePoint::origin() + 7200_s,
                      .post = 30_s},
        seed);
  }
  if (name == "evacuate_10k") {
    return std::make_unique<EvacuationScenario>(seed);
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Rounds and results.

/// One round: build (timed as set-up from `setup_origin`), run to the end
/// (timed, minus the pauses for checks), collect and check. With `bounds`,
/// the run stops at each bound and charges host time per phase.
RoundResult run_round(std::string_view workload, std::uint64_t seed,
                      Clock::time_point setup_origin,
                      const PhaseBounds* bounds, obs::Profiler* profiler) {
  RoundResult r;
  std::unique_ptr<Scenario> sc = make_scenario(workload, seed);
  sc->build(r.spans);
  r.setup_s = seconds_between(setup_origin, Clock::now());
  sc->prepare_checks();

  // Stops in simulated-time order: phase bounds (index < kPhases) and
  // check points (index >= kPhases, offset by kPhases).
  std::vector<std::pair<sim::TimePoint, std::size_t>> stops;
  if (bounds != nullptr) {
    for (std::size_t i = 0; i < bounds->size(); ++i) {
      stops.emplace_back((*bounds)[i], i);
    }
  }
  const std::vector<sim::TimePoint> checks = sc->check_points();
  for (std::size_t i = 0; i < checks.size(); ++i) {
    stops.emplace_back(checks[i], kPhases.size() + i);
  }
  std::stable_sort(
      stops.begin(), stops.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });

  sim::Simulator& sim = sc->sim();
  std::size_t phase = 0;
  if (profiler != nullptr) profiler->activate();
  auto t = Clock::now();
  sc->begin();
  for (const auto& [at, what] : stops) {
    sim.run_until(at);
    const auto now = Clock::now();
    r.phase_s[phase] += seconds_between(t, now);
    if (what < kPhases.size()) {
      phase = what + 1;
      t = now;
    } else {
      sc->check_at(what - kPhases.size(), r.failures);
      t = Clock::now();
    }
  }
  sim.run();
  r.phase_s[phase] += seconds_between(t, Clock::now());
  if (profiler != nullptr) {
    obs::Profiler::deactivate();
    r.profile = profiler->flat_metrics();
  }
  for (double s : r.phase_s) r.run_s += s;

  sc->collect(r);
  return r;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double profile_value(const RoundResult& r, const std::string& key) {
  for (const auto& [k, v] : r.profile) {
    if (k == key) return v;
  }
  return 0.0;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Simulated seconds during which at least one migration was in progress.
double migration_seconds(const std::vector<core::MigrationOutcome>& outcomes) {
  std::vector<std::pair<std::int64_t, std::int64_t>> spans;
  spans.reserve(outcomes.size());
  for (const auto& o : outcomes) {
    spans.emplace_back(o.report.started.ns(), o.report.synchronized.ns());
  }
  std::sort(spans.begin(), spans.end());
  std::int64_t total = 0;
  std::int64_t end = std::numeric_limits<std::int64_t>::min();
  for (const auto& [a, b] : spans) {
    const std::int64_t from = std::max(a, end);
    if (b > from) total += b - from;
    end = std::max(end, b);
  }
  return static_cast<double>(total) * 1e-9;
}

double max_downtime_ms(const std::vector<core::MigrationOutcome>& outcomes) {
  double m = 0;
  for (const auto& o : outcomes) {
    m = std::max(m, o.report.downtime().to_millis());
  }
  return m;
}

struct Tally {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Prints every failed check. A run is correct when every round passed its
/// checks and simulated exactly what the first round did.
Tally tally(const std::vector<const RoundResult*>& rounds) {
  Tally t;
  const std::string fp0 = fingerprint(*rounds.front());
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const RoundResult& r = *rounds[i];
    for (const std::string& f : r.failures) {
      std::fprintf(stderr, "check failed (round %zu): %s\n", i, f.c_str());
    }
    t.correct = t.correct && r.failures.empty();
    if (i > 0 && fingerprint(r) != fp0) {
      std::fprintf(stderr, "check failed: round %zu simulated differently "
                           "from round 0\n", i);
      t.correct = false;
    }
    t.attempted += r.outcomes.size();
    t.failed += r.failed_migrations();
  }
  return t;
}

void print_counters(const RoundResult& r) {
  std::fprintf(stderr, "counters:");
  for (const auto& [name, v] : r.counters.items()) {
    std::fprintf(stderr, " %s=%llu", name, static_cast<unsigned long long>(v));
  }
  std::fprintf(stderr, "\n");
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload "
               "paper_web_39g|overnight_bonnie|evacuate_10k --seed N "
               "--seconds S --trace 0|1\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point t_start = Clock::now();
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a{argv[i]};
    if (i + 1 >= argc) return usage("missing value after a flag");
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') return usage("bad --seed");
    } else if (a == "--seconds") {
      seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(seconds > 0)) {
        return usage("bad --seconds");
      }
    } else if (a == "--trace") {
      if (std::string_view{v} != "0" && std::string_view{v} != "1") {
        return usage("--trace takes 0 or 1");
      }
      trace = std::string_view{v} == "1";
    } else {
      return usage("unknown flag");
    }
  }
  if (make_scenario(workload, seed) == nullptr) {
    return usage("unknown --workload");
  }

  if (!trace) {
    std::vector<RoundResult> rounds;
    do {
      rounds.push_back(run_round(workload, seed,
                                 rounds.empty() ? t_start : Clock::now(),
                                 nullptr, nullptr));
    } while (seconds_between(t_start, Clock::now()) < seconds);

    // Every round does the same work, so round-to-round differences are
    // interference from other load on the host, which only adds time: the
    // fastest round is the steadiest estimate of what the program costs.
    std::vector<const RoundResult*> all;
    double run_s = rounds.front().run_s;
    for (const RoundResult& r : rounds) {
      std::fprintf(stderr, "round %zu: setup %.3f s, run %.3f s\n", all.size(),
                   r.setup_s, r.run_s);
      all.push_back(&r);
      run_s = std::min(run_s, r.run_s);
    }
    const Tally tl = tally(all);
    const RoundResult& r0 = rounds.front();
    print_counters(r0);
    print_result(
        tl.correct, tl.attempted, tl.failed,
        {{"run_s", run_s, "s"},
         {"setup_s", r0.setup_s, "s"},
         {"peak_rss_mib", peak_rss_mib(), "MiB"},
         {"downtime_ms", max_downtime_ms(r0.outcomes), "ms"},
         {"migration_s", migration_seconds(r0.outcomes), "s"},
         {"migrated_mib", static_cast<double>(r0.counters.net_bytes) / kMiB,
          "MiB"}});
    return 0;
  }

  // Traced invocation: a cold untraced round fixes the phase bounds and the
  // set-up spans; the same round then runs under the profiler, stopping at
  // each bound, and once more untraced, so the tracing overhead compares
  // two warm rounds.
  const RoundResult u = run_round(workload, seed, t_start, nullptr, nullptr);
  obs::Profiler profiler;
  const RoundResult t =
      run_round(workload, seed, Clock::now(), &u.bounds, &profiler);
  const RoundResult w =
      run_round(workload, seed, Clock::now(), nullptr, nullptr);
  const Tally tl = tally({&u, &t, &w});
  std::fprintf(stderr,
               "run: %.3f s untraced cold, %.3f s traced, %.3f s untraced "
               "warm\n",
               u.run_s, t.run_s, w.run_s);
  print_counters(u);
  for (const auto& [k, v] : t.profile) {
    std::fprintf(stderr, "%s = %.6g\n", k.c_str(), v);
  }

  const Counters& c = u.counters;
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  std::vector<Metric> m = {
      {"scenario.build_ms", u.spans.build_ms, "ms"},
      {"storage.prefill_ms", u.spans.prefill_ms, "ms"},
      {"cluster.submit_ms", u.spans.submit_ms, "ms"},
      {"simcore.events", count(c.events), "count"},
      {"simcore.ns_per_event",
       c.events == 0 ? 0.0 : w.run_s * 1e9 / count(c.events), "ns"},
      {"net.bytes", count(c.net_bytes), "B"},
      {"net.messages", count(c.net_messages), "count"},
      {"storage.disk_writes", count(c.disk_writes), "count"},
      {"vm.guest_reads", count(c.guest_reads), "count"},
      {"vm.guest_writes", count(c.guest_writes), "count"},
      {"vm.dirty_marks", count(c.dirty_marks), "count"},
      {"core.disk_iterations", count(c.disk_iterations), "count"},
      {"core.blocks_first_pass", count(c.blocks_first_pass), "count"},
      {"core.blocks_retransferred", count(c.blocks_retransferred), "count"},
      {"core.blocks_postcopy", count(c.blocks_postcopy), "count"},
      {"core.pages_precopied", count(c.pages_precopied), "count"},
      {"core.report_excess_bytes",
       count(c.report_bytes) - count(c.net_bytes), "B"},
      {"cluster.jobs", count(c.jobs), "count"},
      {"cluster.attempts", count(c.attempts), "count"},
      {"cluster.hosts_materialized", count(c.hosts_materialized), "count"},
  };
  for (std::size_t i = 0; i < kPhases.size(); ++i) {
    m.push_back({std::string("phase.") + kPhases[i] + "_ms",
                 t.phase_s[i] * 1e3, "ms"});
  }
  for (const char* cat : {"sim_dispatch", "bitmap_scan", "bitmap_mark",
                          "disk_iteration", "postcopy_pull",
                          "orchestrator_tick", "other"}) {
    m.push_back({std::string("obs.prof.") + cat + "_ms",
                 profile_value(t, std::string("prof.") + cat + ".excl_ms"),
                 "ms"});
  }
  m.push_back({"obs.prof.unattributed_ms",
               t.run_s * 1e3 - profile_value(t, "prof.total_scoped_ms"),
               "ms"});
  m.push_back({"trace.overhead_s", t.run_s - w.run_s, "s"});
  print_result(tl.correct, tl.attempted, tl.failed, m);
  return 0;
}
