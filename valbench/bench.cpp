// valbench: one closed-loop workload per process, driven through valcon's
// public API. run.py builds this file twice (plain and traced, see
// CMakeLists.txt) and turns the raw record printed here into metrics.
//
//   valbench --workload NAME --seed N --seconds S
//
// Run from the repository root (the golden digest is read from
// tests/golden/full.sha256). Phases, in order:
//   1. golden gate: the pinned "full" sweep document (seeds 1-3) is rebuilt
//      with io::document_header / outcome_line / document_footer in a child
//      process and its SHA-256 compared with the golden digest;
//   2. setup repetition 0: build the workload's pool of units from the
//      seed and run its warm-up units;
//   3. timed phase: passes over the pool until S seconds have passed, with
//      the other setup repetitions spread between them. Every unit is
//      judged, failures are counted and never skipped, and every pass must
//      reproduce the first pass's exact counts.
//
// The record is one JSON line on stdout. Exit status: 0 when every gate
// passed, 1 when a gate failed (the record is still printed), 2 on usage
// errors.
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "probe.hpp"
#include "valcon/crypto/sha256.hpp"
#include "valcon/crypto/signatures.hpp"
#include "valcon/harness/sweep.hpp"
#include "valcon/harness/sweep_io.hpp"
#include "valcon/sim/component.hpp"
#include "valcon/sim/simulator.hpp"

using namespace valcon;
using namespace valcon::harness;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// splitmix64 finalizer.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The index-th seed in [1, 1e9] derived from `seed`. Every input the
/// benchmark generates is a chain of these from --seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t index) {
  return 1 + mix(mix(seed) ^ index) % 1000000000ULL;
}

/// Setup repetitions per run; repetition 0 builds the timed pool.
constexpr int kSetupReps = 11;

/// Outcome of one pass over a workload's pool of units.
struct PassResult {
  std::uint64_t units = 0;
  std::uint64_t decisions = 0;
  std::uint64_t messages = 0;  // simulated messages (messages_total)
  std::uint64_t events = 0;
  /// The paper's counts: messages and words sent by correct processes
  /// at or after GST.
  std::uint64_t message_complexity = 0;
  std::uint64_t words = 0;
  double wall_s = 0.0;
  std::vector<double> unit_ms;  // one latency sample per unit
};

/// Counts attempted and failed units; keeps the first few failure texts.
struct Gate {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> reasons;

  void judge(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (reasons.size() < 8) reasons.push_back(what);
  }
};

using RegistryKey = std::tuple<int, int, std::uint64_t>;  // (n, k, seed)

/// A workload owns a pool of units derived from a seed. Every timed pass
/// runs the whole pool, so passes differ only in how busy the
/// machine was while they ran.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds a pool from `seed` and runs its warm-up units (creating key
  /// registries, deriving keys, interning payload types). With `adopt`
  /// the new pool replaces the one pass() runs; otherwise it is dropped.
  virtual void setup(std::uint64_t seed, bool adopt, Gate& gate) = 0;
  /// One closed-loop pass over the adopted pool.
  virtual PassResult pass(Gate& gate) = 0;
  /// Key registries of the adopted pool, for reconciling traced key
  /// derivations with KeyRegistry::key_derivations(); empty when the
  /// workload cannot know them.
  [[nodiscard]] virtual std::vector<RegistryKey> registries() const {
    return {};
  }
};

/// Runs every cell of `matrix` in index order, as valcon_sweep does at
/// --jobs 1: decode, run and judge (run_point applies
/// core::check_execution to every cell), then render the outcome line.
PassResult run_cells(const ScenarioMatrix& matrix, Gate& gate) {
  PassResult result;
  const Clock::time_point pass_start = Clock::now();
  for (std::size_t index = 0; index < matrix.size(); ++index) {
    const Clock::time_point start = Clock::now();
    const SweepOutcome outcome = run_point(matrix.point_at(index));
    static_cast<void>(io::outcome_line(outcome));
    result.unit_ms.push_back(seconds_since(start) * 1e3);
    const bool ok = outcome.error.empty() && outcome.report.ok();
    std::string why;
    if (!ok) {
      why = outcome.point.label + ": " +
            (outcome.error.empty() ? "property violation" : outcome.error);
      for (const std::string& v : outcome.report.violations) why += "; " + v;
    }
    gate.judge(ok, why);
    ++result.units;
    result.decisions += outcome.result.decisions.size();
    result.messages += outcome.result.messages_total;
    result.events += outcome.result.events;
    result.message_complexity += outcome.result.message_complexity;
    result.words += outcome.result.word_complexity;
  }
  result.wall_s = seconds_since(pass_start);
  return result;
}

// ---------------------------------------------------------- committee-n1000

/// committee-7, auth stack, aggregate certificates, fault-free, unanimous
/// proposals at n=1000, t=333, over a pool of kPool derived seeds. Setup
/// runs every cell once, which creates the n=1000 registries and derives
/// the keys the cells touch.
class CommitteeN1000 final : public Workload {
 public:
  static constexpr int kN = 1000;
  static constexpr int kT = 333;
  static constexpr int kCommittee = 7;
  static constexpr std::uint64_t kPool = 16;

  void setup(std::uint64_t seed, bool adopt, Gate& gate) override {
    std::vector<std::uint64_t> pool;
    for (std::uint64_t i = 0; i < kPool; ++i) pool.push_back(derive(seed, i));
    ScenarioMatrix matrix =
        ScenarioMatrix()
            .vc_kinds({VcKind::kAuthenticated})
            .validities({ValidityKind::kStrong})
            .patterns({"unanimous"})
            .faults({FaultSpec{"silent", 0}})
            .sizes({{kN, kT}})
            .topologies({"committee-" + std::to_string(kCommittee)})
            .cert_modes({core::CertMode::kAggregate})
            .seeds(pool);
    static_cast<void>(run_cells(matrix, gate));
    if (adopt) {
      matrix_ = std::move(matrix);
      pool_ = std::move(pool);
    }
  }

  PassResult pass(Gate& gate) override { return run_cells(matrix_, gate); }

  [[nodiscard]] std::vector<RegistryKey> registries() const override {
    const int t_c = Topology::committee_fault_tolerance(kCommittee);
    std::vector<RegistryKey> out;
    for (const std::uint64_t s : pool_) {
      out.emplace_back(kN, kN - kT, s);
      out.emplace_back(kCommittee, kCommittee - t_c, s);
    }
    return out;
  }

 private:
  ScenarioMatrix matrix_;
  std::vector<std::uint64_t> pool_;
};

// ---------------------------------------------------------- full-mesh-sweep

/// The axes of the pinned "full" matrix (3 stacks x {Strong, Weak, Median,
/// ConvexHull} x fault-free and the four legacy strategies x {(4,1),
/// (7,2)} x GST {0, 5}) with one seed derived from --seed: 240 cells per
/// pass. Setup runs every cell once.
class FullMeshSweep final : public Workload {
 public:
  void setup(std::uint64_t seed, bool adopt, Gate& gate) override {
    const std::uint64_t cell_seed = derive(seed, 0);
    ScenarioMatrix matrix = named_matrix("full");
    matrix.seeds({cell_seed});
    static_cast<void>(run_cells(matrix, gate));
    if (adopt) {
      matrix_ = std::move(matrix);
      seed_ = cell_seed;
    }
  }

  PassResult pass(Gate& gate) override { return run_cells(matrix_, gate); }

  [[nodiscard]] std::vector<RegistryKey> registries() const override {
    return {{4, 3, seed_}, {7, 5, seed_}};
  }

 private:
  ScenarioMatrix matrix_;
  std::uint64_t seed_ = 0;
};

// ---------------------------------------------------------------- sim-storm

// A token-and-vote storm through a two-level Mux stack (the hot-path
// workload of bench_sweep): every delivered token triggers an all-to-all
// vote broadcast and is passed on around the ring. No crypto runs, so
// this is the simulator alone: event queue, network, Mux routing, payload
// slab and metrics.
const char* const kStormTypes[12] = {
    "storm/propose",     "storm/prepare-vote", "storm/commit-vote",
    "storm/view-change", "storm/precommit",    "storm/decide",
    "storm/epoch-over",  "storm/epoch-cert",   "storm/est",
    "storm/stored",      "storm/confirm",      "storm/echo"};

// valcon-lint: allow(payload-type) -- storm token interns 12 names by phase
struct Token final : sim::Payload {
  Token(int phase_in, bool vote_in) : phase(phase_in % 12), vote(vote_in) {}
  [[nodiscard]] const char* type_name() const override {
    return kStormTypes[phase];
  }
  [[nodiscard]] sim::PayloadTypeId type_id() const override {
    static const std::vector<sim::PayloadTypeId> ids = [] {
      std::vector<sim::PayloadTypeId> out;
      for (const char* name : kStormTypes) {
        out.push_back(sim::PayloadTypeRegistry::intern(name));
      }
      return out;
    }();
    return ids[static_cast<std::size_t>(phase)];
  }
  [[nodiscard]] std::size_t size_words() const override { return 2; }
  int phase;
  bool vote;
};

class StormCore final : public sim::Component {
 public:
  StormCore(int tokens, std::uint64_t* hops) : tokens_(tokens), hops_(hops) {}

  void on_start(sim::Context& ctx) override {
    next_ = (ctx.id() + 1) % ctx.n();
    for (int k = 0; k < tokens_; ++k) {
      ctx.send(next_, sim::make_payload<Token>(k, false));
    }
  }

  void on_message(sim::Context& ctx, ProcessId,
                  const sim::PayloadPtr& m) override {
    const auto* token = dynamic_cast<const Token*>(m.get());
    if (token == nullptr || token->vote) return;  // votes are absorbed
    ++received_;
    ++*hops_;
    ctx.broadcast(sim::make_payload<Token>(static_cast<int>(received_), true));
    ctx.send(next_,
             sim::make_payload<Token>(static_cast<int>(received_), false));
  }

 private:
  int tokens_;
  std::uint64_t* hops_;
  ProcessId next_ = 0;
  std::uint64_t received_ = 0;
};

class StormMid final : public sim::Mux {
 public:
  StormMid(int tokens, std::uint64_t* hops) {
    make_child<StormCore>(tokens, hops);
  }
};

class StormRoot final : public sim::Mux {
 public:
  StormRoot(int tokens, std::uint64_t* hops) {
    make_child<StormMid>(tokens, hops);
  }
};

/// n=8, 32 tokens, two-level Mux, over a pool of kPool derived network
/// seeds. One unit is one simulated message; one latency sample is one
/// storm run to a fixed simulated horizon. The storm's analogue of a
/// decision is a token hop (a delivered token, which triggers the next
/// vote wave).
class SimStorm final : public Workload {
 public:
  static constexpr int kN = 8;
  static constexpr int kTokensPerProcess = 4;
  static constexpr Time kHorizon = 250.0;
  static constexpr std::uint64_t kPool = 16;

  void setup(std::uint64_t seed, bool adopt, Gate& gate) override {
    std::vector<std::uint64_t> pool;
    for (std::uint64_t i = 0; i < kPool; ++i) {
      pool.push_back(derive(seed, i));
      static_cast<void>(storm(pool.back(), gate));
    }
    if (adopt) pool_ = std::move(pool);
  }

  PassResult pass(Gate& gate) override {
    PassResult result;
    for (const std::uint64_t seed : pool_) {
      const PassResult one = storm(seed, gate);
      result.units += one.units;
      result.decisions += one.decisions;
      result.messages += one.messages;
      result.events += one.events;
      result.message_complexity += one.message_complexity;
      result.words += one.words;
      result.wall_s += one.wall_s;
      result.unit_ms.push_back(one.wall_s * 1e3);
    }
    return result;
  }

 private:
  static PassResult storm(std::uint64_t seed, Gate& gate) {
    std::uint64_t hops = 0;
    sim::SimConfig cfg;
    cfg.n = kN;
    cfg.t = 0;
    cfg.seed = seed;
    cfg.net.gst = 0.0;
    cfg.net.delta = 1.0;
    PassResult result;
    const Clock::time_point start = Clock::now();
    sim::Simulator simulator(cfg);
    for (ProcessId p = 0; p < kN; ++p) {
      simulator.add_process(
          p, std::make_unique<sim::ComponentHost>(
                 std::make_unique<StormRoot>(kTokensPerProcess, &hops)));
    }
    result.events = simulator.run(kHorizon);
    result.wall_s = seconds_since(start);
    result.messages = simulator.metrics().messages_total();
    result.units = result.messages;
    result.decisions = hops;
    result.message_complexity = simulator.metrics().message_complexity();
    result.words = simulator.metrics().communication_complexity();
    // Each process starts kTokensPerProcess tokens; every hop sends one
    // vote to each of the n processes plus the token to the next one.
    const std::uint64_t expected =
        static_cast<std::uint64_t>(kN) * kTokensPerProcess +
        hops * (static_cast<std::uint64_t>(kN) + 1);
    gate.judge(hops > 0 && result.messages == expected &&
                   simulator.metrics().message_complexity() == expected,
               "storm seed " + std::to_string(seed) + ": " +
                   std::to_string(result.messages) + " messages for " +
                   std::to_string(hops) + " hops");
    return result;
  }

  std::vector<std::uint64_t> pool_;
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "committee-n1000") return std::make_unique<CommitteeN1000>();
  if (name == "full-mesh-sweep") return std::make_unique<FullMeshSweep>();
  if (name == "sim-storm") return std::make_unique<SimStorm>();
  return nullptr;
}

// ------------------------------------------------------------- golden gate

std::string hex(const crypto::Sha256::Digest& digest) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t byte : digest) {
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 0xf]);
  }
  return out;
}

/// Rebuilds the pinned full-matrix document exactly as valcon_sweep
/// writes it and returns its SHA-256 in hex.
std::string full_document_sha256() {
  const ScenarioMatrix matrix = named_matrix("full");
  const std::size_t total = matrix.size();
  std::ostringstream doc;
  io::document_header(doc, "full", std::nullopt, total);
  io::JsonSummary summary;
  SweepRunner(1).run_range(matrix, 0, total, [&](SweepOutcome&& o) {
    const std::string line = io::outcome_line(o);
    summary.add(io::parse_outcome_line(line));
    doc << line << (o.point.index + 1 < total ? ",\n" : "\n");
  });
  io::document_footer(doc, summary);
  const std::string text = doc.str();
  return hex(crypto::Sha256::hash(text.data(), text.size()));
}

/// full_document_sha256() in a child process, so that the gate's memory
/// does not count toward the workload's peak RSS. Called before any
/// thread starts.
std::string full_document_sha256_in_child() {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    std::string digest;
    try {
      digest = full_document_sha256();
    } catch (const std::exception& e) {
      digest = std::string("error: ") + e.what();
    }
    const bool written =
        write(fds[1], digest.data(), digest.size()) ==
        static_cast<ssize_t>(digest.size());
    _exit(written ? 0 : 1);
  }
  close(fds[1]);
  std::string digest;
  char buffer[256];
  for (ssize_t got; (got = read(fds[0], buffer, sizeof buffer)) > 0;) {
    digest.append(buffer, static_cast<std::size_t>(got));
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return "child failed: " + digest;
  }
  return digest;
}

std::string read_golden(const std::string& path) {
  std::ifstream in(path);
  std::string word;
  if (!(in >> word)) {
    throw std::runtime_error("cannot read golden digest " + path);
  }
  return word;
}

// ------------------------------------------------------------------ record

using Fingerprint = std::map<std::string, std::uint64_t>;

Fingerprint fingerprint(const PassResult& result, const valbench::Totals& t) {
  Fingerprint f{
      {"units", result.units},
      {"decisions", result.decisions},
      {"messages", result.messages},
      {"events", result.events},
      {"message_complexity", result.message_complexity},
      {"words", result.words},
      {"runs", t.runs},
      {"verifies_total", t.verifies_public},
  };
#if VALBENCH_TRACED
  // Registry set-up hashes depend on which registries the process has
  // already cached, so they are left out of the repeatable count.
  f["hash_calls"] = t.hash_calls - t.key_derivations - t.registry_roots;
  f["signs"] = t.signs;
  f["verifies_interposed"] = t.verifies + t.aggregate_verifies;
  f["lambda_calls"] = t.lambda_calls;
  f["checks"] = t.checks;
#endif
  return f;
}

void write_totals(std::ostream& os, const valbench::Totals& t) {
  os << "{\"runs\":" << t.runs << ",\"decisions\":" << t.decisions
     << ",\"messages_total\":" << t.messages_total
     << ",\"message_complexity\":" << t.message_complexity
     << ",\"word_complexity\":" << t.word_complexity
     << ",\"events\":" << t.events
     << ",\"verifies_public\":" << t.verifies_public
     << ",\"cut_runs\":" << t.cut_runs << ",\"stack_decisions\":["
     << t.stack_decisions[0] << "," << t.stack_decisions[1] << ","
     << t.stack_decisions[2] << "],\"layer_messages\":[";
  for (int i = 0; i < valbench::kLayerCount; ++i) {
    os << (i ? "," : "") << t.layer_messages[i];
  }
  os << "],\"hash_calls\":" << t.hash_calls
     << ",\"key_derivations\":" << t.key_derivations
     << ",\"registry_roots\":" << t.registry_roots
     << ",\"signs\":" << t.signs << ",\"verifies\":" << t.verifies
     << ",\"aggregate_verifies\":" << t.aggregate_verifies
     << ",\"combines\":" << t.combines
     << ",\"lambda_calls\":" << t.lambda_calls << ",\"checks\":" << t.checks
     << ",\"decodes\":" << t.decodes << ",\"io_lines\":" << t.io_lines
     << ",\"sim_runs\":" << t.sim_runs
     << ",\"sim_run_events\":" << t.sim_run_events
     << ",\"crypto_ns\":" << t.crypto_ns << ",\"verify_ns\":" << t.verify_ns
     << ",\"lambda_ns\":" << t.lambda_ns << ",\"check_ns\":" << t.check_ns
     << ",\"decode_ns\":" << t.decode_ns << ",\"io_ns\":" << t.io_ns
     << ",\"run_universal_ns\":" << t.run_universal_ns << ",\"stack_ns\":["
     << t.stack_ns[0] << "," << t.stack_ns[1] << "," << t.stack_ns[2]
     << "],\"stack_self_ns\":" << t.stack_self_ns
     << ",\"sim_run_ns\":" << t.sim_run_ns
     << "}";
}

void write_fingerprint(std::ostream& os, const Fingerprint& f) {
  os << "{";
  bool first = true;
  for (const auto& [key, value] : f) {
    os << (first ? "" : ",") << "\"" << key << "\":" << value;
    first = false;
  }
  os << "}";
}

volatile std::uint64_t g_pin_sink = 0;

/// Pins the process to the fastest of the CPUs it may use, each timed on a
/// fixed integer and memory kernel (best of three). On a shared host the
/// CPUs differ in speed while other tenants load them, and an unpinned run
/// migrates between them. Called before any thread starts.
void pin_to_fastest_cpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  std::vector<std::uint64_t> buffer(std::size_t{1} << 15);  // 256 KiB
  std::uint64_t sink = 0;
  std::vector<std::pair<double, int>> speed;  // (best seconds, cpu)
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) continue;
    double best = 1e9;
    for (int trial = 0; trial < 3; ++trial) {
      const Clock::time_point start = Clock::now();
      for (int round = 0; round < 32; ++round) {
        for (std::uint64_t& word : buffer) word = sink = mix(sink ^ word);
      }
      best = std::min(best, seconds_since(start));
    }
    speed.emplace_back(best, cpu);
  }
  cpu_set_t chosen = allowed;
  if (!speed.empty()) {
    CPU_ZERO(&chosen);
    CPU_SET(std::min_element(speed.begin(), speed.end())->second, &chosen);
  }
  g_pin_sink = sink;  // keeps the kernel from being optimised away
  static_cast<void>(sched_setaffinity(0, sizeof chosen, &chosen));
}

/// The process's peak resident set (VmHWM) in KiB. getrusage's ru_maxrss
/// is not used: on Linux it keeps the high-water mark of the image that
/// called exec, e.g. the Python process that launched this driver.
long peak_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      long kib = 0;
      status >> kib;
      return kib;
    }
    status.ignore(1 << 16, '\n');
  }
  return 0;
}

std::uint64_t public_derivations(const std::vector<RegistryKey>& triples) {
  std::uint64_t sum = 0;
  for (const auto& [n, k, seed] : triples) {
    sum += shared_key_registry(n, k, seed)->key_derivations();
  }
  return sum;
}

int usage() {
  std::cerr << "usage: valbench --workload NAME --seed N --seconds S\n"
               "workloads: committee-n1000 full-mesh-sweep sim-storm\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::optional<std::uint64_t> seed;
  double seconds = 0.0;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--workload") {
        workload_name = value;
      } else if (flag == "--seed") {
        seed = std::stoull(value);
      } else if (flag == "--seconds") {
        seconds = std::stod(value);
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (argc % 2 != 1 || !seed || !(seconds > 0)) {
    return usage();
  }
  std::unique_ptr<Workload> workload = make_workload(workload_name);
  if (!workload) return usage();
  Gate gate;
  pin_to_fastest_cpu();

  // Golden gate.
  const std::string golden = read_golden("tests/golden/full.sha256");
  const std::string actual = full_document_sha256_in_child();
  const bool golden_ok = actual == golden;

  // Setup repetition 0 builds the pool the timed passes run. The others
  // build pools that are dropped, and run spread over the timed phase, so
  // one slow spell of a shared machine cannot move every repetition.
  std::vector<double> setup_s;
  const auto setup_rep = [&](int rep) {
    valbench::reset();
    const Clock::time_point start = Clock::now();
    workload->setup(derive(*seed, static_cast<std::uint64_t>(rep)), rep == 0,
                    gate);
    setup_s.push_back(seconds_since(start));
  };
  setup_rep(0);
  const valbench::Totals setup_totals = valbench::collect();
  // Repetition 0's registries are new, so their counters are its
  // derivations.
  const std::uint64_t derivations_public =
      public_derivations(workload->registries());

  // Timed phase: passes over the pool. Every pass runs the same units, so
  // every pass must reproduce the first pass's exact counts.
  std::vector<PassResult> passes;
  std::vector<Fingerprint> fingerprints;
  valbench::Totals timed_totals;
  std::uint64_t heap_allocs = 0;
  std::uint64_t verify_counters = 0;
  int next_rep = 1;
  const Clock::time_point timed_start = Clock::now();
  for (;;) {
    const double elapsed = seconds_since(timed_start);
    if (passes.size() >= 3 && elapsed >= seconds) break;
    if (next_rep < kSetupReps && elapsed >= seconds * next_rep / kSetupReps) {
      setup_rep(next_rep++);
      continue;
    }
    valbench::reset();
    const std::uint64_t allocs_before = valbench::heap_allocs();
    const std::uint64_t verifies_before = crypto::verify_counters().total();
    passes.push_back(workload->pass(gate));
    heap_allocs += valbench::heap_allocs() - allocs_before;
    verify_counters += crypto::verify_counters().total() - verifies_before;
    const valbench::Totals pass_totals = valbench::collect();
    timed_totals.add(pass_totals);
    fingerprints.push_back(fingerprint(passes.back(), pass_totals));
  }
  const double timed_wall = seconds_since(timed_start);
  while (next_rep < kSetupReps) setup_rep(next_rep++);

  const long peak_rss_kb = peak_rss_kib();

  std::size_t mismatch = 0;
  for (std::size_t i = 1; i < fingerprints.size() && mismatch == 0; ++i) {
    if (fingerprints[i] != fingerprints[0]) mismatch = i;
  }
  const bool deterministic = mismatch == 0;
  const bool ok = golden_ok && deterministic && gate.failed == 0;

  std::ostringstream out;
  out.precision(12);
  out << "{\"workload\":\"" << workload_name << "\",\"seed\":" << *seed
      << ",\"traced\":" << VALBENCH_TRACED
      << ",\"golden_ok\":" << (golden_ok ? "true" : "false")
      << ",\"golden_expected\":\"" << golden << "\",\"golden_actual\":\""
      << actual << "\",\"deterministic\":"
      << (deterministic ? "true" : "false") << ",\"fingerprint\":";
  write_fingerprint(out, fingerprints[0]);
  out << ",\"fingerprint_repeat\":";
  write_fingerprint(out, fingerprints[mismatch == 0 ? 1 : mismatch]);
  out << ",\"setup_s\":[";
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    out << (i ? "," : "") << setup_s[i];
  }
  out << "],\"passes\":[";
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const PassResult& b = passes[i];
    out << (i ? "," : "") << "[" << b.units << "," << b.decisions << ","
        << b.messages << "," << b.events << "," << b.message_complexity
        << "," << b.words << "," << b.wall_s << ",[";
    for (std::size_t j = 0; j < b.unit_ms.size(); ++j) {
      out << (j ? "," : "") << b.unit_ms[j];
    }
    out << "]]";
  }
  out << "],\"timed_wall_s\":" << timed_wall
      << ",\"attempted\":" << gate.attempted << ",\"failed\":" << gate.failed
      << ",\"failures\":[";
  for (std::size_t i = 0; i < gate.reasons.size(); ++i) {
    out << (i ? "," : "") << "\"" << io::json_escape(gate.reasons[i]) << "\"";
  }
  out << "],\"peak_rss_kb\":" << peak_rss_kb
      << ",\"heap_allocs\":" << heap_allocs
      << ",\"verify_counters\":" << verify_counters
      << ",\"setup_derivations_public\":" << derivations_public
      << ",\"setup_totals\":";
  write_totals(out, setup_totals);
  out << ",\"timed_totals\":";
  write_totals(out, timed_totals);
  out << "}\n";
  std::cout << out.str();
  return ok ? 0 : 1;
}
