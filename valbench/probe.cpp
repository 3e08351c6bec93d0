// Interposed wrappers for the symbols listed in CMakeLists.txt. Each
// __wrap_X receives the calls that the linker redirected from X, and
// forwards to __real_X, the original definition. Member functions are
// declared here as free functions taking `this` first, which is how the
// Itanium C++ ABI passes it; the mangled names must match the library's.
#include "probe.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <map>
#include <new>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "valcon/core/execution_checker.hpp"
#include "valcon/crypto/signatures.hpp"
#include "valcon/harness/scenario.hpp"
#include "valcon/harness/sweep.hpp"
#include "valcon/sim/simulator.hpp"

using valcon::Value;
using valcon::core::InputConfig;
using valcon::core::LambdaFn;
using valcon::harness::RunResult;
using valcon::harness::ScenarioConfig;

namespace valbench {

void Totals::add(const Totals& o) {
  runs += o.runs;
  decisions += o.decisions;
  messages_total += o.messages_total;
  message_complexity += o.message_complexity;
  word_complexity += o.word_complexity;
  events += o.events;
  verifies_public += o.verifies_public;
  cut_runs += o.cut_runs;
  for (int i = 0; i < kStackCount; ++i) {
    stack_decisions[i] += o.stack_decisions[i];
    stack_ns[i] += o.stack_ns[i];
  }
  for (int i = 0; i < kLayerCount; ++i) layer_messages[i] += o.layer_messages[i];
  hash_calls += o.hash_calls;
  key_derivations += o.key_derivations;
  registry_roots += o.registry_roots;
  signs += o.signs;
  verifies += o.verifies;
  aggregate_verifies += o.aggregate_verifies;
  combines += o.combines;
  lambda_calls += o.lambda_calls;
  checks += o.checks;
  decodes += o.decodes;
  io_lines += o.io_lines;
  sim_runs += o.sim_runs;
  sim_run_events += o.sim_run_events;
  crypto_ns += o.crypto_ns;
  verify_ns += o.verify_ns;
  lambda_ns += o.lambda_ns;
  check_ns += o.check_ns;
  decode_ns += o.decode_ns;
  io_ns += o.io_ns;
  run_universal_ns += o.run_universal_ns;
  stack_self_ns += o.stack_self_ns;
  sim_run_ns += o.sim_run_ns;
}

namespace {

std::mutex g_mu;
Totals g_retired;  // guarded by g_mu
std::atomic<std::uint64_t> g_heap_allocs{0};

struct Block {
  Totals t;
  int crypto_depth = 0;
  Block() = default;
  Block(const Block&) = delete;
  Block& operator=(const Block&) = delete;
  ~Block() {
    const std::lock_guard<std::mutex> lock(g_mu);
    g_retired.add(t);
  }
};

thread_local Block tl;

using Clock = std::chrono::steady_clock;

double ns_since(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
      .count();
}

[[maybe_unused]] Layer layer_of(const std::string& type) {
  const std::string_view prefix =
      std::string_view(type).substr(0, type.find('/'));
  if (prefix == "brb" || prefix == "slow") return kBcast;
  if (prefix == "quad" || prefix == "bin" || prefix == "avc" ||
      prefix == "fvc" || prefix == "dissem" || prefix == "add") {
    return kConsensus;
  }
  if (prefix == "core") return kCoreQc;
  if (prefix == "topo") return kAnnounce;
  return kOtherLayer;
}

#if VALBENCH_TRACED
/// Times the outermost crypto call on this thread; nested crypto calls
/// (Hasher::finish inside verify) are counted by their wrappers but not
/// timed, so crypto_ns never double counts.
template <class F>
auto crypto_span(double Totals::*extra, F&& call) {
  Block& b = tl;
  if (b.crypto_depth > 0) return call();
  struct Depth {
    int& d;
    explicit Depth(int& depth) : d(depth) { ++d; }
    ~Depth() { --d; }
    Depth(const Depth&) = delete;
    Depth& operator=(const Depth&) = delete;
  } depth(b.crypto_depth);
  const Clock::time_point start = Clock::now();
  auto result = call();
  const double ns = ns_since(start);
  b.t.crypto_ns += ns;
  if (extra != nullptr) b.t.*extra += ns;
  return result;
}

/// Times a non-crypto span into `field`.
template <class F>
auto plain_span(double Totals::*field, F&& call) {
  const Clock::time_point start = Clock::now();
  auto result = call();
  tl.t.*field += ns_since(start);
  return result;
}
#endif

}  // namespace

Totals collect() {
  const std::lock_guard<std::mutex> lock(g_mu);
  Totals sum = g_retired;
  sum.add(tl.t);
  return sum;
}

void reset() {
  const std::lock_guard<std::mutex> lock(g_mu);
  g_retired = Totals{};
  tl.t = Totals{};
}

std::uint64_t heap_allocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

}  // namespace valbench

using valbench::tl;

// ------------------------------------------------------------ run_universal

extern "C" {
RunResult
__real__ZN6valcon7harness13run_universalERKNS0_14ScenarioConfigERKSt8functionIFlRKNS_4core11InputConfigEEE(
    const ScenarioConfig& cfg, const LambdaFn& lambda);

RunResult
__wrap__ZN6valcon7harness13run_universalERKNS0_14ScenarioConfigERKSt8functionIFlRKNS_4core11InputConfigEEE(
    const ScenarioConfig& cfg, const LambdaFn& lambda) {
#if VALBENCH_TRACED
  valbench::Totals& t = tl.t;
  const double crypto_before = t.crypto_ns;
  const double lambda_before = t.lambda_ns;
  const LambdaFn timed = [&lambda](const InputConfig& c) {
    valbench::Totals& lt = tl.t;
    ++lt.lambda_calls;
    const auto start = valbench::Clock::now();
    const Value v = lambda(c);
    lt.lambda_ns += valbench::ns_since(start);
    return v;
  };
  const auto start = valbench::Clock::now();
  RunResult r =
      __real__ZN6valcon7harness13run_universalERKNS0_14ScenarioConfigERKSt8functionIFlRKNS_4core11InputConfigEEE(
          cfg, timed);
  const double ns = valbench::ns_since(start);
  t.run_universal_ns += ns;
  t.stack_ns[static_cast<int>(cfg.vc)] += ns;
  t.stack_self_ns += ns - (t.crypto_ns - crypto_before) -
                     (t.lambda_ns - lambda_before);
  for (const auto& [type, count] : r.by_type) {
    t.layer_messages[valbench::layer_of(type)] += count;
  }
#else
  RunResult r =
      __real__ZN6valcon7harness13run_universalERKNS0_14ScenarioConfigERKSt8functionIFlRKNS_4core11InputConfigEEE(
          cfg, lambda);
  valbench::Totals& t = tl.t;
#endif
  ++t.runs;
  t.decisions += r.decisions.size();
  t.stack_decisions[static_cast<int>(cfg.vc)] += r.decisions.size();
  t.messages_total += r.messages_total;
  t.message_complexity += r.message_complexity;
  t.word_complexity += r.word_complexity;
  t.events += r.events;
  t.verifies_public += r.verifies_total;
  if (!r.queue_drained) ++t.cut_runs;
  return r;
}
}  // extern "C"

#if VALBENCH_TRACED

using valcon::crypto::AggregateSignature;
using valcon::crypto::Hash;
using valcon::crypto::Hasher;
using valcon::crypto::KeyRegistry;
using valcon::crypto::Signature;
using valcon::crypto::Signer;
using valcon::crypto::ThresholdSignature;
using valcon::crypto::VoterBitset;
using valcon::harness::ScenarioMatrix;
using valcon::harness::SweepOutcome;
using valcon::harness::SweepPoint;
using valbench::Totals;

// ------------------------------------------------------------ allocations

// Counts every heap allocation of the traced binary (sim.heap_allocs_per_
// message). GCC cannot see that the replaced operator new is malloc-based
// and flags the free() in operator delete as mismatched.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  valbench::g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  valbench::g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

extern "C" {

// ------------------------------------------------------------------ crypto

void __real__ZN6valcon6crypto6HasherC1ESt17basic_string_viewIcSt11char_traitsIcEE(
    Hasher* self, std::string_view domain);
void __wrap__ZN6valcon6crypto6HasherC1ESt17basic_string_viewIcSt11char_traitsIcEE(
    Hasher* self, std::string_view domain) {
  // KeyRegistry derives each per-process secret, and its threshold root,
  // from exactly one hasher in these domains (crypto/signatures.cpp).
  if (domain == "valcon/process-secret") ++tl.t.key_derivations;
  if (domain == "valcon/root-secret") ++tl.t.registry_roots;
  __real__ZN6valcon6crypto6HasherC1ESt17basic_string_viewIcSt11char_traitsIcEE(
      self, domain);
}

Hash __real__ZN6valcon6crypto6Hasher6finishEv(Hasher* self);
Hash __wrap__ZN6valcon6crypto6Hasher6finishEv(Hasher* self) {
  ++tl.t.hash_calls;
  return valbench::crypto_span(nullptr, [self] {
    return __real__ZN6valcon6crypto6Hasher6finishEv(self);
  });
}

Signature __real__ZNK6valcon6crypto6Signer4signERKNS0_4HashE(
    const Signer* self, const Hash& digest);
Signature __wrap__ZNK6valcon6crypto6Signer4signERKNS0_4HashE(
    const Signer* self, const Hash& digest) {
  ++tl.t.signs;
  return valbench::crypto_span(nullptr, [&] {
    return __real__ZNK6valcon6crypto6Signer4signERKNS0_4HashE(self, digest);
  });
}

bool __real__ZNK6valcon6crypto11KeyRegistry6verifyERKNS0_9SignatureE(
    const KeyRegistry* self, const Signature& sig);
bool __wrap__ZNK6valcon6crypto11KeyRegistry6verifyERKNS0_9SignatureE(
    const KeyRegistry* self, const Signature& sig) {
  ++tl.t.verifies;
  return valbench::crypto_span(&Totals::verify_ns, [&] {
    return __real__ZNK6valcon6crypto11KeyRegistry6verifyERKNS0_9SignatureE(
        self, sig);
  });
}

bool __real__ZNK6valcon6crypto11KeyRegistry6verifyERKNS0_18ThresholdSignatureE(
    const KeyRegistry* self, const ThresholdSignature& tsig);
bool __wrap__ZNK6valcon6crypto11KeyRegistry6verifyERKNS0_18ThresholdSignatureE(
    const KeyRegistry* self, const ThresholdSignature& tsig) {
  ++tl.t.verifies;
  return valbench::crypto_span(&Totals::verify_ns, [&] {
    return __real__ZNK6valcon6crypto11KeyRegistry6verifyERKNS0_18ThresholdSignatureE(
        self, tsig);
  });
}

bool __real__ZNK6valcon6crypto11KeyRegistry16verify_aggregateERKNS0_11VoterBitsetERKNS0_18AggregateSignatureE(
    const KeyRegistry* self, const VoterBitset& voters,
    const AggregateSignature& agg);
bool __wrap__ZNK6valcon6crypto11KeyRegistry16verify_aggregateERKNS0_11VoterBitsetERKNS0_18AggregateSignatureE(
    const KeyRegistry* self, const VoterBitset& voters,
    const AggregateSignature& agg) {
  ++tl.t.aggregate_verifies;
  return valbench::crypto_span(&Totals::verify_ns, [&] {
    return __real__ZNK6valcon6crypto11KeyRegistry16verify_aggregateERKNS0_11VoterBitsetERKNS0_18AggregateSignatureE(
        self, voters, agg);
  });
}

std::optional<ThresholdSignature>
__real__ZNK6valcon6crypto11KeyRegistry7combineERKSt6vectorINS0_9SignatureESaIS3_EE(
    const KeyRegistry* self, const std::vector<Signature>& partials);
std::optional<ThresholdSignature>
__wrap__ZNK6valcon6crypto11KeyRegistry7combineERKSt6vectorINS0_9SignatureESaIS3_EE(
    const KeyRegistry* self, const std::vector<Signature>& partials) {
  ++tl.t.combines;
  return valbench::crypto_span(nullptr, [&] {
    return __real__ZNK6valcon6crypto11KeyRegistry7combineERKSt6vectorINS0_9SignatureESaIS3_EE(
        self, partials);
  });
}

// -------------------------------------------------------------------- core

valcon::core::ExecutionReport
__real__ZN6valcon4core15check_executionERKNS0_16ValidityPropertyEiiRKSt6vectorIlSaIlEERKSt3setIiSt4lessIiESaIiEERKSt3mapIilSB_SaISt4pairIKilEEE(
    const valcon::core::ValidityProperty& val, int n, int t,
    const std::vector<Value>& proposals, const std::set<int>& faulty,
    const std::map<int, Value>& decisions);
valcon::core::ExecutionReport
__wrap__ZN6valcon4core15check_executionERKNS0_16ValidityPropertyEiiRKSt6vectorIlSaIlEERKSt3setIiSt4lessIiESaIiEERKSt3mapIilSB_SaISt4pairIKilEEE(
    const valcon::core::ValidityProperty& val, int n, int t,
    const std::vector<Value>& proposals, const std::set<int>& faulty,
    const std::map<int, Value>& decisions) {
  ++tl.t.checks;
  return valbench::plain_span(&Totals::check_ns, [&] {
    return __real__ZN6valcon4core15check_executionERKNS0_16ValidityPropertyEiiRKSt6vectorIlSaIlEERKSt3setIiSt4lessIiESaIiEERKSt3mapIilSB_SaISt4pairIKilEEE(
        val, n, t, proposals, faulty, decisions);
  });
}

// ----------------------------------------------------------------- harness

SweepPoint __real__ZNK6valcon7harness14ScenarioMatrix8point_atEm(
    const ScenarioMatrix* self, std::size_t index);
SweepPoint __wrap__ZNK6valcon7harness14ScenarioMatrix8point_atEm(
    const ScenarioMatrix* self, std::size_t index) {
  ++tl.t.decodes;
  return valbench::plain_span(&Totals::decode_ns, [&] {
    return __real__ZNK6valcon7harness14ScenarioMatrix8point_atEm(self, index);
  });
}

std::string __real__ZN6valcon7harness2io12outcome_lineB5cxx11ERKNS0_12SweepOutcomeE(
    const SweepOutcome& o);
std::string __wrap__ZN6valcon7harness2io12outcome_lineB5cxx11ERKNS0_12SweepOutcomeE(
    const SweepOutcome& o) {
  ++tl.t.io_lines;
  return valbench::plain_span(&Totals::io_ns, [&] {
    return __real__ZN6valcon7harness2io12outcome_lineB5cxx11ERKNS0_12SweepOutcomeE(
        o);
  });
}

// --------------------------------------------------------------------- sim

std::uint64_t __real__ZN6valcon3sim9Simulator3runEd(valcon::sim::Simulator* self,
                                                    valcon::Time horizon);
std::uint64_t __wrap__ZN6valcon3sim9Simulator3runEd(valcon::sim::Simulator* self,
                                                    valcon::Time horizon) {
  ++tl.t.sim_runs;
  const std::uint64_t events = valbench::plain_span(&Totals::sim_run_ns, [&] {
    return __real__ZN6valcon3sim9Simulator3runEd(self, horizon);
  });
  tl.t.sim_run_events += events;
  return events;
}

}  // extern "C"

#endif  // VALBENCH_TRACED
