// Link-time probes for the valbench benchmark.
//
// The benchmark observes the library only from outside. Both binaries
// interpose harness::run_universal (-Wl,--wrap) and add each run's public
// RunResult counters to per-thread totals, which the determinism check
// and the reconciliation read. The traced binary (VALBENCH_TRACED=1) also
// wraps the crypto, core, harness and sim entry points listed in
// CMakeLists.txt in timing spans. Interposition only sees calls that cross
// a translation unit, so the traced totals are reconciled against the
// public counters to expose what it misses.
//
// Totals are kept in thread-local blocks (a span costs two clock reads
// and a few adds, with no sharing between threads); a block is merged into
// a global sum when its thread exits. collect() and reset() must be
// called while no other thread of the benchmark is running.
#pragma once

#include <array>
#include <cstdint>

namespace valbench {

/// Message layers, by payload wire-type prefix (RunResult::by_type).
enum Layer : int {
  kBcast,      // brb/*, slow/*
  kConsensus,  // quad/ bin/ avc/ fvc/ dissem/ add/
  kCoreQc,     // core/quorum-cert
  kAnnounce,   // topo/announce
  kOtherLayer,
  kLayerCount,
};

/// Protocol stacks, indexed like harness::VcKind.
constexpr int kStackCount = 3;

struct Totals {
  // Public RunResult counters, summed at the run_universal boundary.
  std::uint64_t runs = 0;
  std::uint64_t decisions = 0;
  std::uint64_t messages_total = 0;
  std::uint64_t message_complexity = 0;
  std::uint64_t word_complexity = 0;
  std::uint64_t events = 0;
  std::uint64_t verifies_public = 0;  // RunResult::verifies_total
  std::uint64_t cut_runs = 0;         // !queue_drained
  std::array<std::uint64_t, kStackCount> stack_decisions{};

  // Traced binary only: RunResult::by_type folded into layers.
  std::array<std::uint64_t, kLayerCount> layer_messages{};

  // Traced binary only: interposed call counts.
  std::uint64_t hash_calls = 0;       // Hasher::finish
  std::uint64_t key_derivations = 0;  // Hasher("valcon/process-secret")
  std::uint64_t registry_roots = 0;   // Hasher("valcon/root-secret")
  std::uint64_t signs = 0;            // Signer::sign
  std::uint64_t verifies = 0;         // KeyRegistry::verify (both kinds)
  std::uint64_t aggregate_verifies = 0;
  std::uint64_t combines = 0;
  std::uint64_t lambda_calls = 0;
  std::uint64_t checks = 0;   // core::check_execution
  std::uint64_t decodes = 0;  // ScenarioMatrix::point_at
  std::uint64_t io_lines = 0; // io::outcome_line
  std::uint64_t sim_runs = 0;   // Simulator::run
  std::uint64_t sim_run_events = 0;

  // Traced binary only: span time in nanoseconds.
  double crypto_ns = 0;  // outermost crypto spans only
  double verify_ns = 0;  // verify + verify_aggregate, outermost
  double lambda_ns = 0;
  double check_ns = 0;
  double decode_ns = 0;
  double io_ns = 0;
  double run_universal_ns = 0;
  std::array<double, kStackCount> stack_ns{};  // run_universal span by stack
  double stack_self_ns = 0;  // run_universal minus crypto and lambda
  double sim_run_ns = 0;     // Simulator::run span

  void add(const Totals& o);
};

/// Sum of the blocks of every exited thread and of the calling thread.
[[nodiscard]] Totals collect();
/// Zeroes the calling thread's block and the merged sum of exited threads.
void reset();
/// Heap allocations counted by the traced binary's operator new (0 in the
/// plain binary).
[[nodiscard]] std::uint64_t heap_allocs();

}  // namespace valbench
