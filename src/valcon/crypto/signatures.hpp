// Simulated public-key infrastructure (PKI) and (k,n)-threshold signatures.
//
// The paper assumes a PKI in which faulty processes cannot forge signatures
// of correct processes (Section 3.1), and Quad / vector dissemination use a
// (n-t, n)-threshold signature scheme (Appendix B.3). Real asymmetric
// cryptography is irrelevant to any claim in the paper, so we substitute a
// registry-backed MAC construction:
//
//   sig(i, d)   = SHA256(secret_i || d)            -- per-process secret
//   tsig(d)     = SHA256(root_secret || k || d)    -- emitted only by combine()
//   agg(S, d)   = sum over i in S of sig(i, d)  (mod 2^64)
//
// Secrets never leave the registry; processes interact through a Signer
// handle bound to their own identity, so a Byzantine process implemented in
// this codebase is structurally unable to sign for anyone else. combine()
// refuses to emit a threshold signature unless presented with k valid partial
// signatures from k distinct signers, mirroring the real scheme's guarantee.
//
// The aggregatable scheme (VoterBitset + AggregateSignature) is the second
// backend: aggregate() folds any set of same-digest partials into one
// 64-bit aggregate MAC by modular addition — a pure function of the
// partials, mirroring BLS aggregation — and verify_aggregate() recomputes
// the expected sum over exactly the processes named by the bitset, so an
// inflated bitset or a tampered aggregate fails with one check instead of
// one check per vote. Quorum-certificate payloads (core/quorum.hpp) carry
// a (bitset, aggregate) pair where the per-vote scheme would carry a
// vector of Signatures.
//
// Both Signature and ThresholdSignature count as one "word" in communication
// accounting, matching the paper's convention (footnote 4); an
// AggregateSignature is one word plus the bitset's ceil(n/64) words.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "valcon/common.hpp"
#include "valcon/crypto/hash.hpp"

namespace valcon::crypto {

/// A digital signature by `signer` over `digest`.
struct Signature {
  ProcessId signer = -1;
  Hash digest;
  std::uint64_t mac = 0;

  bool operator==(const Signature&) const = default;
};

/// A combined (k, n)-threshold signature over `digest`.
struct ThresholdSignature {
  Hash digest;
  std::uint64_t mac = 0;

  bool operator==(const ThresholdSignature&) const = default;
};

/// Dense voter set for aggregate verification: bit i is process i, packed
/// into ceil(n/64) uint64 words. The capacity n travels with the bitset so
/// a verifier can reject a certificate whose voter universe does not match
/// its registry (a truncated or widened bitset is a forgery, not a format
/// variant).
class VoterBitset {
 public:
  VoterBitset() = default;
  /// Bitset over voter ids [0, n). Throws std::invalid_argument for n < 1.
  explicit VoterBitset(int n);

  /// The voter universe size the bitset was built for (0 when default-made).
  [[nodiscard]] int capacity() const { return n_; }

  /// Sets bit `id`. Throws std::out_of_range outside [0, capacity()).
  void set(ProcessId id);

  /// Tests bit `id`; ids outside [0, capacity()) read as false.
  [[nodiscard]] bool test(ProcessId id) const;

  /// Number of set bits.
  [[nodiscard]] int count() const;

  /// The packed words, for wire-size accounting (one word each).
  [[nodiscard]] const std::vector<std::uint64_t>& words() const {
    return words_;
  }

  bool operator==(const VoterBitset&) const = default;

 private:
  int n_ = 0;
  std::vector<std::uint64_t> words_;
};

/// One aggregated signature over `digest` by the processes named in a
/// companion VoterBitset. Valid only as a (bitset, aggregate) pair.
struct AggregateSignature {
  Hash digest;
  std::uint64_t mac = 0;

  bool operator==(const AggregateSignature&) const = default;
};

/// Folds partial signatures over one digest into an aggregate. Returns
/// nullopt for an empty input, mixed digests, or a duplicate signer —
/// aggregation never repairs a malformed vote set. The partials are NOT
/// verified here (aggregation is key-free, like BLS point addition);
/// soundness comes from verify_aggregate recomputing the sum under the
/// registry's keys.
[[nodiscard]] std::optional<AggregateSignature> aggregate(
    const std::vector<Signature>& partials);

/// Per-thread tally of signature checks, the unit the sweep bench reports
/// as verifies_per_decision. Every KeyRegistry verify path bumps exactly
/// one counter; run_universal snapshots the thread's counters around a run
/// (each sweep cell runs on one thread), so the delta is a deterministic
/// function of (configuration, seed) at any job count.
struct VerifyCounters {
  std::uint64_t signature = 0;
  std::uint64_t threshold = 0;
  std::uint64_t aggregate = 0;

  [[nodiscard]] std::uint64_t total() const {
    return signature + threshold + aggregate;
  }
};

/// The calling thread's verify tally (monotone; consumers take deltas).
[[nodiscard]] VerifyCounters& verify_counters();

/// A run's memo of computed MACs, so each (registry, signer, digest) MAC is
/// hashed once per run however often it is signed or checked. Entries are
/// keyed on the inputs of the MAC itself: the registry's seed (and, for
/// threshold MACs, its k), the signer and the digest. A registry is a pure
/// function of (n, k, seed), so two registries sharing those inputs share
/// MACs, and a registry freed and rebuilt at the same address can never
/// read another's entries. The memo holds only MACs the registry itself
/// computed: a presented signature is still compared against them, so a
/// forgery is rejected exactly as without the memo.
///
/// The memo is not shared: a Simulator owns one and opens a Scope around
/// its dispatch loop (like PayloadSlab::Scope), and KeyRegistry consults
/// the calling thread's current memo. Outside any scope every MAC is
/// computed directly. Per-run rather than per-registry or process-wide so
/// that registries stay immutable across threads and a run's hash count
/// does not depend on the runs before it.
class MacMemo {
 public:
  MacMemo() = default;
  MacMemo(const MacMemo&) = delete;
  MacMemo& operator=(const MacMemo&) = delete;

  /// Signer id under which threshold MACs are stored.
  static constexpr ProcessId kThreshold = -1;

  /// The MAC stored for the key, if any. `k` is 0 for signer MACs, which
  /// do not depend on the threshold.
  [[nodiscard]] std::optional<std::uint64_t> find(std::uint64_t seed, int k,
                                                  ProcessId signer,
                                                  const Hash& digest) const;
  /// Stores the MAC for a key that find() did not hold.
  void insert(std::uint64_t seed, int k, ProcessId signer, const Hash& digest,
              std::uint64_t mac);

  /// Number of MACs held.
  [[nodiscard]] std::size_t size() const { return size_; }

  /// The calling thread's memo (nullptr outside any Scope).
  [[nodiscard]] static MacMemo* current() { return t_current_; }

  /// Binds `memo` as the calling thread's memo for the enclosing scope;
  /// scopes nest and restore the outer memo on exit.
  class Scope {
   public:
    explicit Scope(MacMemo* memo) : prev_(t_current_) { t_current_ = memo; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { t_current_ = prev_; }

   private:
    MacMemo* prev_;
  };

 private:
  struct Entry {
    Hash digest;
    std::uint64_t seed = 0;
    std::uint64_t mac = 0;
    std::int32_t k = 0;
    ProcessId signer = 0;
    bool used = false;
  };

  /// Index of the key's slot, or of the empty slot where it would go.
  /// Pre: the table is not empty.
  [[nodiscard]] std::size_t probe(std::uint64_t seed, int k, ProcessId signer,
                                  const Hash& digest) const;

  static inline thread_local MacMemo* t_current_ = nullptr;

  std::vector<Entry> slots_;  // open addressing, power-of-two size
  std::size_t size_ = 0;
};

class Signer;

/// Holds every process's signing secret plus the threshold-scheme root.
/// One registry per simulated deployment. Per-process secrets are derived
/// lazily on first use — each is an independent pure function of
/// (seed, id), so a registry for n=1000 costs O(touched processes), not
/// O(n), which is what lets large-n committee scenarios share one registry
/// per (n, k, seed) without materializing a thousand keypairs up front.
/// Derivation is thread-safe (registries are shared across sweep worker
/// threads): a release/acquire ready flag guards each slot, and a racing
/// double-derivation writes the identical value.
class KeyRegistry {
 public:
  /// `k` is the combining threshold (the paper uses k = n - t).
  KeyRegistry(int n, int k, std::uint64_t seed);

  [[nodiscard]] int n() const { return n_; }
  [[nodiscard]] int threshold_k() const { return k_; }
  /// The seed the registry was generated from. A registry is an immutable
  /// pure function of (n, threshold_k, seed), which is what makes sharing
  /// one instance across simulators sound; the seed is kept so a consumer
  /// can verify it was handed the registry it asked for.
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Verifies an individual signature.
  [[nodiscard]] bool verify(const Signature& sig) const;

  /// Combines k valid partial signatures from distinct signers over the same
  /// digest into a threshold signature. Returns nullopt if the preconditions
  /// are not met (wrong count, duplicate signer, invalid partial, mixed
  /// digests).
  [[nodiscard]] std::optional<ThresholdSignature> combine(
      const std::vector<Signature>& partials) const;

  /// Verifies a combined threshold signature.
  [[nodiscard]] bool verify(const ThresholdSignature& tsig) const;

  /// Verifies an aggregate signature against exactly the voter set named by
  /// `voters`: recomputes the expected MAC sum over the set bits and
  /// compares once. False when the bitset's capacity is not this registry's
  /// n (mismatched voter universe), when the bitset is empty, or when the
  /// sum differs (inflated bitset, dropped voter, tampered aggregate).
  /// Thresholds are the caller's contract — see core::QuorumCollector.
  [[nodiscard]] bool verify_aggregate(const VoterBitset& voters,
                                      const AggregateSignature& agg) const;

  /// Returns the signer handle for process `id`. The handle only signs with
  /// `id`'s key: this is the structural unforgeability boundary.
  [[nodiscard]] Signer signer_for(ProcessId id) const;

  /// How many per-process secrets have been derived so far. Purely an
  /// observability hook for the laziness regression tests (a clean run that
  /// signs with c processes must derive exactly the secrets those paths
  /// touch); the count is monotone and approximate under concurrent first
  /// touches of the same slot.
  [[nodiscard]] std::uint64_t key_derivations() const {
    return derivations_.load(std::memory_order_relaxed);
  }

 private:
  friend class Signer;

  [[nodiscard]] std::uint64_t secret_for(ProcessId id) const;
  [[nodiscard]] std::uint64_t mac_for(ProcessId id, const Hash& digest) const;
  [[nodiscard]] std::uint64_t threshold_mac(const Hash& digest) const;

  /// One lazily derived secret: `ready` (release/acquire) publishes
  /// `value`. Racing derivations write the same bytes, so the worst case
  /// is redundant hashing, never a torn or divergent key.
  struct LazySecret {
    std::atomic<std::uint64_t> value{0};
    std::atomic<bool> ready{false};
  };

  int n_;
  int k_;
  std::uint64_t seed_;
  std::uint64_t root_secret_;
  mutable std::unique_ptr<LazySecret[]> secrets_;
  mutable std::atomic<std::uint64_t> derivations_{0};
};

/// Per-process signing capability.
class Signer {
 public:
  Signer(const KeyRegistry* registry, ProcessId id)
      : registry_(registry), id_(id) {}

  [[nodiscard]] ProcessId id() const { return id_; }
  [[nodiscard]] Signature sign(const Hash& digest) const;

 private:
  const KeyRegistry* registry_;
  ProcessId id_;
};

}  // namespace valcon::crypto
