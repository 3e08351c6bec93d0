#include "valcon/crypto/signatures.hpp"

#include <bit>
#include <stdexcept>
#include <unordered_set>

namespace valcon::crypto {

namespace {

std::uint64_t truncate(const Hash& h) {
  std::uint64_t out = 0;
  for (std::size_t i = 0; i < 8; ++i) out = (out << 8) | h.bytes[i];
  return out;
}

/// `compute()`, through the calling thread's MacMemo when one is installed.
template <typename Compute>
std::uint64_t memoized(std::uint64_t seed, int k, ProcessId signer,
                       const Hash& digest, Compute compute) {
  MacMemo* memo = MacMemo::current();
  if (memo == nullptr) return compute();
  if (const auto mac = memo->find(seed, k, signer, digest)) return *mac;
  const std::uint64_t mac = compute();
  memo->insert(seed, k, signer, digest, mac);
  return mac;
}

}  // namespace

VoterBitset::VoterBitset(int n) : n_(n) {
  if (n < 1) throw std::invalid_argument("VoterBitset: need n >= 1");
  words_.assign((static_cast<std::size_t>(n) + 63) / 64, 0);
}

void VoterBitset::set(ProcessId id) {
  if (id < 0 || id >= n_) {
    throw std::out_of_range("VoterBitset::set: id outside [0, n)");
  }
  words_[static_cast<std::size_t>(id) / 64] |=
      std::uint64_t{1} << (static_cast<std::size_t>(id) % 64);
}

bool VoterBitset::test(ProcessId id) const {
  if (id < 0 || id >= n_) return false;
  return (words_[static_cast<std::size_t>(id) / 64] >>
          (static_cast<std::size_t>(id) % 64)) &
         1;
}

int VoterBitset::count() const {
  int total = 0;
  for (const std::uint64_t word : words_) {
    total += std::popcount(word);
  }
  return total;
}

std::optional<AggregateSignature> aggregate(
    const std::vector<Signature>& partials) {
  if (partials.empty()) return std::nullopt;
  const Hash& digest = partials.front().digest;
  std::unordered_set<ProcessId> seen;
  std::uint64_t sum = 0;
  for (const Signature& partial : partials) {
    if (partial.digest != digest) return std::nullopt;
    if (!seen.insert(partial.signer).second) return std::nullopt;
    sum += partial.mac;  // mod 2^64 by unsigned wraparound
  }
  return AggregateSignature{digest, sum};
}

std::size_t MacMemo::probe(std::uint64_t seed, int k, ProcessId signer,
                           const Hash& digest) const {
  // Digests are uniformly distributed, so their leading bytes mixed with
  // the rest of the key make a good slot hash.
  const std::uint64_t h =
      truncate(digest) ^ (seed * 0x9e3779b97f4a7c15ULL) ^
      (static_cast<std::uint64_t>(signer) * 0xc2b2ae3d27d4eb4fULL) ^
      static_cast<std::uint64_t>(k);
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = h & mask;; i = (i + 1) & mask) {
    const Entry& e = slots_[i];
    if (!e.used || (e.digest == digest && e.signer == signer &&
                    e.seed == seed && e.k == k)) {
      return i;
    }
  }
}

std::optional<std::uint64_t> MacMemo::find(std::uint64_t seed, int k,
                                           ProcessId signer,
                                           const Hash& digest) const {
  if (size_ == 0) return std::nullopt;
  const Entry& e = slots_[probe(seed, k, signer, digest)];
  if (!e.used) return std::nullopt;
  return e.mac;
}

void MacMemo::insert(std::uint64_t seed, int k, ProcessId signer,
                     const Hash& digest, std::uint64_t mac) {
  // Load factor at most 1/2 keeps probe sequences short.
  if (2 * (size_ + 1) > slots_.size()) {
    std::vector<Entry> old(slots_.empty() ? 64 : 2 * slots_.size());
    old.swap(slots_);
    for (const Entry& e : old) {
      if (e.used) slots_[probe(e.seed, e.k, e.signer, e.digest)] = e;
    }
  }
  Entry& e = slots_[probe(seed, k, signer, digest)];
  if (e.used) return;
  e = Entry{digest, seed, mac, k, signer, true};
  ++size_;
}

VerifyCounters& verify_counters() {
  thread_local VerifyCounters counters;
  return counters;
}

KeyRegistry::KeyRegistry(int n, int k, std::uint64_t seed)
    : n_(n), k_(k), seed_(seed) {
  root_secret_ =
      truncate(Hasher("valcon/root-secret").add(seed).finish());
  // Per-process secrets are derived on first use (secret_for); the slot
  // array is value-initialized (atomics zeroed, ready=false) and that is
  // the only O(n) cost a registry pays up front.
  secrets_ = std::make_unique<LazySecret[]>(static_cast<std::size_t>(n));
}

std::uint64_t KeyRegistry::secret_for(ProcessId id) const {
  LazySecret& slot = secrets_[static_cast<std::size_t>(id)];
  if (slot.ready.load(std::memory_order_acquire)) {
    return slot.value.load(std::memory_order_relaxed);
  }
  const std::uint64_t secret = truncate(
      Hasher("valcon/process-secret").add(seed_).add(id).finish());
  slot.value.store(secret, std::memory_order_relaxed);
  slot.ready.store(true, std::memory_order_release);
  derivations_.fetch_add(1, std::memory_order_relaxed);
  return secret;
}

std::uint64_t KeyRegistry::mac_for(ProcessId id, const Hash& digest) const {
  return memoized(seed_, 0, id, digest, [&] {
    return truncate(
        Hasher("valcon/sig").add(secret_for(id)).add(digest).finish());
  });
}

std::uint64_t KeyRegistry::threshold_mac(const Hash& digest) const {
  return memoized(seed_, k_, MacMemo::kThreshold, digest, [&] {
    return truncate(Hasher("valcon/tsig")
                        .add(root_secret_)
                        .add(static_cast<std::int64_t>(k_))
                        .add(digest)
                        .finish());
  });
}

bool KeyRegistry::verify(const Signature& sig) const {
  ++verify_counters().signature;
  if (sig.signer < 0 || sig.signer >= n_) return false;
  return sig.mac == mac_for(sig.signer, sig.digest);
}

std::optional<ThresholdSignature> KeyRegistry::combine(
    const std::vector<Signature>& partials) const {
  if (static_cast<int>(partials.size()) < k_) return std::nullopt;
  std::unordered_set<ProcessId> seen;
  const Hash& digest = partials.front().digest;
  for (const Signature& partial : partials) {
    if (partial.digest != digest) return std::nullopt;
    if (!verify(partial)) return std::nullopt;
    if (!seen.insert(partial.signer).second) return std::nullopt;
  }
  if (static_cast<int>(seen.size()) < k_) return std::nullopt;
  return ThresholdSignature{digest, threshold_mac(digest)};
}

bool KeyRegistry::verify(const ThresholdSignature& tsig) const {
  ++verify_counters().threshold;
  return tsig.mac == threshold_mac(tsig.digest);
}

bool KeyRegistry::verify_aggregate(const VoterBitset& voters,
                                   const AggregateSignature& agg) const {
  ++verify_counters().aggregate;
  if (voters.capacity() != n_) return false;
  std::uint64_t expected = 0;
  int set_bits = 0;
  for (ProcessId id = 0; id < n_; ++id) {
    if (!voters.test(id)) continue;
    expected += mac_for(id, agg.digest);  // mod 2^64, mirroring aggregate()
    ++set_bits;
  }
  if (set_bits == 0) return false;
  return agg.mac == expected;
}

Signer KeyRegistry::signer_for(ProcessId id) const {
  return Signer(this, id);
}

Signature Signer::sign(const Hash& digest) const {
  return Signature{id_, digest, registry_->mac_for(id_, digest)};
}

}  // namespace valcon::crypto
