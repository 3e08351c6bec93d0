// Hashing once: the per-run MAC memo (crypto::MacMemo) and the digests that
// payloads compute when they are built. The memo must never change what a
// check answers — a forgery is rejected with a warm memo exactly as without
// one — and every cached digest must equal a fresh recomputation.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "valcon/bcast/brb.hpp"
#include "valcon/consensus/auth_vector_consensus.hpp"
#include "valcon/consensus/fast_vector_consensus.hpp"
#include "valcon/core/lambda.hpp"
#include "valcon/core/validity.hpp"
#include "valcon/crypto/signatures.hpp"
#include "valcon/harness/scenario.hpp"
#include "valcon/harness/strategy.hpp"
#include "valcon/sim/component.hpp"
#include "valcon/sim/simulator.hpp"

using namespace valcon;
using crypto::AggregateSignature;
using crypto::Hash;
using crypto::Hasher;
using crypto::KeyRegistry;
using crypto::MacMemo;
using crypto::Signature;
using crypto::VoterBitset;

namespace {

Hash digest_of(std::int64_t x) {
  return Hasher("valcon/test-hash-once").add(x).finish();
}

VoterBitset voters(int n, const std::vector<ProcessId>& ids) {
  VoterBitset bits(n);
  for (const ProcessId id : ids) bits.set(id);
  return bits;
}

}  // namespace

// ------------------------------------------------------------- the memo

TEST(MacMemo, ScopesNestAndRestoreTheOuterMemo) {
  EXPECT_EQ(MacMemo::current(), nullptr);
  MacMemo outer;
  MacMemo inner;
  {
    const MacMemo::Scope outer_scope(&outer);
    EXPECT_EQ(MacMemo::current(), &outer);
    {
      const MacMemo::Scope inner_scope(&inner);
      EXPECT_EQ(MacMemo::current(), &inner);
    }
    EXPECT_EQ(MacMemo::current(), &outer);
  }
  EXPECT_EQ(MacMemo::current(), nullptr);
}

TEST(MacMemo, HoldsOneEntryPerSignerAndDigest) {
  const KeyRegistry keys(4, 3, 7);
  MacMemo memo;
  const MacMemo::Scope scope(&memo);
  const Signature sig = keys.signer_for(1).sign(digest_of(1));
  EXPECT_EQ(memo.size(), 1u);
  EXPECT_TRUE(keys.verify(sig));
  EXPECT_TRUE(keys.verify(sig));
  EXPECT_EQ(memo.size(), 1u) << "a repeated check must hit the memo";
  static_cast<void>(keys.signer_for(2).sign(digest_of(1)));
  static_cast<void>(keys.signer_for(1).sign(digest_of(2)));
  EXPECT_EQ(memo.size(), 3u);
}

TEST(MacMemo, MemoizedMacsEqualDirectComputation) {
  // Enough keys to grow the table several times.
  const KeyRegistry keys(16, 11, 3);
  std::vector<Signature> direct;
  for (ProcessId p = 0; p < 16; ++p) {
    for (std::int64_t d = 0; d < 40; ++d) {
      direct.push_back(keys.signer_for(p).sign(digest_of(d)));
    }
  }
  MacMemo memo;
  const MacMemo::Scope scope(&memo);
  for (int pass = 0; pass < 2; ++pass) {
    std::size_t i = 0;
    for (ProcessId p = 0; p < 16; ++p) {
      for (std::int64_t d = 0; d < 40; ++d, ++i) {
        EXPECT_EQ(keys.signer_for(p).sign(digest_of(d)), direct[i]);
        EXPECT_TRUE(keys.verify(direct[i]));
      }
    }
  }
  EXPECT_EQ(memo.size(), direct.size());
}

TEST(MacMemo, ForgedMacForAMemoizedKeyIsRejected) {
  const KeyRegistry keys(4, 3, 11);
  MacMemo memo;
  const MacMemo::Scope scope(&memo);
  const Hash d = digest_of(5);
  const Signature sig = keys.signer_for(2).sign(d);
  ASSERT_TRUE(keys.verify(sig));  // (2, d) is now memoized

  Signature forged = sig;
  forged.mac ^= 1;
  EXPECT_FALSE(keys.verify(forged));
  // The memoized MAC under another signer's name.
  EXPECT_FALSE(keys.verify(Signature{1, d, sig.mac}));
  EXPECT_FALSE(keys.verify(Signature{7, d, sig.mac}));  // outside [0, n)
  EXPECT_TRUE(keys.verify(sig));

  // Threshold signatures: combine memoizes the MAC, a forgery still fails.
  std::vector<Signature> partials;
  for (ProcessId p = 0; p < 3; ++p) {
    partials.push_back(keys.signer_for(p).sign(d));
  }
  const auto tsig = keys.combine(partials);
  ASSERT_TRUE(tsig.has_value());
  ASSERT_TRUE(keys.verify(*tsig));
  crypto::ThresholdSignature forged_tsig = *tsig;
  forged_tsig.mac += 1;
  EXPECT_FALSE(keys.verify(forged_tsig));
  EXPECT_FALSE(
      keys.verify(crypto::ThresholdSignature{digest_of(6), tsig->mac}));
}

TEST(MacMemo, TamperedOrInflatedAggregateIsRejectedWithAWarmMemo) {
  const int n = 7;
  const KeyRegistry keys(n, 5, 13);
  MacMemo memo;
  const MacMemo::Scope scope(&memo);
  const Hash d = digest_of(9);
  std::vector<Signature> partials;
  for (ProcessId p = 0; p < 5; ++p) {
    partials.push_back(keys.signer_for(p).sign(d));
  }
  const auto agg = crypto::aggregate(partials);
  ASSERT_TRUE(agg.has_value());
  const VoterBitset honest = voters(n, {0, 1, 2, 3, 4});
  ASSERT_TRUE(keys.verify_aggregate(honest, *agg));
  // Warm every voter's MAC, including ones outside the honest set.
  for (ProcessId p = 0; p < n; ++p) {
    static_cast<void>(keys.signer_for(p).sign(d));
  }

  AggregateSignature tampered = *agg;
  tampered.mac += 1;
  EXPECT_FALSE(keys.verify_aggregate(honest, tampered));
  EXPECT_FALSE(keys.verify_aggregate(voters(n, {0, 1, 2, 3, 4, 5}), *agg));
  EXPECT_FALSE(keys.verify_aggregate(voters(n, {0, 1, 2, 3}), *agg));
  EXPECT_FALSE(keys.verify_aggregate(voters(n, {0, 1, 2, 3, 5}), *agg));
  EXPECT_FALSE(keys.verify_aggregate(VoterBitset(n), *agg));
  EXPECT_FALSE(keys.verify_aggregate(voters(n + 1, {0, 1, 2, 3, 4}), *agg));
  AggregateSignature moved = *agg;
  moved.digest = digest_of(10);
  EXPECT_FALSE(keys.verify_aggregate(honest, moved));
  EXPECT_TRUE(keys.verify_aggregate(honest, *agg));
}

TEST(MacMemo, RegistriesSharingAMemoKeepTheirOwnMacs) {
  const KeyRegistry a(4, 3, 1);
  const KeyRegistry other_seed(4, 3, 2);
  const KeyRegistry other_k(4, 2, 1);
  const Hash d = digest_of(3);
  std::vector<Signature> partials;
  for (ProcessId p = 0; p < 3; ++p) {
    partials.push_back(a.signer_for(p).sign(d));
  }
  // Expected answers, computed without any memo.
  const bool seed_accepts = other_seed.verify(partials[0]);
  const bool k_accepts = other_k.verify(partials[0]);
  const auto tsig_a = a.combine(partials);
  const auto tsig_k = other_k.combine(partials);
  ASSERT_TRUE(tsig_a.has_value());
  ASSERT_TRUE(tsig_k.has_value());
  ASSERT_NE(tsig_a->mac, tsig_k->mac) << "k is part of the threshold MAC";

  MacMemo memo;
  const MacMemo::Scope scope(&memo);
  ASSERT_TRUE(a.verify(partials[0]));
  ASSERT_TRUE(a.verify(*tsig_a));
  EXPECT_EQ(other_seed.verify(partials[0]), seed_accepts);
  EXPECT_FALSE(seed_accepts);
  EXPECT_EQ(other_k.verify(partials[0]), k_accepts);
  EXPECT_EQ(a.combine(partials), tsig_a);
  EXPECT_EQ(other_k.combine(partials), tsig_k);
  EXPECT_FALSE(other_k.verify(*tsig_a));
  EXPECT_FALSE(a.verify(*tsig_k));
  EXPECT_FALSE(other_seed.verify(*tsig_a));
}

TEST(MacMemo, VerifyOutsideAnyScopeBehavesAsBefore) {
  ASSERT_EQ(MacMemo::current(), nullptr);
  const KeyRegistry keys(4, 3, 21);
  MacMemo unused;  // not installed: must stay empty
  const Hash d = digest_of(4);
  const Signature sig = keys.signer_for(0).sign(d);
  Signature forged = sig;
  forged.mac ^= 0x80;

  const crypto::VerifyCounters before = crypto::verify_counters();
  EXPECT_TRUE(keys.verify(sig));
  EXPECT_FALSE(keys.verify(forged));
  EXPECT_EQ(crypto::verify_counters().signature - before.signature, 2u);
  EXPECT_EQ(unused.size(), 0u);

  // Same answers, and the same verify tally, with a memo installed.
  MacMemo memo;
  const MacMemo::Scope scope(&memo);
  const crypto::VerifyCounters warm = crypto::verify_counters();
  EXPECT_EQ(keys.signer_for(0).sign(d), sig);
  EXPECT_TRUE(keys.verify(sig));
  EXPECT_FALSE(keys.verify(forged));
  EXPECT_EQ(crypto::verify_counters().signature - warm.signature, 2u);
}

namespace {

/// Records, at start, which memo the simulator installed.
class MemoProbe final : public sim::Process {
 public:
  explicit MemoProbe(const MacMemo** seen) : seen_(seen) {}
  void on_start(sim::Context&) override { *seen_ = MacMemo::current(); }

 private:
  const MacMemo** seen_;
};

}  // namespace

TEST(MacMemo, SimulatorInstallsItsMemoOnlyWhileDispatching) {
  for (const bool stepwise : {false, true}) {
    sim::SimConfig cfg;
    cfg.n = 1;
    cfg.t = 0;
    sim::Simulator simulator(cfg);
    const MacMemo* seen = nullptr;
    simulator.add_process(0, std::make_unique<MemoProbe>(&seen));
    if (stepwise) {
      while (simulator.step()) {
      }
    } else {
      simulator.run();
    }
    EXPECT_NE(seen, nullptr) << "stepwise=" << stepwise;
    EXPECT_EQ(MacMemo::current(), nullptr);
  }
}

// ----------------------------------------------------- cached digests

TEST(CachedDigests, BrbMessagesCarryTheirContentDigest) {
  using Msg = bcast::ReliableBroadcast::Msg;
  const bcast::ReliableBroadcast::Content content = {1, 2, 3, 250};
  const Hash expected =
      Hasher("valcon/brb-content").add_bytes(content).finish();
  EXPECT_EQ(bcast::ReliableBroadcast::content_digest(content), expected);

  const Msg send(Msg::Kind::kSend, content, 2);
  EXPECT_EQ(send.digest, expected);
  const Msg echo(Msg::Kind::kEcho, send, 3);
  EXPECT_EQ(echo.content, content);
  EXPECT_EQ(echo.digest, expected);
  EXPECT_EQ(echo.size_words(), 3u);
  const Msg empty(Msg::Kind::kReady, bcast::ReliableBroadcast::Content{}, 1);
  EXPECT_EQ(empty.digest, bcast::ReliableBroadcast::content_digest({}));
  EXPECT_NE(empty.digest, expected);
}

TEST(CachedDigests, VectorProposalsCarryTheirProposalDigest) {
  const KeyRegistry keys(4, 3, 5);
  const Signature sig =
      keys.signer_for(2).sign(consensus::proposal_digest(2, 9));
  const consensus::AuthVectorConsensus::MProposal auth(9, sig);
  const consensus::FastVectorConsensus::MProposal fast(9, sig);
  EXPECT_EQ(auth.digest, consensus::proposal_digest(2, 9));
  EXPECT_EQ(fast.digest, consensus::proposal_digest(2, 9));
  EXPECT_EQ(auth.digest, sig.digest);
  // A signature over another value: the cached digest follows the value
  // carried, so the receiver's comparison fails.
  const consensus::AuthVectorConsensus::MProposal mismatched(8, sig);
  EXPECT_NE(mismatched.digest, sig.digest);
  EXPECT_EQ(mismatched.digest, consensus::proposal_digest(2, 8));
}

TEST(CachedDigests, QuadProposalsComputeDigestsAtConstruction) {
  const int n = 4;
  const KeyRegistry keys(n, 3, 17);
  core::InputConfig vec(n);
  std::vector<Signature> proofs;
  for (const ProcessId p : {0, 2, 3}) {
    const Value v = 10 + p;
    vec.set(p, v);
    proofs.push_back(keys.signer_for(p).sign(consensus::proposal_digest(p, v)));
  }
  const consensus::VectorQuadProposal proposal(vec, proofs);
  EXPECT_EQ(proposal.digest(), vec.digest());
  ASSERT_EQ(proposal.entry_digests().size(), 3u);
  for (const auto& [p, digest] : proposal.entry_digests()) {
    EXPECT_EQ(digest, consensus::proposal_digest(p, *vec.at(p)));
  }
  EXPECT_TRUE(proposal.verify(keys, n, 1));
  // A proof set that does not cover the vector still fails.
  const consensus::VectorQuadProposal short_proofs(
      vec, std::vector<Signature>(proofs.begin(), proofs.end() - 1));
  EXPECT_FALSE(short_proofs.verify(keys, n, 1));
  core::InputConfig other = vec;
  other.set(0, 99);
  const consensus::VectorQuadProposal wrong_value(other, proofs);
  EXPECT_NE(wrong_value.digest(), proposal.digest());
  EXPECT_FALSE(wrong_value.verify(keys, n, 1));

  const crypto::ThresholdSignature tsig{digest_of(1), 0x1234};
  const consensus::HashQuadProposal hashed(digest_of(1), tsig);
  EXPECT_EQ(hashed.digest(), Hasher("valcon/hash-proposal")
                                 .add(digest_of(1))
                                 .add(tsig.mac)
                                 .finish());
}

namespace {

/// Every payload delivered to the wrapped process, outermost wrapper
/// included.
std::vector<sim::PayloadPtr>& inbound_log() {
  static std::vector<sim::PayloadPtr> log;
  return log;
}

class InboundRecorder final : public sim::Process {
 public:
  explicit InboundRecorder(std::unique_ptr<sim::Process> inner)
      : inner_(std::move(inner)) {}
  void on_start(sim::Context& ctx) override { inner_->on_start(ctx); }
  void on_message(sim::Context& ctx, ProcessId from,
                  const sim::PayloadPtr& m) override {
    inbound_log().push_back(m);
    inner_->on_message(ctx, from, m);
  }
  void on_timer(sim::Context& ctx, std::uint64_t tag) override {
    inner_->on_timer(ctx, tag);
  }

 private:
  std::unique_ptr<sim::Process> inner_;
};

/// A correct stack whose inbound payloads are logged.
class RecordInboundStrategy final : public harness::Strategy {
 public:
  std::unique_ptr<sim::Process> build(
      const harness::StrategyEnv& env) const override {
    return std::make_unique<InboundRecorder>(
        env.recorded_stack(env.own_proposal()));
  }
};

const sim::Payload* unwrap(const sim::Payload* p) {
  while (const auto* mux = dynamic_cast<const sim::MuxMsg*>(p)) {
    p = mux->inner.get();
  }
  return p;
}

harness::ScenarioConfig small_config(harness::VcKind vc) {
  harness::ScenarioConfig cfg;
  cfg.n = 4;
  cfg.t = 1;
  cfg.vc = vc;
  cfg.proposals = {3, 1, 4, 1};
  return cfg;
}

}  // namespace

TEST(CachedDigests, EveryDeliveredPayloadMatchesARecomputation) {
  auto& registry = harness::StrategyRegistry::global();
  if (!registry.contains("test-record-inbound")) {
    registry.add("test-record-inbound",
                 [] { return std::make_unique<RecordInboundStrategy>(); });
  }
  const core::StrongValidity validity;
  for (const harness::VcKind vc :
       {harness::VcKind::kAuthenticated, harness::VcKind::kNonAuthenticated,
        harness::VcKind::kFast}) {
    SCOPED_TRACE(harness::to_string(vc));
    harness::ScenarioConfig cfg = small_config(vc);
    cfg.faults[3].strategy = "test-record-inbound";
    inbound_log().clear();
    const auto result =
        harness::run_universal(cfg, core::make_lambda(validity, 4, 1));
    EXPECT_TRUE(result.all_correct_decided(cfg));
    int checked = 0;
    for (const sim::PayloadPtr& m : inbound_log()) {
      const sim::Payload* p = unwrap(m.get());
      if (const auto* brb =
              dynamic_cast<const bcast::ReliableBroadcast::Msg*>(p)) {
        EXPECT_EQ(brb->digest,
                  bcast::ReliableBroadcast::content_digest(brb->content));
        ++checked;
      } else if (const auto* avc = dynamic_cast<
                     const consensus::AuthVectorConsensus::MProposal*>(p)) {
        EXPECT_EQ(avc->digest,
                  consensus::proposal_digest(avc->sig.signer, avc->value));
        ++checked;
      } else if (const auto* fvc = dynamic_cast<
                     const consensus::FastVectorConsensus::MProposal*>(p)) {
        EXPECT_EQ(fvc->digest,
                  consensus::proposal_digest(fvc->sig.signer, fvc->value));
        ++checked;
      }
    }
    EXPECT_GT(checked, 0) << "no digest-carrying payload reached process 3";
  }
  inbound_log().clear();
}

// ---------------------------------------------------------- determinism

TEST(HashOnce, IdenticalRunsReturnIdenticalResults) {
  const core::StrongValidity validity;
  std::uint64_t verifies = 0;
  for (const harness::VcKind vc :
       {harness::VcKind::kAuthenticated, harness::VcKind::kNonAuthenticated,
        harness::VcKind::kFast}) {
    for (const core::CertMode mode :
         {core::CertMode::kPerVote, core::CertMode::kAggregate}) {
      harness::ScenarioConfig cfg = small_config(vc);
      cfg.cert_mode = mode;
      cfg.gst = 5.0;
      cfg.faults[2].strategy = "equivocate";
      SCOPED_TRACE(harness::to_string(vc) + " aggregate=" +
                   std::to_string(mode == core::CertMode::kAggregate));
      const auto lambda = core::make_lambda(validity, cfg.n, cfg.t);
      const harness::RunResult a = harness::run_universal(cfg, lambda);
      const harness::RunResult b = harness::run_universal(cfg, lambda);
      verifies += a.verifies_total;
      EXPECT_EQ(a.verifies_total, b.verifies_total);
      EXPECT_EQ(a.decisions, b.decisions);
      EXPECT_EQ(a.decide_times, b.decide_times);
      EXPECT_EQ(a.vectors, b.vectors);
      EXPECT_EQ(a.message_complexity, b.message_complexity);
      EXPECT_EQ(a.word_complexity, b.word_complexity);
      EXPECT_EQ(a.messages_total, b.messages_total);
      EXPECT_EQ(a.by_type, b.by_type);
      EXPECT_EQ(a.events, b.events);
      EXPECT_EQ(a.last_decision_time, b.last_decision_time);
      EXPECT_EQ(a.queue_drained, b.queue_drained);
      EXPECT_EQ(a.min_vote_margin, b.min_vote_margin);
      EXPECT_EQ(a.conflicting_votes, b.conflicting_votes);
      EXPECT_EQ(a.end_time, b.end_time);
      EXPECT_EQ(a.grace_cutoff, b.grace_cutoff);
    }
  }
  EXPECT_GT(verifies, 0u);  // the memo was on the path
}

TEST(HashOnce, ConcurrentRunsSharingRegistriesMatchASequentialRun) {
  // Sweep workers share one KeyRegistry per (n, k, seed) while each run
  // keeps its own memo; concurrent runs must neither race nor see each
  // other's entries.
  const core::StrongValidity validity;
  harness::ScenarioConfig cfg = small_config(harness::VcKind::kAuthenticated);
  cfg.seed = 41;
  const auto lambda = core::make_lambda(validity, cfg.n, cfg.t);
  const harness::RunResult expected = harness::run_universal(cfg, lambda);
  constexpr int kThreads = 4;
  std::vector<harness::RunResult> results(kThreads);
  std::vector<std::thread> workers;
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back([&cfg, &lambda, &results, i] {
      results[static_cast<std::size_t>(i)] =
          harness::run_universal(cfg, lambda);
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (const harness::RunResult& r : results) {
    EXPECT_EQ(r.verifies_total, expected.verifies_total);
    EXPECT_EQ(r.decisions, expected.decisions);
    EXPECT_EQ(r.by_type, expected.by_type);
    EXPECT_EQ(r.events, expected.events);
  }
}
