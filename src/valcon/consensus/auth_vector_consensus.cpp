#include "valcon/consensus/auth_vector_consensus.hpp"

#include "valcon/core/thresholds.hpp"

namespace valcon::consensus {

crypto::Hash proposal_digest(ProcessId proposer, Value v) {
  crypto::Hasher h("valcon/vc-proposal");
  h.add(static_cast<std::int64_t>(proposer)).add(v);
  return h.finish();
}

VectorQuadProposal::VectorQuadProposal(core::InputConfig vec,
                                       std::vector<crypto::Signature> proofs)
    : vector_(std::move(vec)),
      proofs_(std::move(proofs)),
      digest_(vector_.digest()) {
  entry_digests_.reserve(static_cast<std::size_t>(vector_.count()));
  for (ProcessId p = 0; p < vector_.n(); ++p) {
    if (const std::optional<Value>& v = vector_.at(p)) {
      entry_digests_.emplace_back(p, proposal_digest(p, *v));
    }
  }
}

bool VectorQuadProposal::verify(const crypto::KeyRegistry& keys, int n,
                                int t) const {
  if (vector_.n() != n || vector_.count() != core::quorum_n_minus_t(n, t)) {
    return false;
  }
  for (const auto& [p, expected] : entry_digests_) {
    bool found = false;
    for (const crypto::Signature& sig : proofs_) {
      if (sig.signer == p && sig.digest == expected && keys.verify(sig)) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

AuthVectorConsensus::AuthVectorConsensus(Quad::Options quad_options) {
  quad_ = &make_child<Quad>(
      // verify(vector, Sigma): every pair accompanied by a valid signed
      // proposal message (Section 5.2.1's predicate for this Quad instance).
      [](sim::Context& qctx, const QuadProposal& value) {
        const auto* vec = dynamic_cast<const VectorQuadProposal*>(&value);
        return vec != nullptr && vec->verify(qctx.keys(), qctx.n(), qctx.t());
      },
      [this](sim::Context& qctx, const QuadProposalPtr& value) {
        const auto* vec = dynamic_cast<const VectorQuadProposal*>(value.get());
        if (vec != nullptr) deliver_vector(qctx, vec->vector());
      },
      quad_options);
}

void AuthVectorConsensus::own_start(sim::Context& ctx) {
  if (input_.has_value()) {
    const Value v = *input_;
    const crypto::Signature sig = ctx.signer().sign(
        proposal_digest(ctx.id(), v));
    ctx.broadcast(sim::make_payload<MProposal>(v, sig));
  }
}

void AuthVectorConsensus::own_message(sim::Context& ctx, ProcessId from,
                                      const sim::PayloadPtr& m) {
  const auto* msg = dynamic_cast<const MProposal*>(m.get());
  if (msg == nullptr) return;
  const int n = ctx.n();
  const int t = ctx.t();
  // Accept only properly signed proposals from their claimed sender, and
  // stop counting at n-t (Algorithm 1, line 10).
  if (proposed_to_quad_) return;
  if (msg->sig.signer != from || msg->sig.digest != msg->digest ||
      !ctx.keys().verify(msg->sig)) {
    return;
  }
  proposals_.emplace(from, std::make_pair(msg->value, msg->sig));
  if (static_cast<int>(proposals_.size()) < core::quorum_n_minus_t(n, t)) {
    return;
  }

  proposed_to_quad_ = true;
  core::InputConfig vector(n);
  std::vector<crypto::Signature> proofs;
  int taken = 0;
  for (const auto& [pid, entry] : proposals_) {
    if (taken == core::quorum_n_minus_t(n, t)) break;
    vector.set(pid, entry.first);
    proofs.push_back(entry.second);
    ++taken;
  }
  quad_->propose(child_context(0),
                 std::make_shared<const VectorQuadProposal>(
                     vector, std::move(proofs)));
}

}  // namespace valcon::consensus
