// Authenticated vector consensus — Algorithm 1.
//
//   on propose(v):      beb-broadcast <PROPOSAL, v> signed;
//   on n-t proposals:   build vector + proof Sigma (the signed proposal
//                       messages) and propose (vector, Sigma) to Quad;
//   on Quad decide:     decide the vector.
//
// Quad's external predicate verify(vector, Sigma) checks that every
// process-proposal pair in the vector is accompanied by a properly signed
// proposal message, which is exactly what gives Vector Validity
// (Theorem 6). Message complexity: O(n^2) (Theorem 7).
#pragma once

#include <map>
#include <utility>
#include <vector>

#include "valcon/consensus/quad.hpp"
#include "valcon/consensus/vector_consensus.hpp"

namespace valcon::consensus {

/// The (vector, Sigma) value-proof pair proposed to Quad.
class VectorQuadProposal final : public QuadProposal {
 public:
  /// Computes the vector's digest and one proposal_digest per entry here,
  /// once, instead of in every digest() and verify() call.
  VectorQuadProposal(core::InputConfig vec,
                     std::vector<crypto::Signature> proofs);

  [[nodiscard]] const core::InputConfig& vector() const { return vector_; }
  [[nodiscard]] const std::vector<crypto::Signature>& proofs() const {
    return proofs_;
  }

  [[nodiscard]] crypto::Hash digest() const override { return digest_; }
  [[nodiscard]] std::size_t size_words() const override {
    // The vector (one word per pair) plus Sigma (one word per signature).
    return static_cast<std::size_t>(vector_.count()) + proofs_.size();
  }

  /// (p, proposal_digest(p, vector()[p])) for each p in
  /// vector().processes(), in that order.
  [[nodiscard]] const std::vector<std::pair<ProcessId, crypto::Hash>>&
  entry_digests() const {
    return entry_digests_;
  }

  /// verify(vector, Sigma): every pair carries a valid signed proposal, and
  /// the vector has exactly n-t pairs.
  [[nodiscard]] bool verify(const crypto::KeyRegistry& keys, int n,
                            int t) const;

 private:
  core::InputConfig vector_;
  std::vector<crypto::Signature> proofs_;
  crypto::Hash digest_;
  std::vector<std::pair<ProcessId, crypto::Hash>> entry_digests_;
};

class AuthVectorConsensus final : public VectorConsensus {
 public:
  explicit AuthVectorConsensus(Quad::Options quad_options = {});

  /// <PROPOSAL, v>, signed. Carries proposal_digest(sig.signer, value), so
  /// receivers check the signed digest without re-hashing.
  struct MProposal final : sim::Payload {
    MProposal(Value v, crypto::Signature s)
        : value(v), sig(s), digest(proposal_digest(s.signer, v)) {}
    VALCON_PAYLOAD_TYPE("avc/proposal")
    [[nodiscard]] std::size_t size_words() const override { return 2; }
    const Value value;
    const crypto::Signature sig;
    const crypto::Hash digest;
  };

 protected:
  void own_start(sim::Context& ctx) override;
  void own_message(sim::Context& ctx, ProcessId from,
                   const sim::PayloadPtr& m) override;

 private:
  Quad* quad_ = nullptr;
  std::map<ProcessId, std::pair<Value, crypto::Signature>> proposals_;
  bool proposed_to_quad_ = false;
};

}  // namespace valcon::consensus
