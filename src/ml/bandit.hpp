#pragma once
// Multi-armed bandit policies.
//
// Section 3.1's example ("Tool Run Scheduling With a Multi-Armed Bandit",
// ref [25]) samples target frequencies for a commercial SP&R flow: N arms
// with unknown i.i.d. reward distributions, a budget of T iterations with B
// concurrent pulls per iteration (tool licenses). The paper compares softmax,
// e-greedy and Thompson Sampling and finds TS most robust. This module
// implements those policies plus UCB1, with regret accounting per the
// regret-minimization formulation of footnote 3.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace maestro::ml {

/// Per-arm sufficient statistics maintained by every policy.
struct ArmStats {
  std::size_t pulls = 0;
  double reward_sum = 0.0;
  double reward_sq_sum = 0.0;

  double mean() const { return pulls > 0 ? reward_sum / static_cast<double>(pulls) : 0.0; }
  double variance() const;
};

/// Interface: select an arm, then observe its reward.
class BanditPolicy {
 public:
  explicit BanditPolicy(std::size_t n_arms) : arms_(n_arms) {}
  virtual ~BanditPolicy() = default;

  virtual std::string name() const = 0;
  virtual std::size_t select(util::Rng& rng) = 0;
  virtual void update(std::size_t arm, double reward);

  std::size_t n_arms() const { return arms_.size(); }
  const ArmStats& stats(std::size_t arm) const { return arms_[arm]; }
  std::size_t total_pulls() const;
  /// Arm with highest empirical mean (ties -> lowest index).
  std::size_t best_empirical_arm() const;

  /// Copy of the per-arm sufficient statistics, for campaign checkpoints.
  std::vector<ArmStats> export_stats() const { return arms_; }
  /// Restore per-arm statistics (campaign resume). `stats` must match
  /// n_arms(); policies with derived state (ThompsonBernoulli) rebuild it
  /// from these sufficient statistics.
  virtual void restore_stats(const std::vector<ArmStats>& stats);

 protected:
  std::vector<ArmStats> arms_;
};

/// e-greedy: explore uniformly with probability epsilon, else exploit.
class EpsilonGreedy : public BanditPolicy {
 public:
  EpsilonGreedy(std::size_t n_arms, double epsilon) : BanditPolicy(n_arms), eps_(epsilon) {}
  std::string name() const override { return "eps_greedy"; }
  std::size_t select(util::Rng& rng) override;

 private:
  double eps_;
};

/// Softmax (Boltzmann) sampling with temperature tau.
class Softmax : public BanditPolicy {
 public:
  Softmax(std::size_t n_arms, double tau) : BanditPolicy(n_arms), tau_(tau) {}
  std::string name() const override { return "softmax"; }
  std::size_t select(util::Rng& rng) override;

 private:
  double tau_;
};

/// UCB1 (Auer et al.): mean + sqrt(2 ln t / n).
class Ucb1 : public BanditPolicy {
 public:
  explicit Ucb1(std::size_t n_arms, double c = 1.0) : BanditPolicy(n_arms), c_(c) {}
  std::string name() const override { return "ucb1"; }
  std::size_t select(util::Rng& rng) override;

 private:
  double c_;
};

/// Thompson Sampling with a Normal-Inverse-Gamma conjugate model per arm
/// (unknown mean and variance), following [38] [33] [40] as cited by the
/// paper. Robust to reward scale, which is why [25] found TS strongest for
/// design-tool sampling.
class ThompsonGaussian : public BanditPolicy {
 public:
  explicit ThompsonGaussian(std::size_t n_arms) : BanditPolicy(n_arms) {}
  std::string name() const override { return "thompson"; }
  std::size_t select(util::Rng& rng) override;
};

/// Thompson Sampling for Bernoulli rewards with Beta(1,1) priors.
class ThompsonBernoulli : public BanditPolicy {
 public:
  explicit ThompsonBernoulli(std::size_t n_arms)
      : BanditPolicy(n_arms), alpha_(n_arms, 1.0), beta_(n_arms, 1.0) {}
  std::string name() const override { return "thompson_bernoulli"; }
  std::size_t select(util::Rng& rng) override;
  void update(std::size_t arm, double reward) override;
  /// Rebuilds the Beta posteriors from the sufficient statistics (exact for
  /// 0/1 rewards: alpha = 1 + reward_sum, beta = 1 + pulls - reward_sum).
  void restore_stats(const std::vector<ArmStats>& stats) override;

 private:
  std::vector<double> alpha_;
  std::vector<double> beta_;
};

/// The policies a campaign can run (core::MabScheduler, tune::FlowTuner;
/// FlowTune, arxiv 2202.07721, runs one per flow stage).
enum class PolicyKind { Thompson, Softmax, EpsilonGreedy, Ucb1 };
/// The policy's name(): "thompson", "softmax", "eps_greedy", "ucb1". The
/// campaign checkpoints use it as an identity string.
const char* to_string(PolicyKind kind);
/// A fresh policy of `kind` over `arms` arms. `epsilon` is read by
/// EpsilonGreedy only, `tau` by Softmax only.
std::unique_ptr<BanditPolicy> make_policy(PolicyKind kind, std::size_t arms, double epsilon,
                                          double tau);

/// A synthetic bandit environment with Gaussian arms, used by unit tests and
/// the Fig. 7 harness sanity sweeps.
struct GaussianArm {
  double mean = 0.0;
  double sigma = 1.0;
};

struct BanditRunResult {
  std::vector<std::size_t> pulls_per_arm;
  std::vector<double> cumulative_regret;  ///< per iteration (batch-summed)
  double total_reward = 0.0;
  double total_regret = 0.0;
};

/// Run a policy for `iterations` rounds of `batch` concurrent pulls against
/// Gaussian arms. Regret per pull = best_mean - mean(chosen arm), per the
/// paper's footnote-3 formulation.
BanditRunResult run_bandit(BanditPolicy& policy, const std::vector<GaussianArm>& arms,
                           std::size_t iterations, std::size_t batch, util::Rng& rng);

}  // namespace maestro::ml
