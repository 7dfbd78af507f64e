#include "ml/bandit.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace maestro::ml {

double ArmStats::variance() const {
  if (pulls < 2) return 0.0;
  const double n = static_cast<double>(pulls);
  const double m = reward_sum / n;
  return std::max((reward_sq_sum - n * m * m) / (n - 1.0), 0.0);
}

void BanditPolicy::update(std::size_t arm, double reward) {
  assert(arm < arms_.size());
  auto& s = arms_[arm];
  ++s.pulls;
  s.reward_sum += reward;
  s.reward_sq_sum += reward * reward;
}

void BanditPolicy::restore_stats(const std::vector<ArmStats>& stats) {
  assert(stats.size() == arms_.size());
  arms_ = stats;
}

std::size_t BanditPolicy::total_pulls() const {
  std::size_t t = 0;
  for (const auto& a : arms_) t += a.pulls;
  return t;
}

std::size_t BanditPolicy::best_empirical_arm() const {
  std::size_t best = 0;
  for (std::size_t i = 1; i < arms_.size(); ++i) {
    if (arms_[i].mean() > arms_[best].mean()) best = i;
  }
  return best;
}

std::size_t EpsilonGreedy::select(util::Rng& rng) {
  // Pull every arm once first.
  for (std::size_t i = 0; i < arms_.size(); ++i) {
    if (arms_[i].pulls == 0) return i;
  }
  if (rng.uniform() < eps_) return rng.below(arms_.size());
  return best_empirical_arm();
}

std::size_t Softmax::select(util::Rng& rng) {
  for (std::size_t i = 0; i < arms_.size(); ++i) {
    if (arms_[i].pulls == 0) return i;
  }
  // Boltzmann weights, max-shifted for numerical stability.
  double max_mean = -std::numeric_limits<double>::infinity();
  for (const auto& a : arms_) max_mean = std::max(max_mean, a.mean());
  std::vector<double> w(arms_.size());
  for (std::size_t i = 0; i < arms_.size(); ++i) {
    w[i] = std::exp((arms_[i].mean() - max_mean) / std::max(tau_, 1e-9));
  }
  const std::size_t pick = rng.weighted_index(w);
  return pick < arms_.size() ? pick : 0;
}

std::size_t Ucb1::select(util::Rng& rng) {
  (void)rng;  // UCB1 is deterministic given history
  for (std::size_t i = 0; i < arms_.size(); ++i) {
    if (arms_[i].pulls == 0) return i;
  }
  const double t = static_cast<double>(total_pulls());
  std::size_t best = 0;
  double best_u = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < arms_.size(); ++i) {
    const double bonus = c_ * std::sqrt(2.0 * std::log(t) / static_cast<double>(arms_[i].pulls));
    const double u = arms_[i].mean() + bonus;
    if (u > best_u) {
      best_u = u;
      best = i;
    }
  }
  return best;
}

std::size_t ThompsonGaussian::select(util::Rng& rng) {
  // Normal-Inverse-Gamma posterior with weak priors:
  //   mu0 = 0, kappa0 = 1e-3, alpha0 = 1.5, beta0 = 1.0.
  // Sample sigma^2 ~ InvGamma(alpha_n, beta_n), then mu ~ N(mu_n, sigma^2/kappa_n).
  constexpr double mu0 = 0.0;
  constexpr double kappa0 = 1e-3;
  constexpr double alpha0 = 1.5;
  constexpr double beta0 = 1.0;

  std::size_t best = 0;
  double best_sample = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < arms_.size(); ++i) {
    const auto& a = arms_[i];
    const double n = static_cast<double>(a.pulls);
    const double mean = a.pulls > 0 ? a.mean() : 0.0;
    const double kappa_n = kappa0 + n;
    const double mu_n = (kappa0 * mu0 + n * mean) / kappa_n;
    const double alpha_n = alpha0 + n / 2.0;
    double ss = 0.0;
    if (a.pulls > 0) ss = std::max(a.reward_sq_sum - n * mean * mean, 0.0);
    const double beta_n =
        beta0 + 0.5 * ss + kappa0 * n * (mean - mu0) * (mean - mu0) / (2.0 * kappa_n);
    // sigma^2 ~ InvGamma(alpha_n, beta_n) == beta_n / Gamma(alpha_n).
    const double sigma2 = beta_n / std::max(rng.gamma(alpha_n), 1e-12);
    const double sample = rng.gauss(mu_n, std::sqrt(sigma2 / kappa_n));
    if (sample > best_sample) {
      best_sample = sample;
      best = i;
    }
  }
  return best;
}

std::size_t ThompsonBernoulli::select(util::Rng& rng) {
  std::size_t best = 0;
  double best_sample = -1.0;
  for (std::size_t i = 0; i < alpha_.size(); ++i) {
    const double s = rng.beta(alpha_[i], beta_[i]);
    if (s > best_sample) {
      best_sample = s;
      best = i;
    }
  }
  return best;
}

void ThompsonBernoulli::update(std::size_t arm, double reward) {
  BanditPolicy::update(arm, reward);
  const double r = std::clamp(reward, 0.0, 1.0);
  alpha_[arm] += r;
  beta_[arm] += 1.0 - r;
}

void ThompsonBernoulli::restore_stats(const std::vector<ArmStats>& stats) {
  BanditPolicy::restore_stats(stats);
  for (std::size_t i = 0; i < stats.size(); ++i) {
    const double r = std::clamp(stats[i].reward_sum, 0.0, static_cast<double>(stats[i].pulls));
    alpha_[i] = 1.0 + r;
    beta_[i] = 1.0 + static_cast<double>(stats[i].pulls) - r;
  }
}

const char* to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::Thompson: return "thompson";
    case PolicyKind::Softmax: return "softmax";
    case PolicyKind::EpsilonGreedy: return "eps_greedy";
    case PolicyKind::Ucb1: return "ucb1";
  }
  return "?";
}

std::unique_ptr<BanditPolicy> make_policy(PolicyKind kind, std::size_t arms, double epsilon,
                                          double tau) {
  switch (kind) {
    case PolicyKind::Thompson: return std::make_unique<ThompsonGaussian>(arms);
    case PolicyKind::Softmax: return std::make_unique<Softmax>(arms, tau);
    case PolicyKind::EpsilonGreedy: return std::make_unique<EpsilonGreedy>(arms, epsilon);
    case PolicyKind::Ucb1: return std::make_unique<Ucb1>(arms);
  }
  return std::make_unique<ThompsonGaussian>(arms);
}

BanditRunResult run_bandit(BanditPolicy& policy, const std::vector<GaussianArm>& arms,
                           std::size_t iterations, std::size_t batch, util::Rng& rng) {
  assert(policy.n_arms() == arms.size());
  BanditRunResult res;
  res.pulls_per_arm.assign(arms.size(), 0);

  double best_mean = -std::numeric_limits<double>::infinity();
  for (const auto& a : arms) best_mean = std::max(best_mean, a.mean);

  double regret = 0.0;
  for (std::size_t it = 0; it < iterations; ++it) {
    // A batch models concurrent tool licenses: select B arms against the
    // same posterior, then update with all B observations.
    std::vector<std::size_t> chosen;
    for (std::size_t b = 0; b < batch; ++b) chosen.push_back(policy.select(rng));
    for (const std::size_t arm : chosen) {
      const double reward = rng.gauss(arms[arm].mean, arms[arm].sigma);
      policy.update(arm, reward);
      ++res.pulls_per_arm[arm];
      res.total_reward += reward;
      regret += best_mean - arms[arm].mean;
    }
    res.cumulative_regret.push_back(regret);
  }
  res.total_regret = regret;
  return res;
}

}  // namespace maestro::ml
