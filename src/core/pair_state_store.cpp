#include "core/pair_state_store.h"

#include <algorithm>
#include <optional>
#include <utility>

namespace via {

namespace {
std::size_t clamp_stripes(std::size_t requested) {
  const std::size_t capped = std::clamp<std::size_t>(requested, 1, 64);
  std::size_t pow2 = 1;
  while (pow2 * 2 <= capped) pow2 *= 2;
  return pow2;
}
}  // namespace

PairStateStore::PairStateStore(std::uint64_t seed, std::size_t stripes,
                               const BudgetConfig& budget, double relay_share_cap)
    : stripe_count_(clamp_stripes(stripes)),
      stripes_(std::make_unique<Stripe[]>(stripe_count_)),
      budget_config_(budget),
      budget_(budget),
      relay_share_cap_(relay_share_cap) {
  // Stripe 0's seed is exactly the historical single-stream seed
  // (hash_mix(seed, 0x1a)), so one stripe == the pre-split RNG sequence.
  for (std::size_t i = 0; i < stripe_count_; ++i) {
    stripes_[i].rng.reseed(hash_mix(seed, 0x1a + i));
  }
}

void PairStateStore::budget_on_call(double predicted_benefit) {
  if (budget_config_.fraction >= 1.0) {
    // Unlimited budget: BudgetFilter::on_call would only bump its call
    // counter, so the gate stays lock-free on the hot path.
    budget_calls_.inc();
    return;
  }
  const std::lock_guard lock(budget_mutex_);
  budget_.on_call(predicted_benefit);
}

bool PairStateStore::budget_allow_relay(double predicted_benefit) {
  if (budget_config_.fraction >= 1.0) {
    budget_granted_.inc();
    return true;
  }
  const std::lock_guard lock(budget_mutex_);
  return budget_.allow_relay(predicted_benefit);
}

std::int64_t PairStateStore::evict(std::uint64_t current_period, std::uint64_t ttl_periods,
                                   std::size_t max_pairs) {
  const auto expired = [&](const PairServingState& state) {
    // Never armed (~0ULL): a placeholder, tiny, never stale.
    return ttl_periods > 0 && state.period != ~0ULL &&
           state.period + ttl_periods <= current_period;
  };
  // (armed period, pair key): pairs ranking below `cutoff` exceed the cap.
  using Rank = std::pair<std::uint64_t, std::uint64_t>;
  std::optional<Rank> cutoff;
  const std::size_t resident = max_pairs > 0 ? resident_pairs() : 0;
  if (resident > max_pairs) {
    std::vector<Rank> ranks;
    ranks.reserve(resident);
    for (std::size_t i = 0; i < stripe_count_; ++i) {
      Stripe& s = stripes_[i];
      const std::lock_guard lock(s.mutex);
      s.pairs.for_each([&](std::uint64_t key, const PairServingState& state) {
        if (!expired(state)) ranks.emplace_back(state.period, key);
      });
    }
    if (ranks.size() > max_pairs) {
      const auto nth = ranks.begin() + static_cast<std::ptrdiff_t>(ranks.size() - max_pairs);
      std::nth_element(ranks.begin(), nth, ranks.end());
      cutoff = *nth;
    }
  }
  if (ttl_periods == 0 && !cutoff) return 0;
  std::int64_t evicted = 0;
  for (std::size_t i = 0; i < stripe_count_; ++i) {
    Stripe& s = stripes_[i];
    const std::lock_guard lock(s.mutex);
    evicted += static_cast<std::int64_t>(
        s.pairs.erase_if([&](std::uint64_t key, const PairServingState& state) {
          return expired(state) || (cutoff && Rank{state.period, key} < *cutoff);
        }));
  }
  evicted_total_ += evicted;
  return evicted;
}

std::size_t PairStateStore::resident_pairs() {
  std::size_t n = 0;
  for (std::size_t i = 0; i < stripe_count_; ++i) {
    const std::lock_guard lock(stripes_[i].mutex);
    n += stripes_[i].pairs.size();
  }
  return n;
}

std::size_t PairStateStore::approx_bytes() {
  std::size_t n = sizeof(*this) + stripe_count_ * sizeof(Stripe);
  for (std::size_t i = 0; i < stripe_count_; ++i) {
    Stripe& s = stripes_[i];
    const std::lock_guard lock(s.mutex);
    n += s.pairs.approx_bytes();
    s.pairs.for_each([&](std::uint64_t, const PairServingState& state) {
      n += state.bandit.heap_bytes() + state.options.capacity() * sizeof(OptionId);
    });
  }
  {
    const std::lock_guard lock(relay_mutex_);
    n += relay_load_.approx_bytes();
  }
  return n;
}

bool PairStateStore::relay_cap_allows(const RelayOption& option) {
  if (relay_share_cap_ >= 1.0) return true;
  if (option.kind == RelayKind::Direct) return true;
  const auto key_a = static_cast<std::uint64_t>(static_cast<std::uint32_t>(option.a));
  const auto key_b = static_cast<std::uint64_t>(static_cast<std::uint32_t>(option.b));
  const std::lock_guard lock(relay_mutex_);
  // A short warm-up so the first few calls are not all rejected.
  if (relayed_total_ >= 20) {
    const double cap = relay_share_cap_ * static_cast<double>(relayed_total_);
    if (static_cast<double>(relay_load_[key_a]) >= cap) return false;
    if (option.kind == RelayKind::Transit &&
        static_cast<double>(relay_load_[key_b]) >= cap) {
      return false;
    }
  }
  ++relay_load_[key_a];
  if (option.kind == RelayKind::Transit) ++relay_load_[key_b];
  ++relayed_total_;
  return true;
}

}  // namespace via
