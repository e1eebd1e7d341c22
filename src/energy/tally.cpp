#include "energy/tally.hpp"

#include "util/expect.hpp"

namespace seo {

void BucketCounts::merge(const BucketCounts& other) {
  local_scheduled += other.local_scheduled;
  local_deadline += other.local_deadline;
  local_fallback += other.local_fallback;
  gated += other.gated;
  offload_tx += other.offload_tx;
  remote_applied += other.remote_applied;
  scaled_local += other.scaled_local;
  tx_energy_j += other.tx_energy_j;
}

namespace {

// Checked before the bucket vector is sized: a negative cap would wrap to
// a huge size_t.
std::size_t bucket_count(int deadline_cap) {
  SEO_EXPECT(deadline_cap >= 1);
  return static_cast<std::size_t>(deadline_cap) + 1;
}

}  // namespace

PipelineTally::PipelineTally(int deadline_cap)
    : buckets_(bucket_count(deadline_cap)) {}

void PipelineTally::record(int bucket, SlotOutcome outcome,
                           double tx_energy_j) {
  SEO_EXPECT(bucket >= 0 && bucket < static_cast<int>(buckets_.size()));
  SEO_EXPECT(tx_energy_j >= 0.0);
  auto& b = buckets_[static_cast<std::size_t>(bucket)];
  switch (outcome) {
    case SlotOutcome::kLocalScheduled: ++b.local_scheduled; break;
    case SlotOutcome::kLocalDeadline: ++b.local_deadline; break;
    case SlotOutcome::kLocalFallback: ++b.local_fallback; break;
    case SlotOutcome::kGated: ++b.gated; break;
    case SlotOutcome::kOffloadTx: ++b.offload_tx; break;
    case SlotOutcome::kRemoteApplied: ++b.remote_applied; break;
    case SlotOutcome::kScaledLocal: ++b.scaled_local; break;
  }
  b.tx_energy_j += tx_energy_j;
}

void PipelineTally::add_tx_energy(int bucket, double tx_energy_j) {
  SEO_EXPECT(bucket >= 0 && bucket < static_cast<int>(buckets_.size()));
  SEO_EXPECT(tx_energy_j >= 0.0);
  buckets_[static_cast<std::size_t>(bucket)].tx_energy_j += tx_energy_j;
}

const BucketCounts& PipelineTally::bucket(int b) const {
  SEO_EXPECT(b >= 0 && b < static_cast<int>(buckets_.size()));
  return buckets_[static_cast<std::size_t>(b)];
}

BucketCounts PipelineTally::total() const {
  BucketCounts out;
  for (const auto& b : buckets_) out.merge(b);
  return out;
}

void PipelineTally::merge(const PipelineTally& other) {
  SEO_EXPECT(deadline_cap() == other.deadline_cap());
  for (std::size_t i = 0; i < buckets_.size(); ++i)
    buckets_[i].merge(other.buckets_[i]);
}

}  // namespace seo
