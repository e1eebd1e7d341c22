// Unit + property tests for the energy model.  The crown jewels are the
// closed-form reproductions of the paper's Table III "4tau gains" column:
// with the published sensor power specs and eq. (8), a delta_max = 4tau
// schedule must yield 75/50% (camera), ~68.9/45.5% (radar) and
// ~64.8/41.9% (lidar) — we assert those numbers here.
#include <gtest/gtest.h>

#include "energy/power_model.hpp"
#include "energy/report.hpp"
#include "energy/tally.hpp"
#include "util/expect.hpp"

namespace seo {
namespace {

PerceptionModelSpec resnet() { return resnet152_px2(); }

TEST(PowerModel, LocalFrameEnergyClosedForm) {
  PlatformPowerModel pm;
  pm.idle_w = 2.5;
  // 17 ms * 7 W + 3 ms * 2.5 W = 0.119 + 0.0075.
  EXPECT_NEAR(local_frame_energy_j(resnet(), 0.02, pm), 0.1265, 1e-12);
}

TEST(PowerModel, GatedAndOffloadedFrames) {
  PlatformPowerModel pm;
  pm.idle_w = 2.5;
  pm.deep_sleep_w = 0.0;
  EXPECT_NEAR(gated_frame_energy_j(0.02, pm), 0.05, 1e-12);
  EXPECT_DOUBLE_EQ(offloaded_frame_energy_j(0.02, pm), 0.0);
}

TEST(PowerModel, LatencyMustFitPeriod) {
  PlatformPowerModel pm;
  EXPECT_THROW(local_frame_energy_j(resnet(), 0.016, pm), ContractViolation);
}

TEST(PowerModel, SensorEnergyEq8) {
  // E_N = p*(P_mech + P_meas) + T_N*P_N ; E_Omega = p*P_mech (paper eq. 8).
  const SensorSpec radar = navtech_cts350x_radar(0.02);
  EXPECT_NEAR(sensor_active_energy_j(radar, resnet()),
              0.02 * (2.4 + 21.6) + 0.119, 1e-12);
  EXPECT_NEAR(sensor_gated_energy_j(radar), 0.02 * 2.4, 1e-12);
}

TEST(Tally, RecordAndBuckets) {
  PipelineTally tally(4);
  tally.record(4, SlotOutcome::kGated);
  tally.record(4, SlotOutcome::kGated);
  tally.record(4, SlotOutcome::kLocalDeadline);
  tally.record(kUnconstrainedBucket, SlotOutcome::kOffloadTx, 0.01);
  EXPECT_EQ(tally.bucket(4).gated, 2u);
  EXPECT_EQ(tally.bucket(4).local_deadline, 1u);
  EXPECT_EQ(tally.bucket(0).offload_tx, 1u);
  EXPECT_DOUBLE_EQ(tally.bucket(0).tx_energy_j, 0.01);
  EXPECT_EQ(tally.total_frames(), 4u);
  EXPECT_DOUBLE_EQ(tally.total_tx_energy_j(), 0.01);
}

TEST(Tally, MergeAddsCounts) {
  PipelineTally a(4), b(4);
  a.record(2, SlotOutcome::kGated);
  b.record(2, SlotOutcome::kGated);
  b.record(3, SlotOutcome::kLocalScheduled);
  a.merge(b);
  EXPECT_EQ(a.bucket(2).gated, 2u);
  EXPECT_EQ(a.bucket(3).local_scheduled, 1u);
}

TEST(Tally, Contracts) {
  PipelineTally tally(4);
  EXPECT_THROW(tally.record(5, SlotOutcome::kGated), ContractViolation);
  EXPECT_THROW(tally.record(-1, SlotOutcome::kGated), ContractViolation);
  EXPECT_THROW(tally.record(1, SlotOutcome::kGated, -1.0), ContractViolation);
  PipelineTally other(6);
  EXPECT_THROW(tally.merge(other), ContractViolation);
  EXPECT_THROW(PipelineTally(0), ContractViolation);
}

TEST(BucketCounts, FrameArithmetic) {
  BucketCounts c;
  c.local_scheduled = 2;
  c.local_deadline = 1;
  c.local_fallback = 1;
  c.gated = 3;
  c.offload_tx = 4;
  c.remote_applied = 1;
  EXPECT_EQ(c.local_frames(), 4u);
  EXPECT_EQ(c.non_local_frames(), 8u);
  EXPECT_EQ(c.total_frames(), 12u);
}

/// Builds the tally of `intervals` gating intervals at delta_max = dmax for
/// a pipeline with discretized period delta (p = delta*tau): per interval,
/// the deadline slot runs locally and the remaining own-period frames are
/// gated.
PipelineTally gating_tally(int dmax, int delta, int intervals) {
  PipelineTally tally(4);
  const int frames_per_interval = dmax / delta;  // own-period frames
  for (int i = 0; i < intervals; ++i) {
    for (int f = 0; f < frames_per_interval - 1; ++f)
      tally.record(dmax, SlotOutcome::kGated);
    tally.record(dmax, SlotOutcome::kLocalDeadline);
  }
  return tally;
}

struct SensorGainCase {
  const char* name;
  SensorSpec (*make)(double);
  int delta;          // 1 -> p=tau, 2 -> p=2tau
  double paper_gain;  // Table III "4tau gains"
};

class TableIIIClosedForm : public ::testing::TestWithParam<SensorGainCase> {};

TEST_P(TableIIIClosedForm, FourTauGainsMatchPaper) {
  const SensorGainCase& c = GetParam();
  const double tau = 0.02;
  const SensorSpec sensor = c.make(c.delta * tau);
  const PipelineTally tally = gating_tally(4, c.delta, 100);
  const EnergyComparison cmp =
      sensor_gating_energy_at(tally, 4, sensor, resnet());
  EXPECT_NEAR(cmp.gain(), c.paper_gain, 0.004)
      << c.name << " (p=" << c.delta << "tau)";
}

INSTANTIATE_TEST_SUITE_P(
    PaperTableIII, TableIIIClosedForm,
    ::testing::Values(
        SensorGainCase{"zed_camera", &zed_stereo_camera, 1, 0.75},
        SensorGainCase{"zed_camera", &zed_stereo_camera, 2, 0.50},
        SensorGainCase{"navtech_radar", &navtech_cts350x_radar, 1, 0.6893},
        SensorGainCase{"navtech_radar", &navtech_cts350x_radar, 2, 0.4553},
        SensorGainCase{"velodyne_lidar", &velodyne_hdl32e_lidar, 1, 0.6482},
        SensorGainCase{"velodyne_lidar", &velodyne_hdl32e_lidar, 2, 0.4191}));

TEST(Report, ModelGatingGainClosedForm) {
  // delta_max=4, p=tau gating: 3 gated + 1 local per interval.
  PlatformPowerModel pm;
  pm.idle_w = 2.5;
  const PipelineTally tally = gating_tally(4, 1, 50);
  const EnergyComparison cmp = model_energy(tally, resnet(), 0.02, pm);
  const double e_local = 0.1265, e_gated = 0.05;
  const double expected = 1.0 - (3 * e_gated + e_local) / (4 * e_local);
  EXPECT_NEAR(cmp.gain(), expected, 1e-12);
  EXPECT_NEAR(expected, 0.4538, 0.001);  // the calibrated gating ceiling
}

TEST(Report, OffloadEnergyCountsRadioOnly) {
  PlatformPowerModel pm;
  pm.idle_w = 2.5;
  PipelineTally tally(4);
  // 3 offloaded frames + 1 mandatory local, 0.013 J radio each.
  for (int i = 0; i < 3; ++i)
    tally.record(4, SlotOutcome::kOffloadTx, 0.013);
  tally.record(4, SlotOutcome::kLocalDeadline);
  const EnergyComparison cmp = model_energy(tally, resnet(), 0.02, pm);
  EXPECT_NEAR(cmp.actual_j, 3 * 0.013 + 0.1265, 1e-12);
  EXPECT_NEAR(cmp.baseline_j, 4 * 0.1265, 1e-12);
  EXPECT_NEAR(cmp.gain(), 1.0 - (0.039 + 0.1265) / 0.506, 1e-9);
}

TEST(Report, RemoteAppliedSkipsLocalEntirely) {
  PlatformPowerModel pm;
  PipelineTally tally(4);
  for (int i = 0; i < 3; ++i)
    tally.record(kUnconstrainedBucket, SlotOutcome::kOffloadTx, 0.013);
  tally.record(kUnconstrainedBucket, SlotOutcome::kRemoteApplied, 0.013);
  const EnergyComparison cmp = model_energy(tally, resnet(), 0.02, pm);
  EXPECT_NEAR(cmp.actual_j, 4 * 0.013, 1e-12);
  // Gain approaches 1 - E_tx/E_local ~ 89%.
  EXPECT_NEAR(cmp.gain(), 1.0 - 0.013 / 0.1265, 1e-9);
}

TEST(Report, FallbackChargesBothRadioAndLocal) {
  PlatformPowerModel pm;
  PipelineTally tally(4);
  tally.record(kUnconstrainedBucket, SlotOutcome::kLocalFallback, 0.013);
  const EnergyComparison cmp = model_energy(tally, resnet(), 0.02, pm);
  EXPECT_NEAR(cmp.actual_j, 0.013 + 0.1265, 1e-12);
  EXPECT_LT(cmp.gain(), 0.0);  // a fallback frame costs MORE than local
}

TEST(Report, SensorGatingTreatsOffloadAsActive) {
  const SensorSpec cam = zed_stereo_camera(0.02);
  PipelineTally tally(4);
  tally.record(4, SlotOutcome::kOffloadTx, 0.013);
  const EnergyComparison cmp = sensor_gating_energy(tally, cam, resnet());
  // The sensor kept measuring: full active energy, no gating gain.
  EXPECT_DOUBLE_EQ(cmp.gain(), 0.0);
}

TEST(Report, EmptyTallyGivesZeroGain) {
  const PipelineTally tally(4);
  PlatformPowerModel pm;
  EXPECT_DOUBLE_EQ(model_energy(tally, resnet(), 0.02, pm).gain(), 0.0);
}

TEST(Report, NormalizedIsComplementOfGain) {
  PlatformPowerModel pm;
  const PipelineTally tally = gating_tally(4, 1, 10);
  const EnergyComparison cmp = model_energy(tally, resnet(), 0.02, pm);
  EXPECT_NEAR(cmp.gain() + cmp.normalized(), 1.0, 1e-12);
}

}  // namespace
}  // namespace seo
